package bench

import (
	"fmt"
	"math/rand"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C6",
		Title: "Revocation policies: cleanup cost and side-channel closure",
		Paper: "§3.2 guaranteed clean-up on revocation; §4.1 'revocation policies that flush micro-architectural state (caches) during a transition'",
		Gates: []Gate{
			{"none-pays-changed-pages", "none_excess_cycles", eq(0), "a revocation without cleanup pays for exactly the pages it remaps: the grantee's and the grantor's"},
			{"zero-scales", "zero_last_extra_cycles / zero_first_extra_cycles", gt(4), "§3.2: zeroing on revocation is paid per byte"},
			{"obfuscate-dominates", "obfuscate_last_cycles / zero_last_cycles", ge(1), "full obfuscation includes zeroing"},
			{"sidechannel-open-without-flush", "noflush_bits_recovered / trials", eq(1), "without a flush the cache leaks the secret"},
			{"sidechannel-closed-by-flush", "flush_bits_recovered / trials", le(0.75), "§4.1: revocation policies that flush micro-architectural state"},
		},
	}, runC6)
}

// runC6 has two parts. Part one sweeps the revoked-region size across
// cleanup policies and records the cycle cost: 'none' pays exactly the
// pages the revocation remaps, zeroing scales with the region over
// that, flushes add a constant per-core term. Part two is a prime+probe attack: a victim domain touches one
// of two cache lines depending on a secret bit; the attacker probes
// after the victim's core capability is revoked — with CleanNone the
// bit is recovered, with CleanFlushCache the signal is gone.
func runC6(cfg Config, res *Result) error {
	res.Columns = []string{"policy", "region KiB", "revoke cycles", "cycles/KiB"}
	sizesKiB := []uint64{16, 64, 256, 1024}
	if cfg.Quick {
		sizesKiB = []uint64{16, 64, 256}
	}
	policies := []struct {
		name string
		c    cap.Cleanup
	}{
		{"none", cap.CleanNone},
		{"flush-tlb", cap.CleanFlushTLB},
		{"flush-cache", cap.CleanFlushCache},
		{"zero", cap.CleanZero},
		{"obfuscate(all)", cap.CleanObfuscate},
	}
	cost := map[string][]uint64{}
	var eptPage uint64
	for _, pol := range policies {
		for _, kib := range sizesKiB {
			w, err := newWorld(cfg, defaultWorldOpts())
			if err != nil {
				return err
			}
			victim, err := w.mon.CreateDomain(core.InitialDomain, "victim")
			if err != nil {
				return err
			}
			r := phys.MakeRegion(phys.Addr(2<<20), kib*1024)
			node, err := w.mon.Grant(core.InitialDomain, w.cl.HeapNode(), victim, cap.MemResource(r), cap.MemRW, pol.c)
			if err != nil {
				return err
			}
			c, err := cycles(w.mach, func() error {
				return w.mon.Revoke(core.InitialDomain, node)
			})
			if err != nil {
				return err
			}
			res.row(pol.name, fmtU(kib), fmtU(c), fmtU(c/kib))
			cost[pol.name] = append(cost[pol.name], c)
			eptPage = w.mach.Cost.EPTUpdatePage
		}
	}
	// Every revocation — any policy — pays its mediation: the grantee's
	// filter loses the region and the grantor's regains it, each page
	// rewritten once (the 'none' series measures exactly that, and
	// nothing else). So zeroing is gated on its marginal cost over that
	// baseline.
	var excess uint64
	for i, kib := range sizesKiB {
		remap := 2 * eptPage * (kib << 10 >> phys.PageShift)
		excess = max(excess, max(cost["none"][i], remap)-min(cost["none"][i], remap))
	}
	res.metric("none_excess_cycles", float64(excess))
	res.metric("zero_first_extra_cycles", float64(cost["zero"][0]-cost["none"][0]))
	res.metric("zero_last_extra_cycles", float64(last(cost["zero"])-last(cost["none"])))
	res.metric("obfuscate_last_cycles", float64(last(cost["obfuscate(all)"])))
	res.metric("zero_last_cycles", float64(last(cost["zero"])))
	res.note("revoke baseline (policy 'none') = %d cycles at %d KiB: 2 filters × %d pages × %d cycles, the grantee's unmapped and the grantor's restored",
		last(cost["none"]), last(sizesKiB), last(sizesKiB)<<10>>phys.PageShift, eptPage)

	// ---- Part two: prime+probe across a revocation ----
	trials := 24
	if cfg.Quick {
		trials = 12
	}
	recovered := map[string]int{}
	for _, pol := range []struct {
		name string
		c    cap.Cleanup
	}{{"no-flush", cap.CleanNone}, {"flush-cache", cap.CleanFlushCache}} {
		rng := rand.New(rand.NewSource(cfg.Seed + 7))
		hits := 0
		for t := 0; t < trials; t++ {
			bit := rng.Intn(2)
			got, err := primeProbeTrial(cfg, pol.c, bit)
			if err != nil {
				return err
			}
			if got == bit {
				hits++
			}
		}
		recovered[pol.name] = hits
		res.row("prime+probe accuracy ("+pol.name+")", "-",
			fmt.Sprintf("%d/%d bits", hits, trials), "-")
	}
	res.metric("trials", float64(trials))
	res.metric("noflush_bits_recovered", float64(recovered["no-flush"]))
	res.metric("flush_bits_recovered", float64(recovered["flush-cache"]))
	return nil
}

// primeProbeTrial runs one victim/attacker round and returns the bit
// the attacker infers.
func primeProbeTrial(cfg Config, pol cap.Cleanup, bit int) (int, error) {
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return 0, err
	}
	// Two probe addresses in dom0 memory mapping to distinct cache
	// sets; the victim gets read access to both, secret decides which
	// one it touches. Offset past slot 0 so the victim's own code
	// fetches (which live near slot 0) cannot evict the signal.
	probeRegion := phys.MakeRegion(2<<20, phys.PageSize)
	addrA := probeRegion.Start + 16*hw.CacheLineSize
	addrB := addrA + hw.CacheLineSize
	// Victim: enclave whose code loads addrA or addrB per its secret.
	target := addrA
	if bit == 1 {
		target = addrB
	}
	victimImg, err := w.cl.BuildAt("victim", func(base phys.Addr) *hw.Asm {
		a := hw.NewAsm()
		a.Movi(1, uint32(target))
		a.Ld(2, 1, 0)
		a.Hlt()
		return a
	})
	if err != nil {
		return 0, err
	}
	victim, err := w.cl.Load(victimImg, loadOn(1))
	if err != nil {
		return 0, err
	}
	shared, err := w.mon.Share(core.InitialDomain, w.cl.HeapNode(), victim.ID(), cap.MemResource(probeRegion), cap.RightRead, pol)
	if err != nil {
		return 0, err
	}
	if _, err := victim.Seal(); err != nil {
		return 0, err
	}
	// Victim runs on core 1.
	if err := victim.Launch(1); err != nil {
		return 0, err
	}
	if _, err := w.mon.RunCore(1, 100); err != nil {
		return 0, err
	}
	// The victim's access to the probe region is revoked — the cleanup
	// policy decides whether micro-architectural state is flushed.
	if err := w.mon.Revoke(core.InitialDomain, shared); err != nil {
		return 0, err
	}
	// Attacker (dom0) probes core 1's cache.
	cache := w.mach.Core(1).CacheUnit()
	hitA := cache.Probe(addrA)
	hitB := cache.Probe(addrB)
	switch {
	case hitB && !hitA:
		return 1, nil
	case hitA && !hitB:
		return 0, nil
	default:
		// No signal: guess deterministically wrong half the time by
		// returning the complement of the bit's position parity — the
		// caller counts mismatches as failures, which is the point.
		return 2, nil
	}
}

func last(vals []uint64) uint64 { return vals[len(vals)-1] }
