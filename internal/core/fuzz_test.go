package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// The monitor API fuzzer drives a sequence of monitor calls decoded
// from an opaque byte stream — frequently from unauthorized callers,
// against dead domains, with misaligned or overlapping regions — and
// checks the system-wide isolation invariants as it goes. This is the
// "malicious-domain API abuse" failure-injection from DESIGN.md: no
// sequence of legal-or-rejected API calls may produce a state where the
// hardware filter of one domain admits memory the capability space says
// it does not have. The byte-stream encoding makes it a native Go fuzz
// target (FuzzMonitorAPI) with a checked-in seed corpus under
// testdata/fuzz/, while TestMonitorAPIFuzz keeps the long seeded runs
// in the ordinary test suite.

// driveMonitorOps interprets data as a monitor-call program: each op is
// one opcode byte plus operand bytes, all drawn modulo the live object
// sets so every input decodes to something executable. Invariants are
// re-checked after every op. Ops 12-15 exercise the
// vCPU mechanism (exec shares, core delegation, CallYield tenants given
// a vCPU whose code page is granted with a TLB-flushing cleanup, bursts
// of dispatch/run/preempt rounds); ops 16-18 the batched ABI (ring
// setup, raw descriptor enqueue, doorbell flush); ops 19-21 are the
// revoke-heavy mix (revoke bursts, create+share+revoke churn,
// revocations interleaved with ring drains); op 22 bursts doorbell
// flushes from every ring-owning domain; op 23 runs the migration pipeline (snapshot →
// transfer → restore on a lazily-booted second monitor, sometimes
// followed by the departure kill); op 24 fast-switches a core from the
// domain installed there to dom0. Widening the opcode space shifts how pre-existing corpus
// entries decode, which is fine — every decode is a valid program.
func driveMonitorOps(tb testing.TB, m *Monitor, data []byte) {
	domains := []DomainID{InitialDomain}
	var nodes []cap.NodeID
	for _, n := range m.OwnerNodes(InitialDomain) {
		nodes = append(nodes, n.ID)
	}
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			pos++ // still consume, so the loop terminates
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	pick := func(n int) int {
		if n <= 0 {
			return 0
		}
		return int(next()) % n
	}
	randDomain := func() DomainID { return domains[pick(len(domains))] }
	randNode := func() cap.NodeID {
		if len(nodes) == 0 {
			return 0
		}
		return nodes[pick(len(nodes))]
	}
	randRegion := func() cap.Resource {
		start := uint64(next()) << 2 // 0..1020 pages, page-aligned
		pages := uint64(pick(16) + 1)
		return cap.MemResource(phys.MakeRegion(phys.Addr(start*pg), pages*pg))
	}
	// dom0CoreNode finds dom0's capability node for a physical core, if
	// it still owns one (fuzz streams can revoke anything, including
	// dom0's own roots).
	dom0CoreNode := func(c phys.CoreID) (cap.NodeID, bool) {
		for _, n := range m.OwnerNodes(InitialDomain) {
			if n.Resource.Kind == cap.ResCore && n.Resource.Core == c {
				return n.ID, true
			}
		}
		return 0, false
	}
	// Registered rings, by owner: op 17 needs a base to store descriptors
	// at, exactly as guest code would (raw physical stores — the monitor
	// must stay safe no matter what the ring memory holds by drain time).
	rings := map[DomainID]struct {
		base    phys.Addr
		entries uint64
	}{}
	var vcpus []VCPU // created and still waiting, in FIFO order
	// The migration peer (op 23): a second in-process monitor playing
	// the destination node, booted on first use.
	var peer *Monitor
	for pos < len(data) {
		switch next() % 25 {
		case 0:
			if len(domains) < 32 {
				if id, err := m.CreateDomain(randDomain(), "fuzz"); err == nil {
					domains = append(domains, id)
				}
			}
		case 1, 2, 3:
			if id, err := m.Share(randDomain(), randNode(), randDomain(), randRegion(), cap.MemRW|cap.RightShare, cap.CleanZero); err == nil {
				nodes = append(nodes, id)
			}
		case 4, 5:
			if id, err := m.Grant(randDomain(), randNode(), randDomain(), randRegion(), cap.MemRW, cap.CleanObfuscate); err == nil {
				nodes = append(nodes, id)
			}
		case 6:
			_ = m.Revoke(randDomain(), randNode())
		case 7:
			d := randDomain()
			if d != InitialDomain {
				_ = m.KillDomain(randDomain(), d)
			}
		case 8:
			d := randDomain()
			if next()%4 == 0 {
				// Occasionally give it an entry so seal can land.
				_ = m.SetEntry(randDomain(), d, phys.Addr(uint64(pick(512))*pg))
			}
			_, _ = m.Seal(randDomain(), d)
		case 9:
			_, _ = m.Attest(randDomain(), []byte("fuzz"))
		case 10:
			// Containment path under fuzz: force-kill with monitor
			// authority, exactly what a machine check triggers.
			_ = m.ForceKill(randDomain())
		case 11:
			_ = m.Launch(randDomain(), phys.CoreID(pick(2)))
		case 12:
			// Exec-capable share, so fuzz domains can end up holding
			// runnable (and re-shareable) code pages.
			if id, err := m.Share(randDomain(), randNode(), randDomain(), randRegion(), cap.MemRWX|cap.RightShare, cap.CleanZero); err == nil {
				nodes = append(nodes, id)
			}
		case 13:
			// Delegate one of dom0's core capabilities, the prerequisite
			// for the target ever being dispatched.
			c := phys.CoreID(pick(2))
			if n, ok := dom0CoreNode(c); ok {
				if id, err := m.Share(InitialDomain, n, randDomain(), cap.CoreResource(c), cap.RightRun, cap.CleanNone); err == nil {
					nodes = append(nodes, id)
				}
			}
		case 14:
			// Plant a yielding tenant and give it a vCPU: copy a
			// CallYield loop into a page, grant it RWX, set the entry,
			// create the vCPU. Each step is allowed to fail (the page may
			// be gone, the domain sealed or dead) — the stream just moves
			// on.
			d := randDomain()
			page := uint64(600 + pick(128))
			base := phys.Addr(page * pg)
			a := hw.NewAsm()
			a.Movi(10, uint32(1+pick(4)))
			a.Movi(12, 1)
			a.Label("loop")
			a.Movi(0, uint32(CallYield))
			a.Vmcall()
			a.Sub(10, 10, 12)
			a.Jnz(10, "loop")
			a.Hlt()
			_ = m.CopyInto(InitialDomain, base, a.MustAssemble(base))
			if id, err := m.Grant(InitialDomain, randNode(), d, cap.MemResource(phys.MakeRegion(base, pg)), cap.MemRWX, cap.CleanFlushTLB); err == nil {
				nodes = append(nodes, id)
			}
			_ = m.SetEntry(InitialDomain, d, base)
			if v, err := m.CreateVCPU(d); err == nil {
				vcpus = append(vcpus, v)
			}
		case 15:
			// A burst of mechanism rounds: dispatch, run and preempt
			// whatever vCPUs the stream created over both cores. Kills in
			// between leave saved vCPUs of dead domains behind; their
			// dispatch must drop them.
			vcpus, _ = runVCPUs(m, []phys.CoreID{0, 1}, vcpus, 16, 16)
		case 16:
			// Batched ABI: register a ring wherever the stream points —
			// unowned memory, overlapping an earlier ring, zero or
			// oversized capacities all get their shot at the validator.
			d := randDomain()
			base := phys.Addr(uint64(pick(512)) * pg)
			entries := uint64(pick(9)) // 0..8: 0 must be rejected
			if m.RingSetup(d, base, entries) == nil {
				rings[d] = struct {
					base    phys.Addr
					entries uint64
				}{base, entries}
			}
		case 17:
			// Enqueue one descriptor with guest-level stores: random verb
			// (transfer verbs and garbage included — they must fail only
			// their own completion) and operands drawn from the live sets.
			d := randDomain()
			r, ok := rings[d]
			if !ok {
				break
			}
			mem := m.Machine().Mem
			tail, err := mem.Read64(r.base + RingOffSQTail)
			if err != nil {
				break
			}
			off := r.base + phys.Addr(RingSQOff(r.entries, tail))
			for w, v := range [6]uint64{
				uint64(pick(16)),
				uint64(randNode()),
				uint64(randDomain()),
				uint64(pick(512)) * pg,
				uint64(pick(4)+1) * pg,
				uint64(cap.MemRW | cap.RightShare),
			} {
				if mem.Write64(off+phys.Addr(8*w), v) != nil {
					break
				}
			}
			_ = mem.Write64(r.base+RingOffSQTail, tail+1)
		case 18:
			// Ring the doorbell: a round of its own under the
			// destructive-family entry, against whatever state ops 16/17
			// (and every revoke/kill in between) left behind.
			d := randDomain()
			if _, err := m.RingFlush(d); err != nil {
				delete(rings, d)
			}
		case 19:
			// Revoke burst: back-to-back detach→retire cycles, the
			// destructive tail's hot path. Arbitrary nodes from
			// arbitrary callers — most are denied, the rest cascade.
			for n := pick(3) + 1; n > 0; n-- {
				_ = m.Revoke(randDomain(), randNode())
			}
		case 20:
			// Create+share+revoke churn: a subtree is born and torn down
			// inside one op, so limbo records see maximum turnover.
			if d, err := m.CreateDomain(randDomain(), "churn"); err == nil {
				domains = append(domains, d)
				if id, err := m.Share(InitialDomain, randNode(), d, randRegion(), cap.MemRW|cap.RightShare, cap.CleanFlushTLB); err == nil {
					_ = m.Revoke(InitialDomain, id)
				}
			}
		case 21:
			// Revocation interleaved with a ring drain.
			_ = m.Revoke(randDomain(), randNode())
			d := randDomain()
			if _, err := m.RingFlush(d); err != nil {
				delete(rings, d)
			}
		case 22:
			// A burst of doorbells: every registered owner flushes, in
			// owner order. One operand byte (once a worker count) is
			// still consumed, so the committed corpus decodes as it
			// always did.
			next()
			var owners []DomainID
			for d := range rings {
				owners = append(owners, d)
			}
			sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
			if len(owners) == 0 {
				break
			}
			for _, d := range owners {
				if _, err := m.RingFlush(d); err != nil {
					delete(rings, d)
				}
			}
		case 23:
			// Migration pipeline: snapshot whatever domain the stream
			// points at (most refuse — shared memory, active cores,
			// rings, dom0 itself) and restore the survivors on the peer
			// monitor. Every error is tolerated; what must hold is that
			// a failed restore leaves no half-state and a departed
			// source scrubs (both trace-checked on the source world).
			snap, err := m.SnapshotDomain(randDomain())
			if err != nil {
				break
			}
			if peer == nil {
				peer = bootWorld(tb, BackendVTX)
			}
			if id, err := peer.RestoreDomain(InitialDomain, dom0MemNode(tb, peer), nil, snap); err == nil && next()%2 == 0 {
				_ = peer.ForceKill(id)
			}
		case 24:
			// Fast switch away: pair the domain installed on a core with
			// dom0 and switch to dom0 over VMFUNC (vtx only), so the core
			// stays resident for the domain it left — a core a later
			// revocation of that domain's memory must interrupt.
			c := phys.CoreID(pick(2))
			cur, ok := m.Current(c)
			if !ok || cur == InitialDomain {
				break
			}
			_ = m.SetEntry(InitialDomain, InitialDomain, fastSwitchEntry*pg)
			if m.RegisterFastPath(cur, cur, InitialDomain, c) == nil {
				_ = m.FastSwitch(c, InitialDomain)
			}
		}
		checkIsolationInvariants(tb, m, domains)
	}
	// Every destructive entry finishes what it publishes.
	if limbo := m.space.LimboNodes(); limbo != 0 {
		tb.Fatalf("%d capability records detached and never released", limbo)
	}
}

// fastSwitchEntry is the page op 24 points dom0's entry at: below the
// tenants op 14 plants.
const fastSwitchEntry = 599

// fastSwitchSeed is a program that dispatches a vCPU, fast-switches
// its core away from it and then revokes its code page: create domain 2
// (op 0); share core 0 with it (op 13; node index 4, after dom0's four
// roots); plant it as a yielding tenant on page 610, its code granted
// from dom0's memory root with a TLB-flushing cleanup (op 14; node
// index 5); run its vCPU on core 0 until it halts (op 15); fast-switch
// core 0 to dom0 (op 24); dom0 revokes the grant (op 6). The revoke's
// round must interrupt core 0, which still holds the tenant's
// translation of the page.
var fastSwitchSeed = []byte{0, 0, 13, 0, 1, 14, 1, 10, 1, 0, 15, 24, 0, 6, 0, 5}

// FuzzMonitorAPI is the native fuzz entry point. Seed corpus lives in
// testdata/fuzz/FuzzMonitorAPI; CI runs a short -fuzz smoke on top of
// the corpus replay that ordinary `go test` already performs. Every
// run executes against a traced world with the online invariant
// checker as a second oracle; a violating input dumps its trace to
// $TYCHE_TRACE_DIR for the nightly job to upload.
func FuzzMonitorAPI(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add(fastSwitchSeed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip("bounded input size")
		}
		m, ck := bootTracedWorld(t, BackendVTX)
		driveMonitorOps(t, m, data)
		assertTraceClean(t, m, ck)
	})
}

// TestFastSwitchSeed: fastSwitchSeed does what it says — one fast
// switch, and a revocation round that targets core 0 and empties it of
// the tenant's translation — so the stale-translation oracle it feeds
// is exercised, not skipped.
func TestFastSwitchSeed(t *testing.T) {
	m, ck := bootTracedWorld(t, BackendVTX)
	driveMonitorOps(t, m, fastSwitchSeed)
	assertTraceClean(t, m, ck)
	if n := m.Stats().FastSwitches; n != 1 {
		t.Fatalf("%d fast switches, want 1", n)
	}
	var targeted bool
	for _, ev := range m.Machine().Tracer().Events() {
		targeted = targeted || ev.Kind == trace.KShootdown && ev.Domain == 2 && ev.Aux&1 != 0
	}
	if !targeted {
		t.Fatal("no round for the tenant targeted core 0")
	}
	for _, tr := range m.Machine().Core(0).AppendTranslations(nil) {
		if tr.Page == 610 {
			t.Fatalf("core 0 still caches the revoked page: %+v", tr)
		}
	}
}

// TestMonitorAPIFuzz keeps long pseudo-random op streams in the plain
// test suite (the fuzz target only replays its corpus under `go test`).
func TestMonitorAPIFuzz(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(string(rune('a'+seed)), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, 1600)
			rng.Read(data)
			m, ck := bootTracedWorld(t, BackendVTX)
			driveMonitorOps(t, m, data)
			assertTraceClean(t, m, ck)
		})
	}
}

// checkIsolationInvariants cross-checks the capability space against
// the hardware filters the backend programmed. On vtx the check is
// exact (checkFiltersExact); a pmp world keeps the sampled read check,
// since a refused grant still takes effect there (ROADMAP item 1).
func checkIsolationInvariants(t testing.TB, m *Monitor, domains []DomainID) {
	t.Helper()
	if m.bk.Name() == "vtx" {
		checkFiltersExact(t, m, domains)
	} else {
		checkFiltersSampled(t, m, domains)
	}
	// Monitor self-protection must survive everything.
	mon := m.MonitorRegion()
	for _, id := range domains {
		if d, err := m.Domain(id); err != nil || d.State() == StateDead {
			continue
		}
		if m.CheckAccess(id, mon.Start, cap.RightsNone) {
			t.Fatalf("domain %d gained access to the monitor region", id)
		}
	}
	// Refcount audit: counts equal distinct owners at sampled points.
	for _, rc := range m.RefCounts() {
		if rc.Count != len(rc.Owners) {
			t.Fatalf("refcount %d != owners %v", rc.Count, rc.Owners)
		}
	}
	if err := checkStaleTranslations(m); err != nil {
		t.Fatal(err)
	}
}

// cachedAt names one translation cache entry: a core, an ASID, a page.
type cachedAt struct {
	core       phys.CoreID
	asid, page uint64
}

// flushPromise is what a check learned about a translation while its
// domain still had the access it caches: the owner, and a capability
// of the owner's covering the page whose revocation must flush TLBs
// (0 when none does — then a stale copy is the delegator's choice, the
// window C13 measures).
type flushPromise struct {
	owner DomainID
	node  cap.NodeID
}

// staleMemos holds each monitor's promises from its previous check.
var staleMemos sync.Map // *Monitor -> map[cachedAt]flushPromise

// checkStaleTranslations is the stale-translation oracle: no valid TLB
// slot or MRU way on any core grants its domain more than the
// capability space grants it now, unless the access was lost without a
// flush being owed — the capability behind it did not ask for one, or
// it still exists (its owner granted the page away, which suspends
// without a cleanup). A translation is judged by what the previous
// check saw: that its domain then held the page under a capability
// whose revocation flushes. It is independent of the shootdown rounds,
// so a round that leaves out a resident core fails here (rangebug).
func checkStaleTranslations(m *Monitor) error {
	owners := map[uint64]DomainID{} // ASID -> live domain
	for _, id := range m.Domains() {
		if ctx, err := m.bk.Context(cap.OwnerID(id), 0); err == nil {
			owners[ctx.ASID] = id
		}
	}
	prev, _ := staleMemos.Load(m)
	old, _ := prev.(map[cachedAt]flushPromise)
	seen := map[cachedAt]flushPromise{}
	defer staleMemos.Store(m, seen)
	var trs []hw.Translation
	for _, c := range m.Machine().Cores {
		trs = c.AppendTranslations(trs[:0])
		ctx := c.Context()
		for _, tr := range trs {
			if tr.MRU && (ctx == nil || tr.ASID != ctx.ASID || tr.Gen != ctx.Filter.Generation()) {
				continue // a way that can never hit again
			}
			at := cachedAt{c.ID(), tr.ASID, tr.Page}
			p, known := old[at]
			if id, ok := owners[tr.ASID]; ok {
				p.owner, known = id, true
			}
			if !known {
				continue // a domain that died before any check saw it
			}
			a := phys.Addr(tr.Page) * pg
			var holds hw.Perm
			for _, r := range []struct {
				p hw.Perm
				r cap.Rights
			}{{hw.PermR, cap.RightRead}, {hw.PermW, cap.RightWrite}, {hw.PermX, cap.RightExec}} {
				if m.space.CheckMemAccess(cap.OwnerID(p.owner), a, r.r) {
					holds |= r.p
				}
			}
			if tr.Perm&^holds == 0 {
				p.node = 0
				for _, n := range m.space.OwnerNodes(cap.OwnerID(p.owner)) {
					if n.Resource.Kind == cap.ResMemory && n.Resource.Mem.Contains(a) && n.Cleanup&cap.CleanFlushTLB != 0 {
						p.node = n.ID
						break
					}
				}
				seen[at] = p
				continue
			}
			if _, _, _, err := m.space.NodeOwners(p.node); p.node != 0 && err != nil {
				return fmt.Errorf("%v still translates page %d for domain %d with %v, but it holds %v: capability %d, revoked, owed a TLB flush",
					c.ID(), tr.Page, p.owner, tr.Perm, holds, p.node)
			}
			seen[at] = p
		}
	}
	return nil
}

// checkFiltersSampled compares read rights at every 37th page of the
// first 1,200 with the capability space.
func checkFiltersSampled(t testing.TB, m *Monitor, domains []DomainID) {
	t.Helper()
	for _, id := range domains {
		d, err := m.Domain(id)
		if err != nil || d.State() == StateDead {
			continue
		}
		ctx, err := m.bk.Context(cap.OwnerID(id), 0)
		if err != nil {
			continue
		}
		for pgN := 0; pgN < 1200; pgN += 37 {
			a := phys.Addr(pgN) * pg
			hwRead := ctx.Filter.Check(a, hw.PermR)
			capRead := m.CheckAccess(id, a, cap.RightRead)
			if hwRead != capRead {
				t.Fatalf("domain %d at %v: hardware=%v capability=%v", id, a, hwRead, capRead)
			}
		}
	}
}

// checkFiltersExact holds every installed filter to a page-by-page model
// of the capability space, on every page of the machine: each live
// domain's EPT to the union of its memory grants, each device's IOMMU
// context to the union of its DMA holders' grants without execute. The
// model is built grant by grant, independently of the backends'
// flattening, so a resync that skips a changed extent or publishes a
// stale one fails here.
func checkFiltersExact(t testing.TB, m *Monitor, domains []DomainID) {
	t.Helper()
	model := make([]hw.Perm, m.Machine().Mem.Size()>>phys.PageShift)
	var grants []cap.MemoryGrant
	build := func(strip hw.Perm, owners ...cap.OwnerID) {
		clear(model)
		for _, o := range owners {
			grants = m.space.AppendOwnerMemoryGrants(grants[:0], o)
			for _, g := range grants {
				var p hw.Perm
				if g.Rights.Has(cap.RightRead) {
					p |= hw.PermR
				}
				if g.Rights.Has(cap.RightWrite) {
					p |= hw.PermW
				}
				if g.Rights.Has(cap.RightExec) {
					p |= hw.PermX
				}
				for pgN := g.Region.Start.Page(); pgN < g.Region.End.Page(); pgN++ {
					model[pgN] |= p &^ strip
				}
			}
		}
	}
	compare := func(what string, f hw.AccessFilter) {
		t.Helper()
		for pgN, want := range model {
			if got := f.Lookup(phys.Addr(pgN) * pg); got != want {
				t.Fatalf("%s page %d: installed %v, capability space %v", what, pgN, got, want)
			}
		}
	}
	for _, id := range domains {
		d, err := m.Domain(id)
		if err != nil || d.State() == StateDead {
			continue
		}
		ctx, err := m.bk.Context(cap.OwnerID(id), 0)
		if err != nil {
			t.Fatalf("live domain %d has no context: %v", id, err)
		}
		build(hw.PermNone, cap.OwnerID(id))
		compare(fmt.Sprintf("domain %d", id), ctx.Filter)
	}
	for _, dev := range m.Machine().DeviceIDs() {
		f := m.Machine().IOMMU.ContextOf(dev)
		if f == nil {
			t.Fatalf("device %v has no IOMMU context", dev)
		}
		build(hw.PermX, m.space.AppendDeviceDMAHolders(nil, dev)...)
		compare(fmt.Sprintf("device %v", dev), f)
	}
}
