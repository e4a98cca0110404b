package bench

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/attest"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/phys"
)

func init() {
	register(Experiment{
		ID:    "C7",
		Title: "Two-tier attestation: cost vs resource-enumeration size",
		Paper: "§3.4 two-tier protocol; reports enumerate resources and reference counts",
		Gates: []Gate{
			{"attest-at-most-linear", "{shares}_records_added / {shares}_shares", eq(1), "§3.4: reports enumerate resources: one fixed-size record per unmergeable share"},
			{"verify-succeeds-at-scale", "reports_verified / reports", eq(1), "every honest report verifies under the session key"},
		},
	}, runC7)
}

// runC7 sweeps the number of resources a domain holds and attests it
// at each size. Shape: the report enumerates exactly one record per
// unmergeable share — so the signed payload, fixed-size records after
// a fixed header, grows linearly with what the domain holds — every
// honest report verifies under the session key, and the boot
// (tier-one) quote is checked once per session, not per report. What
// signing and verifying cost the host (core.attest_us,
// attest.verify_domain_us, core.boot_quote_us) is benchmark/'s
// question.
func runC7(cfg Config, res *Result) error {
	res.Columns = []string{"shares", "resources", "record bytes", "verified"}
	sizes := []int{1, 8, 32, 128}
	if cfg.Quick {
		sizes = []int{1, 8, 32}
	}
	w, err := newWorld(cfg, defaultWorldOpts())
	if err != nil {
		return err
	}
	verifier := attest.NewVerifier(w.rot.EndorsementKey(), core.DefaultIdentity)
	bootNonce := []byte("c7-boot")
	quote, err := w.mon.BootQuote(bootNonce)
	if err != nil {
		return err
	}
	sess, err := verifier.NewSession(quote, bootNonce)
	if err != nil {
		return err
	}
	var verified, reports int
	base := phys.Addr(4 << 20)
	for _, n := range sizes {
		dom, err := w.cl.Load(addImage("c7", 1), loadOn(1))
		if err != nil {
			return err
		}
		nonce := []byte("c7")
		bare, err := dom.Attest(nonce)
		if err != nil {
			return err
		}
		// Grow the enumeration with shares that cannot merge.
		for i := 0; i < n; i++ {
			if err := shareUnmergeable(w, dom.ID(), base, i); err != nil {
				return err
			}
		}
		iters := 20
		if cfg.Quick {
			iters = 5
		}
		ok := 0
		var rep *core.Report
		for i := 0; i < iters; i++ {
			rep, err = dom.Attest(nonce)
			if err != nil {
				return err
			}
			if sess.VerifyDomain(rep, nonce) == nil {
				ok++
			}
		}
		verified += ok
		reports += iters
		tag := fmt.Sprintf("s%d", n)
		res.sweep("shares", tag)
		res.metric(tag+"_shares", float64(n))
		res.metric(tag+"_records_added", float64(len(rep.Resources)-len(bare.Resources)))
		res.row(fmtU(uint64(n)), fmtU(uint64(len(rep.Resources))),
			fmtU(uint64(reportRecordBytes*len(rep.Resources))),
			fmt.Sprintf("%d/%d", ok, iters))
		// Teardown: give the next round a clean slate.
		if err := w.mon.KillDomain(core.InitialDomain, dom.ID()); err != nil {
			return err
		}
		base += phys.Addr(uint64(2*n+2) * phys.PageSize)
	}

	res.metric("reports_verified", float64(verified))
	res.metric("reports", float64(reports))
	res.note("tier-one boot verification is paid once per session: one quote, %d reports; %d signed bytes per record", reports, reportRecordBytes)
	return nil
}

// reportRecordBytes is what one enumerated resource adds to the signed
// report message after its fixed header (core's canonical encoding:
// kind, region start and end, core, device, rights, reference count).
const reportRecordBytes = 4 + 8 + 8 + 8 + 8 + 4 + 8
