package attest

import (
	"errors"
	"testing"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/tpm"
)

const pg = phys.PageSize

type worldT struct {
	mon *core.Monitor
	rot *tpm.TPM
	cl  *libtyche.Client
}

func boot(t testing.TB) *worldT {
	t.Helper()
	mach, err := hw.NewMachine(hw.Config{MemBytes: 16 << 20, NumCores: 4, IOMMUAllowByDefault: true})
	if err != nil {
		t.Fatal(err)
	}
	rot, err := tpm.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	mon, err := core.Boot(core.BootConfig{Machine: mach, TPM: rot})
	if err != nil {
		t.Fatal(err)
	}
	cl := libtyche.New(mon, core.InitialDomain)
	if err := cl.AutoHeap(16); err != nil {
		t.Fatal(err)
	}
	return &worldT{mon: mon, rot: rot, cl: cl}
}

func haltImage(name string) *image.Image {
	a := hw.NewAsm()
	a.Hlt()
	return image.NewProgram(name, a.MustAssemble(0))
}

func TestBootVerification(t *testing.T) {
	w := boot(t)
	v := NewVerifier(w.rot.EndorsementKey(), core.DefaultIdentity)
	nonce := []byte("n1")
	q, err := w.mon.BootQuote(nonce)
	if err != nil {
		t.Fatal(err)
	}
	key, err := v.VerifyBoot(q, nonce)
	if err != nil {
		t.Fatal(err)
	}
	if !key.Equal(w.mon.AttestationKey()) {
		t.Fatal("bound key mismatch")
	}
	// Stale nonce rejected.
	if _, err := v.VerifyBoot(q, []byte("other")); !errors.Is(err, ErrStaleNonce) {
		t.Fatalf("stale: %v", err)
	}
	// Untrusted monitor identity rejected.
	v2 := NewVerifier(w.rot.EndorsementKey(), []byte("some other monitor"))
	if _, err := v2.VerifyBoot(q, nonce); !errors.Is(err, ErrUntrustedMonitor) {
		t.Fatalf("untrusted: %v", err)
	}
	// Wrong EK rejected.
	otherTPM, _ := tpm.New(nil)
	v3 := NewVerifier(otherTPM.EndorsementKey(), core.DefaultIdentity)
	if _, err := v3.VerifyBoot(q, nonce); err == nil {
		t.Fatal("quote verified under wrong EK")
	}
}

func TestDomainVerificationAndPolicies(t *testing.T) {
	w := boot(t)
	opts := libtyche.DefaultLoadOptions()
	opts.Cores = []phys.CoreID{1}
	opts.ExclusiveCores = true
	img := haltImage("service")
	dom, err := w.cl.NewConfidentialVM(img, []phys.CoreID{1}, libtyche.DefaultLoadOptions())
	if err != nil {
		t.Fatal(err)
	}

	v := NewVerifier(w.rot.EndorsementKey(), core.DefaultIdentity)
	bootNonce := []byte("bn")
	q, err := w.mon.BootQuote(bootNonce)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := v.NewSession(q, bootNonce)
	if err != nil {
		t.Fatal(err)
	}

	nonce := []byte("dn")
	rep, err := dom.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.VerifyDomain(rep, nonce); err != nil {
		t.Fatal(err)
	}
	if err := sess.VerifyDomain(rep, []byte("replayed")); !errors.Is(err, ErrStaleNonce) {
		t.Fatalf("replay: %v", err)
	}
	// A report signed by a different monitor key fails.
	other := boot(t)
	otherDom, err := other.cl.NewConfidentialVM(haltImage("imposter"), []phys.CoreID{1}, libtyche.DefaultLoadOptions())
	if err != nil {
		t.Fatal(err)
	}
	otherRep, err := otherDom.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.VerifyDomain(otherRep, nonce); !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("foreign monitor: %v", err)
	}

	// Policies.
	if err := RequireSealed(rep); err != nil {
		t.Fatal(err)
	}
	want, err := img.Measurement(dom.Base())
	if err != nil {
		t.Fatal(err)
	}
	if err := RequireMeasurement(rep, want); err != nil {
		t.Fatal(err)
	}
	if err := RequireMeasurement(rep, tpm.Measure([]byte("evil"))); !errors.Is(err, ErrPolicy) {
		t.Fatalf("wrong measurement accepted: %v", err)
	}
	if err := RequireExclusiveMemory(rep); err != nil {
		t.Fatal(err)
	}
	if err := RequireExclusiveCore(rep); err != nil {
		t.Fatal(err)
	}
}

func TestControlledSharingPolicies(t *testing.T) {
	w := boot(t)
	// Build two communicating domains + one interloper.
	mk := func(name string) *libtyche.Domain {
		opts := libtyche.DefaultLoadOptions()
		opts.Cores = []phys.CoreID{1}
		opts.Seal = false
		d, err := w.cl.Load(haltImage(name), opts)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a := mk("a")
	b := mk("b")
	interloper := mk("c")

	// dom0 shares a buffer with A and B each... to get an A<->B shared
	// region at refcount 2, A must receive then share to B — dom0
	// builds it by granting to A, then A shares to B.
	buf, err := w.cl.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	var heapNode cap.NodeID
	for _, n := range w.mon.OwnerNodes(core.InitialDomain) {
		if n.Resource.Kind == cap.ResMemory && n.Resource.Mem.ContainsRegion(buf) {
			heapNode = n.ID
		}
	}
	aNode, err := w.mon.Grant(core.InitialDomain, heapNode, a.ID(), cap.MemResource(buf), cap.MemRW|cap.RightShare, cap.CleanZero)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.mon.Share(a.ID(), aNode, b.ID(), cap.MemResource(buf), cap.MemRW, cap.CleanZero); err != nil {
		t.Fatal(err)
	}

	repA, _ := w.mon.Attest(a.ID(), []byte("n"))
	repB, _ := w.mon.Attest(b.ID(), []byte("n"))
	repC, _ := w.mon.Attest(interloper.ID(), []byte("n"))

	// A's shared region is covered by B: policy holds.
	if err := RequireSharedOnlyWith(repA, repB); err != nil {
		t.Fatal(err)
	}
	if got := SharedRegions(repA); len(got) != 1 || got[0] != buf {
		t.Fatalf("shared regions = %v", got)
	}
	// Against the interloper only: violation.
	if err := RequireSharedOnlyWith(repA, repC); !errors.Is(err, ErrPolicy) {
		t.Fatalf("unknown sharer accepted: %v", err)
	}
	// Exclusive-memory policy fails for A unless the buffer is allowed.
	if err := RequireExclusiveMemory(repA); !errors.Is(err, ErrPolicy) {
		t.Fatalf("shared region passed exclusivity: %v", err)
	}
	if err := RequireExclusiveMemory(repA, buf); err != nil {
		t.Fatal(err)
	}
	// Unsealed domains fail RequireSealed.
	if err := RequireSealed(repA); !errors.Is(err, ErrPolicy) {
		t.Fatalf("unsealed accepted: %v", err)
	}
}

// SharedRegions returns the attested memory regions with refcount > 1.
func SharedRegions(r *core.Report) []phys.Region {
	var out []phys.Region
	for _, rec := range r.Resources {
		if rec.Resource.Kind == cap.ResMemory && rec.RefCount > 1 {
			out = append(out, rec.Resource.Mem)
		}
	}
	return phys.NormalizeRegions(out)
}
