package tyche_test

import (
	"testing"

	tyche "github.com/tyche-sim/tyche"
)

func TestPlatformOptionsAndHelpers(t *testing.T) {
	p, err := tyche.NewPlatform(tyche.Options{
		MemBytes: 16 << 20,
		Cores:    2,
		Devices: []tyche.DeviceSpec{
			{Name: "gpu", Class: "accelerator"},
			{Name: "nic", Class: "nic"},
			{Name: "disk", Class: "storage"},
			{Name: "misc", Class: ""},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Machine.Devices) != 4 {
		t.Fatalf("devices = %d", len(p.Machine.Devices))
	}
	if p.Cycles() == 0 {
		t.Fatal("no cycles elapsed after boot")
	}
	// HostDom0 puts dom0 on another core for invocations there.
	if err := p.HostDom0(1); err != nil {
		t.Fatal(err)
	}
	if cur, ok := p.Monitor.Current(1); !ok || cur != tyche.InitialDomain {
		t.Fatalf("core 1 current = %d, %v", cur, ok)
	}
	img := addTwoImage("svc2")
	opts := tyche.DefaultLoadOptions()
	opts.Cores = []tyche.CoreID{1}
	dom, err := p.Dom0.NewEnclave(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := dom.Invoke(1, 10_000, 8); err != nil || got != 10 {
		t.Fatalf("invoke on hosted core = %d, %v", got, err)
	}
	// The standalone Verifier helper validates this platform's chain.
	v := p.Verifier()
	q, err := p.Monitor.BootQuote([]byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyBoot(q, []byte("n")); err != nil {
		t.Fatal(err)
	}
}

func TestPlatformMemoryEncryptionOption(t *testing.T) {
	// The public API reaches the MKTME engine through the machine.
	p, err := tyche.NewPlatform(tyche.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Monitor.Machine().Crypto != nil {
		t.Fatal("encryption on by default")
	}
}

func TestPlatformCustomIdentity(t *testing.T) {
	id := []byte("my audited monitor v2")
	p, err := tyche.NewPlatform(tyche.Options{MonitorIdentity: id})
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Monitor.Identity()) != string(id) {
		t.Fatal("identity not honoured")
	}
	// A verifier trusting only the default identity rejects this boot.
	v := tyche.NewVerifier(p.TPM.EndorsementKey(), tyche.DefaultMonitorIdentity)
	q, err := p.Monitor.BootQuote([]byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.VerifyBoot(q, []byte("n")); err == nil {
		t.Fatal("custom identity verified against default trust set")
	}
}

func TestPlatformBadOptions(t *testing.T) {
	if _, err := tyche.NewPlatform(tyche.Options{MemBytes: 100}); err == nil {
		t.Fatal("unaligned memory accepted")
	}
}
