// The Figure-2 scenario as a runnable program: a customer processes
// sensitive data through an untrusted SaaS provider. The SaaS
// application and a crypto-engine enclave share an attested buffer, a
// GPU I/O domain carries the encrypted result out, and the provider —
// who controls the hypervisor — never sees anything but ciphertext and
// public keys. Key provisioning uses real X25519 bound to the enclave's
// attestation via report data.
package main

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"log"
	"time"

	tyche "github.com/tyche-sim/tyche"
	"github.com/tyche-sim/tyche/internal/dist"
	"github.com/tyche-sim/tyche/internal/fleet"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	p, err := tyche.NewPlatform(tyche.Options{})
	if err != nil {
		return err
	}
	fmt.Println(p)
	mon := p.Monitor

	// --- The provider deploys the crypto engine (enclave with a
	// private key page) and the SaaS app (enclave with a buffer it will
	// share with the engine).
	//
	// Engine service: XOR the length-prefixed buffer at [r2] with the
	// 32-byte key one page above its text, in place.
	engineProgram := func(base tyche.Addr) *tyche.Asm {
		keyBase := base + tyche.PageSize
		a := tyche.NewAsm()
		a.Ld(3, 2, 0) // n
		a.Movi(4, 0)  // i
		a.Movi(5, uint32(keyBase))
		a.Label("loop")
		a.Jlt(4, 3, "body")
		a.Jmp("done")
		a.Label("body")
		a.Add(6, 2, 4)
		a.Ldb(7, 6, 8)
		a.Movi(8, 31)
		a.And(9, 4, 8)
		a.Add(10, 5, 9)
		a.Ldb(11, 10, 0)
		a.Xor(7, 7, 11)
		a.Stb(6, 8, 7)
		a.Addi(4, 4, 1)
		a.Jmp("loop")
		a.Label("done")
		a.Movi(0, 3) // return
		a.Mov(1, 3)
		a.Vmcall()
		a.Hlt()
		return a
	}
	// Assembled against the engine's final load address.
	engineImg, err := p.Dom0.BuildAt("crypto-engine", engineProgram,
		func(img *tyche.Image) { img.WithBSS(".key", tyche.PageSize) })
	if err != nil {
		return err
	}

	engineOpts := tyche.DefaultLoadOptions()
	engineOpts.Cores = []tyche.CoreID{0}
	engineOpts.Seal = false // it still receives the mailbox + channel
	engine, err := p.Dom0.Load(engineImg, engineOpts)
	if err != nil {
		return err
	}
	keySeg, _ := engine.SegmentRegion(".key")

	// Provisioning mailbox: provider-relayed, so only public data may
	// cross it.
	mailbox, err := p.Dom0.OpenChannel(engine.ID(), 1, tyche.CleanZero)
	if err != nil {
		return err
	}

	// SaaS app: its code calls the engine with the shared buffer's
	// address in r2, then halts.
	appImg, err := p.Dom0.BuildAt("saas-app", func(base tyche.Addr) *tyche.Asm {
		a := tyche.NewAsm()
		a.Movi(0, 2) // monitor call: call domain
		a.Movi(1, uint32(engine.ID()))
		a.Movi(2, uint32(base+tyche.PageSize)) // .chan, one page above the text
		a.Vmcall()
		a.Hlt()
		return a
	}, func(img *tyche.Image) {
		img.WithBSS(".chan", tyche.PageSize) // confidential: only the app, until it shares
	})
	if err != nil {
		return err
	}

	appOpts := tyche.DefaultLoadOptions()
	appOpts.Cores = []tyche.CoreID{0}
	appOpts.Seal = false
	app, err := p.Dom0.Load(appImg, appOpts)
	if err != nil {
		return err
	}
	chanSeg, _ := app.SegmentRegion(".chan")
	// The app shares its exclusively-owned buffer with the engine —
	// exactly two domains, which the refcount proves.
	chanNode, _ := app.SegmentNode(".chan")
	if _, err := mon.Share(app.ID(), chanNode, engine.ID(),
		tyche.MemResource(chanSeg), tyche.MemRW, tyche.CleanZero); err != nil {
		return err
	}
	if _, err := engine.Seal(); err != nil {
		return err
	}
	if _, err := app.Seal(); err != nil {
		return err
	}
	fmt.Println("deployed: crypto engine (sealed), saas app (sealed), shared buffer at refcount", channelRefs(p, chanSeg))

	// --- Engine generates its X25519 identity and binds it to its
	// attestation.
	x := ecdh.X25519()
	enginePriv, err := x.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	enginePub := enginePriv.PublicKey().Bytes()
	if err := mon.SetReportData(engine.ID(), engine.ID(), tyche.Measure(enginePub)); err != nil {
		return err
	}
	if err := mailbox.WriteAs(engine.ID(), 0, enginePub); err != nil {
		return err
	}

	// --- The customer verifies everything before sending a single
	// byte: boot quote, both reports, offline measurement, and that the
	// mailbox key is the attested one.
	sess, err := p.VerifySession([]byte("boot"))
	if err != nil {
		return err
	}
	nonce := []byte("saas")
	engRep, err := engine.Attest(nonce)
	if err != nil {
		return err
	}
	appRep, err := app.Attest(nonce)
	if err != nil {
		return err
	}
	if err := sess.VerifyDomain(engRep, nonce); err != nil {
		return err
	}
	if err := sess.VerifyDomain(appRep, nonce); err != nil {
		return err
	}
	wantEng, err := engineImg.Measurement(engine.Base())
	if err != nil {
		return err
	}
	if err := tyche.RequireMeasurement(engRep, wantEng); err != nil {
		return err
	}
	if err := tyche.RequireSealed(engRep); err != nil {
		return err
	}
	pub, err := mailbox.Read(0, 32)
	if err != nil {
		return err
	}
	if tyche.Measure(pub) != engRep.ReportData {
		return fmt.Errorf("mailbox key is NOT the attested one (MITM?)")
	}
	fmt.Println("customer verified: monitor, engine measurement, seal, attested key binding")

	// --- Key provisioning over X25519.
	customerPriv, err := x.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	if err := mailbox.WriteAs(tyche.InitialDomain, 64, customerPriv.PublicKey().Bytes()); err != nil {
		return err
	}
	peerBytes, err := mailbox.ReadAs(engine.ID(), 64, 32)
	if err != nil {
		return err
	}
	peerPub, err := x.NewPublicKey(peerBytes)
	if err != nil {
		return err
	}
	engineKey, err := enginePriv.ECDH(peerPub)
	if err != nil {
		return err
	}
	if err := mon.CopyInto(engine.ID(), keySeg.Start, engineKey); err != nil {
		return err
	}
	customerKey, err := customerPriv.ECDH(enginePriv.PublicKey())
	if err != nil {
		return err
	}
	fmt.Println("key provisioned into the engine's private page via X25519")

	// --- Data path: plaintext into the shared buffer, app calls the
	// engine, ciphertext comes back.
	plaintext := []byte("the provider relays everything and learns nothing")
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(plaintext)))
	if err := mon.CopyInto(app.ID(), chanSeg.Start, append(hdr[:], plaintext...)); err != nil {
		return err
	}
	if err := app.Launch(0); err != nil {
		return err
	}
	if _, err := mon.RunCore(0, 100_000); err != nil {
		return err
	}
	ciphertext, err := mon.CopyFrom(app.ID(), chanSeg.Start+8, uint64(len(plaintext)))
	if err != nil {
		return err
	}
	want := make([]byte, len(plaintext))
	for i := range plaintext {
		want[i] = plaintext[i] ^ customerKey[i%32]
	}
	if !bytes.Equal(ciphertext, want) {
		return fmt.Errorf("ciphertext mismatch")
	}
	fmt.Printf("engine encrypted %d bytes inside the enclave; customer decrypted them successfully\n", len(plaintext))

	// --- The compromised provider probes.
	if _, err := mon.CopyFrom(tyche.InitialDomain, keySeg.Start, 32); err == nil {
		return fmt.Errorf("BUG: provider read the key")
	}
	if _, err := mon.CopyFrom(tyche.InitialDomain, chanSeg.Start, 16); err == nil {
		return fmt.Errorf("BUG: provider read the data buffer")
	}
	fmt.Println("provider probes on the key page and data buffer: denied")
	fmt.Println("figure-2 pipeline complete")
	return fleetCoda()
}

// fleetCoda scales the scenario out: the same confidential-service
// shape deployed across a 3-node simulated datacenter under one
// control plane, served behind a load balancer, then live-migrated
// between nodes over an attested channel. A wire tap proves the
// migrating domain's state never crossed the provider's network in
// the clear: the tenant's code, which the snapshot carries byte for
// byte, is absent from every frame the wire carried.
func fleetCoda() error {
	fmt.Println("\n--- fleet: the same story across a simulated datacenter ---")
	f, err := fleet.New(fleet.Config{Nodes: 3, CoresPerNode: 3, MemBytes: 16 << 20, Spin: 25})
	if err != nil {
		return err
	}
	if err := f.Deploy(fleet.ServiceSpec{Name: "saas", Delta: 42}, 2); err != nil {
		return err
	}
	stats, err := f.Serve([]string{"saas"}, 200, 1)
	if err != nil {
		return err
	}
	fmt.Printf("deployed saas on 2 of 3 nodes (attested placements); served %d load-balanced requests\n", stats.Requests)

	pl := f.LB().Placements("saas")[0]
	to := -1
	hosts := f.LB().ReplicaNodes("saas")
	for i := range f.Nodes {
		if i != pl.Node && !hosts[i] {
			to = i
			break
		}
	}
	// The snapshot carries the tenant's code as raw bytes: had it
	// crossed unsealed, the code would be on the wire.
	code, err := f.Nodes[pl.Node].Mach.Mem.View(tyche.MakeRegion(pl.Base, 32))
	if err != nil {
		return err
	}
	wire := &dist.Wire{}
	wire.Tap()
	if err := f.Migrate("saas", pl.Node, to, wire); err != nil {
		return err
	}
	if len(wire.Taps) == 0 {
		return fmt.Errorf("BUG: migration crossed no tapped frame")
	}
	if wire.WireCarried(code) {
		return fmt.Errorf("BUG: migration snapshot crossed the provider's network in the clear")
	}
	fmt.Printf("live-migrated saas node%d -> node%d: blackout %v, snapshot sealed on the wire (provider saw only ciphertext)\n",
		pl.Node, to, time.Duration(f.Blackouts()[0]))
	if _, err := f.Serve([]string{"saas"}, 200, 1); err != nil {
		return err
	}
	audits, err := f.Audit()
	if err != nil {
		return err
	}
	for _, a := range audits {
		if a.SelfErr != nil || len(a.Flags) != 0 {
			return fmt.Errorf("fleet audit flagged %s: self=%v flags=%v", a.Node, a.SelfErr, a.Flags)
		}
	}
	fmt.Printf("fleet-wide verification: %d node digest chains verified by the control plane, all clean\n", len(audits))
	return nil
}

func channelRefs(p *tyche.Platform, region tyche.Region) int {
	max := 0
	for _, rc := range p.Monitor.RefCounts() {
		if rc.Region.Overlaps(region) && rc.Count > max {
			max = rc.Count
		}
	}
	return max
}
