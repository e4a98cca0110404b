package bench

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
)

// saasDeployment is the Figure 2/3 scenario built for real: an
// untrusted cloud provider (dom0) hosting a SaaS VM, which itself
// spawns a crypto-engine enclave, a SaaS application enclave, and a GPU
// I/O domain; the app shares one buffer with the crypto engine and one
// with the GPU, and the crypto engine shares a provisioning mailbox
// with dom0 (public data only).
type saasDeployment struct {
	w *world

	vm       *libtyche.Domain
	vmClient *libtyche.Client

	crypto *libtyche.Domain
	app    *libtyche.Domain
	gpuDom *libtyche.Domain

	cryptoImg, appImg, gpuImg *image.Image

	mailbox *libtyche.Channel // dom0 <-> crypto (pub keys, ciphertext)
	keySeg  phys.Region       // crypto-private symmetric key storage
	chanSeg phys.Region       // app <-> crypto data buffer
	gpuBuf  phys.Region       // app <-> gpu ciphertext buffer
	fbSeg   phys.Region       // gpu-private framebuffer
}

// saasCore is the core both the VM's children share.
const saasCore = phys.CoreID(1)

// buildSaaS assembles the deployment. The interpreted programs are
// real: the app's code performs the mediated call into the crypto
// engine, and the crypto engine's code XOR-encrypts the shared buffer
// with its provisioned key (a stand-in stream cipher; the key exchange
// uses real X25519 in the F2 experiment).
func buildSaaS(w *world) (*saasDeployment, error) {
	d := &saasDeployment{w: w}

	// 1. The provider loads the SaaS VM: sealed, with a private RWX
	// heap it will carve its children from, sharing cores 1-2 and
	// granting the GPU (device 0).
	vmImg := haltImage("saas-vm").WithHeap(".heap", 1024*phys.PageSize)
	vmOpts := loadOn(saasCore, 2)
	vmOpts.Devices = []phys.DeviceID{0}
	vmOpts.Seal = true
	vm, err := w.cl.Load(vmImg, vmOpts)
	if err != nil {
		return nil, fmt.Errorf("loading saas vm: %w", err)
	}
	d.vm = vm
	d.vmClient = vm.Client()
	heapRegion, _ := vm.SegmentRegion(".heap")
	heapNode, _ := vm.SegmentNode(".heap")
	if err := d.vmClient.SetHeap(heapNode, heapRegion); err != nil {
		return nil, err
	}

	// 2. Crypto engine enclave: .text (XOR service) + .key page. The
	// key page sits one page after the text by construction.
	cryptoImg, err := d.vmClient.BuildAt("crypto-engine", cryptoEngineProgram,
		func(img *image.Image) { img.WithBSS(".key", phys.PageSize) })
	if err != nil {
		return nil, err
	}
	d.cryptoImg = cryptoImg
	crypto, err := d.vmClient.Load(cryptoImg, loadOn(saasCore))
	if err != nil {
		return nil, fmt.Errorf("loading crypto engine: %w", err)
	}
	d.crypto = crypto
	d.keySeg, _ = crypto.SegmentRegion(".key")

	// 3. Provisioning mailbox from dom0 (the provider relays customer
	// traffic): refcount 2 with the crypto engine; only public data
	// crosses it.
	mailbox, err := w.cl.OpenChannel(crypto.ID(), 1, cap.CleanZero)
	if err != nil {
		return nil, fmt.Errorf("opening mailbox: %w", err)
	}
	d.mailbox = mailbox

	// 4. SaaS application enclave: its code calls the crypto engine
	// with the shared buffer's address in r2; segments .chan (to share
	// with crypto) and .gpubuf (to share with the GPU domain).
	appImg, err := d.vmClient.BuildAt("saas-app",
		func(base phys.Addr) *hw.Asm {
			chanBase := base + phys.PageSize // .text is one page
			a := hw.NewAsm()
			a.Movi(0, uint32(core.CallDomainCall))
			a.Movi(1, uint32(crypto.ID()))
			a.Movi(2, uint32(chanBase))
			a.Vmcall() // encrypt .chan in place; r1 = byte count
			a.Hlt()
			return a
		},
		func(img *image.Image) {
			img.WithBSS(".chan", phys.PageSize)
			img.WithBSS(".gpubuf", phys.PageSize)
		})
	if err != nil {
		return nil, err
	}
	d.appImg = appImg
	app, err := d.vmClient.Load(appImg, loadOn(saasCore))
	if err != nil {
		return nil, fmt.Errorf("loading saas app: %w", err)
	}
	d.app = app
	d.chanSeg, _ = app.SegmentRegion(".chan")
	d.gpuBuf, _ = app.SegmentRegion(".gpubuf")

	// 5. GPU I/O domain: private framebuffer + the GPU device granted
	// with DMA rights — the device can then reach exactly the domain's
	// memory (framebuffer + the buffer the app shares with it).
	d.gpuImg = haltImage("gpu-domain").WithBSS(".fb", 4*phys.PageSize)
	// No cores: an I/O domain runs on the device.
	gpuDom, err := d.vmClient.NewKernelCompartment(d.gpuImg, []phys.DeviceID{0}, loadOn())
	if err != nil {
		return nil, fmt.Errorf("loading gpu domain: %w", err)
	}
	d.gpuDom = gpuDom
	d.fbSeg, _ = gpuDom.SegmentRegion(".fb")

	// 6. Controlled sharing: the app shares .chan with the crypto
	// engine and .gpubuf with the GPU domain (both refcount 2).
	chanNode, _ := app.SegmentNode(".chan")
	if _, err := w.mon.Share(app.ID(), chanNode, crypto.ID(), cap.MemResource(d.chanSeg), cap.MemRW, cap.CleanZero); err != nil {
		return nil, fmt.Errorf("sharing app->crypto channel: %w", err)
	}
	gpuNode, _ := app.SegmentNode(".gpubuf")
	if _, err := w.mon.Share(app.ID(), gpuNode, gpuDom.ID(), cap.MemResource(d.gpuBuf), cap.MemRW, cap.CleanZero); err != nil {
		return nil, fmt.Errorf("sharing app->gpu buffer: %w", err)
	}

	// 7. Seal the children: resource sets frozen, attestations stable.
	for _, dom := range []*libtyche.Domain{d.crypto, d.app, d.gpuDom} {
		if _, err := dom.Seal(); err != nil {
			return nil, fmt.Errorf("sealing %d: %w", dom.ID(), err)
		}
	}
	return d, nil
}

// cryptoEngineProgram is the crypto engine's interpreted service: XOR
// the length-prefixed buffer at [r2] with the 32-byte key in the .key
// segment (text base + one page), in place, and return the byte count.
// Layout dependency: .text is the first (single-page) segment and .key
// the second — BuildAt and the image builders guarantee it.
func cryptoEngineProgram(base phys.Addr) *hw.Asm {
	keyBase := base + phys.PageSize
	a := hw.NewAsm()
	a.Ld(3, 2, 0)              // r3 = n (length prefix)
	a.Movi(4, 0)               // r4 = i
	a.Movi(5, uint32(keyBase)) // r5 = key base
	a.Label("loop")
	a.Jlt(4, 3, "body")
	a.Jmp("done")
	a.Label("body")
	a.Add(6, 2, 4) // r6 = chan + i
	a.Ldb(7, 6, 8) // r7 = data[i] (8-byte length prefix)
	a.Movi(8, 31)
	a.And(9, 4, 8) // r9 = i % 32
	a.Add(10, 5, 9)
	a.Ldb(11, 10, 0) // r11 = key[i%32]
	a.Xor(7, 7, 11)
	a.Stb(6, 8, 7) // data[i] ^= key byte
	a.Addi(4, 4, 1)
	a.Jmp("loop")
	a.Label("done")
	a.Movi(0, uint32(core.CallReturn))
	a.Mov(1, 3)
	a.Vmcall()
	a.Hlt()
	return a
}
