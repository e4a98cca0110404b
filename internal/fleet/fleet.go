// Package fleet is the simulated-datacenter control plane: it manages
// tens to hundreds of simulated machines (hw.Machine + core.Monitor
// pairs), each booted identically with a fleet agent enclave holding
// the node's NIC, and layers three services on top:
//
//   - Placement: a domain image is admitted onto a node as a
//     core.DomainSnapshot restore, attested against its expected
//     measurement (the control plane verifies the node's TPM-rooted
//     chain once, on the node's first placement, and every report
//     against the monitor key that chain proved), and registered with
//     the load balancer.
//   - Attested live migration: a running domain's complete isolation
//     state — memory, capability shape, entry configuration, queued
//     vCPU contexts — crosses between nodes over the dist.Conn attested
//     channel the two nodes' agents keep between them, is re-attested
//     on arrival, and departs the source with a forced crypto-erase
//     (core.Monitor.DepartKill). Blackout time — load-balancer freeze
//     to re-registration — is measured per migration.
//   - Fleet-wide runtime verification: every node's rv.Service ships
//     its hash-chained trace digests over its own attested channel to
//     a per-node check.RemoteVerifier on the control-plane machine;
//     Audit finalizes all chains and reports per-node flags.
//
// Tenant bases are allocated fleet-globally (bump-down from the top of
// dom0's heap, never reused). Every node boots the same memory layout,
// so a tenant's span is free on every other node by construction —
// which is what lets measurements and absolute jump targets survive
// migration and re-placement at the same physical base (see
// internal/core/migrate.go).
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/tyche-sim/tyche/internal/attest"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/dist"
	"github.com/tyche-sim/tyche/internal/fault"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/rv"
	"github.com/tyche-sim/tyche/internal/tpm"
	"github.com/tyche-sim/tyche/internal/trace/check"
)

const pg = phys.PageSize

// ErrNoCapacity reports that no live node can host a placement — a
// benign outcome during kill storms when replicas == live nodes.
var ErrNoCapacity = errors.New("fleet: no live node can host service")

// agentCore is the core every node's fleet agent enclave runs on; the
// remaining cores serve tenants.
const agentCore = phys.CoreID(1)

// agentBufPages sizes the agent enclave's registered RDMA buffer:
// digests with full audit streams must fit in one frame.
const agentBufPages = 256

// Config sizes a fleet. Zero values take the documented defaults.
type Config struct {
	// Nodes is the machine count (default 3).
	Nodes int
	// CoresPerNode is each machine's core count (default 4). Core 1 is
	// the agent core; all others serve tenants.
	CoresPerNode int
	// MemBytes is each machine's memory (default 32 MiB).
	MemBytes uint64
	// Backend selects the isolation backend (default vtx).
	Backend core.BackendKind
	// Seed parameterizes everything derived (nonces, fault schedules).
	Seed int64
	// Spin adds a per-request busy loop of this many iterations to
	// every service image (default 200), so serving throughput is
	// dominated by simulated core execution rather than host-side
	// bookkeeping.
	Spin int
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.CoresPerNode == 0 {
		c.CoresPerNode = 4
	}
	if c.MemBytes == 0 {
		c.MemBytes = 32 << 20
	}
	if c.Backend == "" {
		c.Backend = core.BackendVTX
	}
	if c.Spin == 0 {
		c.Spin = 200
	}
	return c
}

// Node is one simulated machine under control-plane management.
type Node struct {
	Index int
	Name  string
	Mach  *hw.Machine
	TPM   *tpm.TPM
	Mon   *core.Monitor
	CL    *libtyche.Client
	// Agent is the node's fleet agent enclave: it holds the NIC and
	// the registered RDMA buffer every attested channel of this node
	// runs over.
	Agent    *libtyche.Domain
	AgentImg *image.Image
	// SVC is the node's always-on runtime verification (nil only on
	// the control-plane machine, which runs none).
	SVC *rv.Service
	// Inj is the node's armed fault injector (nil until ArmKill).
	Inj *fault.Injector

	workers []phys.CoreID
	cores   chan phys.CoreID

	mu   sync.Mutex
	conn *dist.Conn      // digest channel to the control plane
	ep   *dist.Endpoint  // this node's side of the digest channel
	sess *attest.Session // the monitor key this node's TPM proved (session)

	failed atomic.Bool
}

// Workers returns the node's tenant-serving cores.
func (n *Node) Workers() []phys.CoreID {
	return append([]phys.CoreID(nil), n.workers...)
}

// Failed reports whether the control plane declared the node dead.
func (n *Node) Failed() bool { return n.failed.Load() }

// alive reports whether domain id still exists on the node.
func (n *Node) alive(id core.DomainID) bool {
	d, err := n.Mon.Domain(id)
	return err == nil && d.State() != core.StateDead
}

// acquireCore blocks until a serving core is free.
func (n *Node) acquireCore() phys.CoreID { return <-n.cores }

func (n *Node) releaseCore(c phys.CoreID) { n.cores <- c }

// ServiceSpec declares a deployable service. Delta is the service's
// response transform (reply = request + Delta); unique deltas per
// service make every response a cross-tenant integrity oracle.
type ServiceSpec struct {
	Name  string
	Delta uint32
}

// template is a service's golden image: a restore-ready snapshot at
// its fleet-global base plus the expected measurement.
type template struct {
	spec  ServiceSpec
	base  phys.Addr
	pages uint64
	snap  *core.DomainSnapshot
	meas  tpm.Digest
}

// Fleet is the control plane.
type Fleet struct {
	cfg   Config
	Nodes []*Node

	// cp is the control-plane machine hosting the digest-channel
	// endpoints and the per-node remote verifiers.
	cp   *Node
	cpMu sync.Mutex // serializes receives into the CP's shared buffer
	vers []*check.RemoteVerifier

	lb *LoadBalancer

	baseMu   sync.Mutex
	nextBase phys.Addr
	tmpls    map[string]*template

	nonceMu sync.Mutex
	nonce   uint64

	// pairs holds the kept node-to-node migration channels by
	// (lower, higher) node index (migrate.go).
	pairMu sync.Mutex
	pairs  map[[2]int]*pairChannel

	blackMu   sync.Mutex
	blackouts []uint64 // nanoseconds per completed migration

	errMu    sync.Mutex
	firstErr error
}

// New boots the fleet: cfg.Nodes identical machines plus the
// control-plane machine, runtime verification attached per node, and
// one attested digest channel per node to the control plane.
func New(cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.CoresPerNode < 2 {
		return nil, fmt.Errorf("fleet: need at least 2 cores per node (agent + worker)")
	}
	f := &Fleet{
		cfg:   cfg,
		lb:    NewLoadBalancer(),
		tmpls: make(map[string]*template),
		pairs: make(map[[2]int]*pairChannel),
	}
	for i := 0; i < cfg.Nodes; i++ {
		n, err := f.bootNode(i, fmt.Sprintf("node%d", i), cfg.CoresPerNode, cfg.MemBytes, true)
		if err != nil {
			return nil, fmt.Errorf("fleet: boot %s: %w", fmt.Sprintf("node%d", i), err)
		}
		f.Nodes = append(f.Nodes, n)
	}
	cp, err := f.bootNode(-1, "ctrl", 2, 16<<20, false)
	if err != nil {
		return nil, fmt.Errorf("fleet: boot control plane: %w", err)
	}
	f.cp = cp
	// The fleet-global tenant base allocator bumps down from the top of
	// the (identical) per-node heap; node-local allocations (the agent
	// enclave) happened at bring-up from the bottom.
	f.nextBase = f.Nodes[0].CL.Heap().Pool().End
	for _, n := range f.Nodes {
		if err := f.openDigestChannel(n); err != nil {
			return nil, fmt.Errorf("fleet: digest channel %s: %w", n.Name, err)
		}
	}
	// First pulse: every node reaches a quiescent point and ships its
	// bring-up digest, anchoring each hash chain.
	f.Pulse()
	return f, nil
}

// bootNode brings up one machine: monitor, runtime verification (nodes
// only), agent enclave on the agent core with the NIC and the RDMA
// buffer, and dom0 parked on every worker core.
func (f *Fleet) bootNode(index int, name string, cores int, memBytes uint64, verified bool) (*Node, error) {
	mach, err := hw.NewMachine(hw.Config{
		MemBytes:            memBytes,
		NumCores:            cores,
		PMPEntries:          16,
		IOMMUAllowByDefault: true,
		Devices:             []hw.DeviceConfig{{Name: "nic0", Class: hw.DevNIC}},
	})
	if err != nil {
		return nil, err
	}
	rot, err := tpm.New(nil)
	if err != nil {
		return nil, err
	}
	mon, err := core.Boot(core.BootConfig{Machine: mach, TPM: rot, Backend: f.cfg.Backend})
	if err != nil {
		return nil, err
	}
	n := &Node{Index: index, Name: name, Mach: mach, TPM: rot, Mon: mon}
	if verified {
		svc, err := rv.Attach(mach, mon, rv.Options{
			Node: name,
			Ship: func(raw []byte) error { return f.shipDigest(n, raw) },
		})
		if err != nil {
			return nil, err
		}
		n.SVC = svc
		f.vers = append(f.vers, check.NewRemoteVerifier(name))
	}
	cl := libtyche.New(mon, core.InitialDomain)
	if err := cl.AutoHeap(16); err != nil {
		return nil, err
	}
	n.CL = cl
	// dom0's idle loop, parked on every worker core so mediated calls
	// can be issued from it.
	idle := hw.NewAsm()
	idle.Hlt()
	if err := mon.CopyInto(core.InitialDomain, 4*pg, idle.MustAssemble(4*pg)); err != nil {
		return nil, err
	}
	if err := mon.SetEntry(core.InitialDomain, core.InitialDomain, 4*pg); err != nil {
		return nil, err
	}
	// The agent enclave: Hlt body plus the registered RDMA buffer; it
	// holds the NIC, so the channel's DMA path is capability-checked
	// against it, never against the host.
	prog := hw.NewAsm()
	prog.Hlt()
	img := image.NewProgram("fleet-agent", prog.MustAssemble(0)).WithBSS(".rdma", agentBufPages*pg)
	opts := libtyche.DefaultLoadOptions()
	opts.Cores = []phys.CoreID{agentCore}
	opts.Devices = []phys.DeviceID{0}
	agent, err := cl.NewEnclave(img, opts)
	if err != nil {
		return nil, err
	}
	n.Agent, n.AgentImg = agent, img
	for c := 0; c < cores; c++ {
		cid := phys.CoreID(c)
		if cid == agentCore {
			continue
		}
		n.workers = append(n.workers, cid)
		if err := mon.Launch(core.InitialDomain, cid); err != nil {
			return nil, err
		}
		if _, err := mon.RunCore(cid, 10); err != nil {
			return nil, err
		}
	}
	n.cores = make(chan phys.CoreID, len(n.workers))
	for _, c := range n.workers {
		n.cores <- c
	}
	return n, nil
}

// endpoint builds one side of an attested channel anchored in a node's
// agent enclave, trusting peer's TPM root, monitor identity, and agent
// measurement.
func (f *Fleet) endpoint(n, peer *Node) (*dist.Endpoint, error) {
	buf, ok := n.Agent.SegmentRegion(".rdma")
	if !ok {
		return nil, fmt.Errorf("fleet: %s agent has no .rdma segment", n.Name)
	}
	meas, err := peer.AgentImg.Measurement(peer.Agent.Base())
	if err != nil {
		return nil, err
	}
	return &dist.Endpoint{
		Monitor:         n.Mon,
		TPM:             n.TPM,
		Domain:          n.Agent.ID(),
		Buffer:          buf,
		NIC:             0,
		PeerVerifier:    attest.NewVerifier(peer.TPM.EndorsementKey(), peer.Mon.Identity()),
		PeerMeasurement: &meas,
	}, nil
}

// openDigestChannel connects node n's agent to the control plane.
// Bring-up reaches no checkpoint, so no digest precedes the channel.
func (f *Fleet) openDigestChannel(n *Node) error {
	if n.SVC == nil {
		return nil
	}
	epN, err := f.endpoint(n, f.cp)
	if err != nil {
		return err
	}
	epCP, err := f.endpoint(f.cp, n)
	if err != nil {
		return err
	}
	conn, err := dist.Connect(epN, epCP, &dist.Wire{})
	if err != nil {
		return err
	}
	n.mu.Lock()
	n.conn, n.ep = conn, epN
	n.mu.Unlock()
	return nil
}

// shipDigest is every node's rv Ship hook: send the digest over the
// node's attested channel and feed the control-plane verifier with
// what actually arrived. A digest with no channel to cross is an error,
// which the node's service latches.
func (f *Fleet) shipDigest(n *Node, raw []byte) error {
	n.mu.Lock()
	conn, ep := n.conn, n.ep
	n.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("fleet: %s has no digest channel", n.Name)
	}
	f.cpMu.Lock()
	defer f.cpMu.Unlock()
	got, err := conn.Send(ep, raw)
	if err != nil {
		return err
	}
	return f.vers[n.Index].Consume(got)
}

// Pulse drives every live node to a quiescent point (a short dedicated
// RunCores round over its worker cores), firing the monitors'
// checkpoints so pending digest intervals ship. Callers must not hold
// serving cores.
func (f *Fleet) Pulse() {
	for _, n := range f.Nodes {
		if n.Failed() {
			continue
		}
		// Take every serving core so no request is in flight during the
		// round.
		held := make([]phys.CoreID, 0, len(n.workers))
		for range n.workers {
			held = append(held, n.acquireCore())
		}
		if _, err := n.Mon.RunCores(5, n.workers...); err != nil {
			f.latch(fmt.Errorf("fleet: pulse %s: %w", n.Name, err))
		}
		for _, c := range held {
			n.releaseCore(c)
		}
	}
}

// nextNonce returns a fresh attestation nonce (unique per fleet).
func (f *Fleet) nextNonce() []byte {
	f.nonceMu.Lock()
	defer f.nonceMu.Unlock()
	f.nonce++
	return []byte(fmt.Sprintf("fleet-%d-%d", f.cfg.Seed, f.nonce))
}

func (f *Fleet) latch(err error) {
	if err == nil {
		return
	}
	f.errMu.Lock()
	defer f.errMu.Unlock()
	if f.firstErr == nil {
		f.firstErr = err
	}
}

// Err returns the first asynchronous control-plane error (node
// re-placement, pulse, drain timeout), if any.
func (f *Fleet) Err() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.firstErr
}

// allocBase carves a fleet-global tenant base: bump-down from the top
// of the identical per-node heap, never reused, so every assigned span
// is free on every node — including after kills and migrations.
func (f *Fleet) allocBase(pages uint64) phys.Addr {
	f.baseMu.Lock()
	defer f.baseMu.Unlock()
	f.nextBase -= phys.Addr(pages * pg)
	return f.nextBase
}

// buildTemplate assembles a service's golden image at its fleet-global
// base and derives the snapshot + expected measurement. The image is
// base-dependent (the spin loop's jump target is absolute), which is
// exactly why placement and migration restore at the same base.
func (f *Fleet) buildTemplate(spec ServiceSpec) *template {
	const pages = 2
	base := f.allocBase(pages)
	a := hw.NewAsm()
	a.Movi(3, spec.Delta)
	a.Add(1, 2, 3)
	if f.cfg.Spin > 0 {
		a.Movi(4, uint32(f.cfg.Spin))
		a.Movi(5, 1)
		a.Label("spin")
		a.Sub(4, 4, 5)
		a.Jnz(4, "spin")
	}
	a.Movi(0, uint32(core.CallReturn))
	a.Vmcall()
	a.Hlt()
	data := make([]byte, pages*pg)
	copy(data, a.MustAssemble(base))
	meas := core.ComputeMeasurement(base, []core.MeasuredRegion{
		{Region: phys.MakeRegion(base, pg), Content: data[:pg]},
	})
	return &template{
		spec:  spec,
		base:  base,
		pages: pages,
		meas:  meas,
		snap: &core.DomainSnapshot{
			Name:        spec.Name,
			Base:        uint64(base),
			Span:        pages * pg,
			Entry:       uint64(base),
			EntrySet:    true,
			Sealed:      true,
			Measurement: meas,
			Measured:    []core.MeasuredSpan{{Offset: 0, Size: pg}},
			Regions: []core.RegionSnapshot{
				{Offset: 0, Size: pages * pg, Rights: cap.MemRWX, Data: data},
			},
			Cores: f.cfg.CoresPerNode - 1,
		},
	}
}

// Deploy admits a service onto `replicas` distinct nodes.
func (f *Fleet) Deploy(spec ServiceSpec, replicas int) error {
	f.baseMu.Lock()
	if _, dup := f.tmpls[spec.Name]; dup {
		f.baseMu.Unlock()
		return fmt.Errorf("fleet: service %q already deployed", spec.Name)
	}
	f.baseMu.Unlock()
	tmpl := f.buildTemplate(spec)
	f.baseMu.Lock()
	f.tmpls[spec.Name] = tmpl
	f.baseMu.Unlock()
	for i := 0; i < replicas; i++ {
		if _, err := f.Place(spec.Name); err != nil {
			return err
		}
	}
	return nil
}

// Place admits one replica of a deployed service onto the live node
// with the fewest placements that does not already host it: restore
// from the golden snapshot at the service's fleet-global base, attest
// the restored domain against the expected measurement, register with
// the load balancer.
func (f *Fleet) Place(name string) (*Placement, error) {
	f.baseMu.Lock()
	tmpl := f.tmpls[name]
	f.baseMu.Unlock()
	if tmpl == nil {
		return nil, fmt.Errorf("fleet: unknown service %q", name)
	}
	hosting := f.lb.ReplicaNodes(name)
	var best *Node
	bestLoad := 0
	for _, n := range f.Nodes {
		if n.Failed() || hosting[n.Index] {
			continue
		}
		load := f.lb.NodeCount(n.Index)
		if best == nil || load < bestLoad {
			best, bestLoad = n, load
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoCapacity, name)
	}
	return f.placeOn(best, tmpl)
}

func (f *Fleet) placeOn(n *Node, tmpl *template) (*Placement, error) {
	id, err := n.Mon.RestoreDomain(core.InitialDomain, n.CL.HeapNode(), n.workers, tmpl.snap)
	if err != nil {
		return nil, fmt.Errorf("fleet: admit %q on %s: %w", tmpl.spec.Name, n.Name, err)
	}
	if err := f.attestPlacement(n, id, tmpl.meas); err != nil {
		_ = n.Mon.ForceKill(id)
		return nil, fmt.Errorf("fleet: attest %q on %s: %w", tmpl.spec.Name, n.Name, err)
	}
	pl := &Placement{Service: tmpl.spec.Name, Node: n.Index, Dom: id, Base: tmpl.base, Delta: tmpl.spec.Delta}
	f.lb.Register(pl)
	return pl, nil
}

// session returns the node's attestation session, running tier one of
// §3.4 on first use: a TPM quote under a fresh nonce proves the machine
// booted a trusted monitor and binds that monitor's attestation key. The
// key is fixed at boot, so the proof is kept for as long as the node is
// (FailNode drops it).
func (f *Fleet) session(n *Node) (*attest.Session, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.sess != nil {
		return n.sess, nil
	}
	nonce := f.nextNonce()
	q, err := n.Mon.BootQuote(nonce)
	if err != nil {
		return nil, err
	}
	sess, err := attest.NewVerifier(n.TPM.EndorsementKey(), n.Mon.Identity()).NewSession(q, nonce)
	if err != nil {
		return nil, err
	}
	n.sess = sess
	return sess, nil
}

// attestPlacement verifies a freshly admitted domain: a report fresh for
// a nonce never used before, signed by the monitor key the node's TPM
// proved (tier two against the kept session — the first placement on a
// node pays tier one), of a sealed domain with the expected
// measurement.
func (f *Fleet) attestPlacement(n *Node, id core.DomainID, want tpm.Digest) error {
	sess, err := f.session(n)
	if err != nil {
		return err
	}
	nonce := f.nextNonce()
	rep, err := n.Mon.Attest(id, nonce)
	if err != nil {
		return err
	}
	if err := sess.VerifyDomain(rep, nonce); err != nil {
		return err
	}
	if err := attest.RequireSealed(rep); err != nil {
		return err
	}
	return attest.RequireMeasurement(rep, want)
}

// ArmKill arms node i's fault injector to machine-check every worker
// core after `afterAccesses` memory accesses (per core), with an
// effectively unbounded count: once the node starts dying, it keeps
// dying. Deterministic: the same fleet history fires at the same
// points.
func (f *Fleet) ArmKill(i int, afterAccesses uint64) {
	n := f.Nodes[i]
	var faults []fault.Fault
	for _, c := range n.workers {
		faults = append(faults, fault.Fault{
			Kind: fault.MachineCheck, Core: c, After: afterAccesses, Count: 1 << 40,
		})
	}
	n.Inj = fault.NewInjector(faults...)
	n.Inj.Arm(n.Mach, n.TPM)
}

// FailNode is the control plane's node-death protocol: forget the
// node's migration channels and attestation session, stop routing,
// drain in-flight requests, destroy the node's remaining tenant
// plaintext (forced scrub), and re-place every lost service at the
// same base on surviving nodes. Idempotent; safe from serving workers.
func (f *Fleet) FailNode(i int) {
	n := f.Nodes[i]
	if !n.failed.CompareAndSwap(false, true) {
		return
	}
	f.dropChannels(i)
	n.mu.Lock()
	n.sess = nil
	n.mu.Unlock()
	lost := f.lb.DeregisterNode(i)
	for _, pl := range lost {
		if err := pl.Drain(); err != nil {
			f.latch(fmt.Errorf("fleet: drain %s on %s: %w", pl.Service, n.Name, err))
		}
	}
	// Destroy surviving tenant instances on the dead node — machine
	// checks already killed (and scrubbed) the ones caught running.
	var alive []core.DomainID
	for _, pl := range lost {
		if n.alive(pl.Dom) {
			alive = append(alive, pl.Dom)
		}
	}
	if len(alive) > 0 {
		if _, err := n.Mon.ForceKillAll(alive...); err != nil {
			f.latch(fmt.Errorf("fleet: scrub %s: %w", n.Name, err))
		}
	}
	for _, pl := range lost {
		if _, err := f.Place(pl.Service); err != nil {
			// Every survivor already hosting the service is capacity
			// loss, not a failure.
			if !errors.Is(err, ErrNoCapacity) {
				f.latch(err)
			}
		}
	}
}
