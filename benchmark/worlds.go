package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"github.com/tyche-sim/tyche/internal/attest"
	"github.com/tyche-sim/tyche/internal/cap"
	"github.com/tyche-sim/tyche/internal/core"
	"github.com/tyche-sim/tyche/internal/dist"
	"github.com/tyche-sim/tyche/internal/fleet"
	"github.com/tyche-sim/tyche/internal/hw"
	"github.com/tyche-sim/tyche/internal/image"
	"github.com/tyche-sim/tyche/internal/libtyche"
	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/rv"
	"github.com/tyche-sim/tyche/internal/tpm"
)

const pg = phys.PageSize

// part is one simulated machine under measurement with its monitor and
// its runtime-verification service.
type part struct {
	mach *hw.Machine
	mon  *core.Monitor
	svc  *rv.Service
}

// world is one workload's system under test, built from a seed. The
// harness drives it a slice at a time; a slice is a fixed number of ops
// so that the simulated totals of two runs with one seed compare
// exactly.
type world interface {
	// runSlice performs one slice, always of the same number of ops: it
	// times every op into r.lat, checks every output, and returns an
	// error on the first wrong one.
	runSlice(r *run) error
	// parts lists the machines whose public counters are read.
	parts() []part
	// finish ends the run: every audit must come back clean.
	finish(r *run) error
}

// run carries what a pass over a world collects.
type run struct {
	tr  *tracer   // nil on an untraced pass
	lat []float64 // one host-time sample per timed call, µs per op
	ops int64     // ops attempted so far
	// notes are single measurements taken outside the slices (set-up
	// steps, audits), by per-layer metric name and in its unit.
	notes map[string]float64
}

// note records the time since t0 under a metric name, in that
// metric's unit.
func (r *run) note(name string, t0 time.Time, unit time.Duration) {
	r.notes[name] = float64(time.Since(t0)) / float64(unit)
}

func fleetParts(f *fleet.Fleet) []part {
	ps := make([]part, len(f.Nodes))
	for i, n := range f.Nodes {
		ps[i] = part{n.Mach, n.Mon, n.SVC}
	}
	return ps
}

// finishFleet is every fleet workload's closing check: the fleet-wide
// audit is clean and no node latched an asynchronous error.
func finishFleet(f *fleet.Fleet, r *run) error {
	t0 := time.Now()
	audits, err := f.Audit()
	r.note("rv.audit_us", t0, time.Microsecond)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	for _, a := range audits {
		if a.SelfErr != nil || len(a.Flags) > 0 {
			return fmt.Errorf("audit of %s: self=%v flags=%v", a.Node, a.SelfErr, a.Flags)
		}
	}
	for _, n := range f.Nodes {
		if err := n.Mon.FirstDrainError(); err != nil {
			return fmt.Errorf("%s: drain: %w", n.Name, err)
		}
	}
	return f.Err()
}

// requestBudget bounds one request's simulated execution.
const requestBudget = 1_000_000

// nodeWorld is node_request: one node, one tenant, and the benchmark
// itself doing what fleet.Serve does per request on one worker core —
// argument in r2, mediated call, run to the reply, check it.
type nodeWorld struct {
	f     *fleet.Fleet
	mon   *core.Monitor
	cpu   *hw.Core
	core  phys.CoreID
	dom   core.DomainID
	delta uint32
	rng   *rand.Rand
	ops   int
}

func newNodeWorld(seed int64, scale int, r *run) (world, error) {
	rng := rand.New(rand.NewSource(seed))
	f, err := fleet.New(fleet.Config{Nodes: 1, CoresPerNode: 2, Seed: seed, Spin: 200})
	if err != nil {
		return nil, err
	}
	delta := 1 + uint32(rng.Intn(1<<16))
	if err := f.Deploy(fleet.ServiceSpec{Name: "solo", Delta: delta}, 1); err != nil {
		return nil, err
	}
	n := f.Nodes[0]
	c := n.Workers()[0]
	return &nodeWorld{
		f: f, mon: n.Mon, cpu: n.Mach.Core(c), core: c,
		dom: f.LB().Placements("solo")[0].Dom, delta: delta, rng: rng,
		ops: scaled(1024, scale),
	}, nil
}

func (w *nodeWorld) parts() []part { return fleetParts(w.f) }

func (w *nodeWorld) request(r *run, arg uint32) error {
	w.cpu.Regs[2] = uint64(arg)
	r.tr.begin(spCall)
	err := w.mon.Call(w.core, w.dom)
	r.tr.end()
	if err != nil {
		return fmt.Errorf("call: %w", err)
	}
	r.tr.begin(spRunCore)
	res, err := w.mon.RunCore(w.core, requestBudget)
	r.tr.end()
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if res.Trap.Kind == hw.TrapFault || res.Trap.Kind == hw.TrapIllegal || res.Trap.Kind == hw.TrapMachineCheck {
		return fmt.Errorf("tenant trap: %v", res.Trap)
	}
	if got, want := uint32(w.cpu.Regs[1]), arg+w.delta; got != want {
		return fmt.Errorf("reply %#x, want %#x (arg %#x + delta %#x)", got, want, arg, w.delta)
	}
	return nil
}

func (w *nodeWorld) runSlice(r *run) error {
	for i := 0; i < w.ops; i++ {
		arg := uint32(w.rng.Intn(1 << 16))
		t0 := time.Now()
		r.tr.begin(spOp)
		err := w.request(r, arg)
		r.tr.end()
		r.lat = append(r.lat, float64(time.Since(t0))/1e3)
		r.ops++
		if err != nil {
			return err
		}
	}
	// Quiescent pulse, as fleet.Serve does between waves: checkpoints
	// fire and the interval's digest ships to the control plane.
	r.tr.begin(spPulse)
	w.f.Pulse()
	r.tr.end()
	return w.f.Err()
}

func (w *nodeWorld) finish(r *run) error { return finishFleet(w.f, r) }

// serveWorld is fleet_serve: the real entry point with tiny request
// bodies and two closed-loop clients.
type serveWorld struct {
	f       *fleet.Fleet
	rng     *rand.Rand
	batches int
	retries uint64
}

const (
	serveBatch   = 2000 // requests per fleet.Serve call (4 waves, 4 pulses)
	serveClients = 2
)

var serveNames = []string{"alpha", "beta"}

func newServeWorld(seed int64, scale int, r *run) (world, error) {
	rng := rand.New(rand.NewSource(seed))
	f, err := fleet.New(fleet.Config{Nodes: 2, CoresPerNode: 3, Seed: seed, Spin: 1})
	if err != nil {
		return nil, err
	}
	for _, name := range serveNames {
		spec := fleet.ServiceSpec{Name: name, Delta: 1 + uint32(rng.Intn(1<<16))}
		if err := f.Deploy(spec, 2); err != nil {
			return nil, err
		}
	}
	return &serveWorld{f: f, rng: rng, batches: scaled(8, scale)}, nil
}

func (w *serveWorld) parts() []part { return fleetParts(w.f) }

// batch runs one fleet.Serve call. Serve checks every reply against the
// tenant's transform itself and fails on the first mismatch.
func (w *serveWorld) batch(r *run, clients int) error {
	r.tr.begin(spServe)
	st, err := w.f.Serve(serveNames, serveBatch, clients)
	r.tr.end()
	if err != nil {
		return err
	}
	if st.Requests != serveBatch || st.NodeKills != 0 {
		return fmt.Errorf("serve: %d of %d requests, %d node kills", st.Requests, serveBatch, st.NodeKills)
	}
	w.retries += st.Retries
	return nil
}

func (w *serveWorld) runSlice(r *run) error {
	for i := 0; i < w.batches; i++ {
		t0 := time.Now()
		r.tr.begin(spOp)
		err := w.batch(r, serveClients)
		r.tr.end()
		// Serve exposes no per-request time. In a closed loop of C
		// clients the mean time a client waits for a reply is C divided
		// by the throughput, so each batch yields one sample of that.
		r.lat = append(r.lat, float64(time.Since(t0))/1e3*serveClients/serveBatch)
		r.ops += serveBatch
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorld) finish(r *run) error { return finishFleet(w.f, r) }

// capWorld is cap_sync and cap_ring: a sealed tenant enclave delegating
// pages of its heap to its nested child and taking them back. No guest
// instruction runs; the two workloads issue the same seeded sequence of
// capability operations through the two ABIs.
type capWorld struct {
	p        part
	tenant   core.DomainID
	child    core.DomainID
	heapNode cap.NodeID
	pool     []phys.Region // pages the rounds choose from
	ring     *libtyche.Ring
	rng      *rand.Rand
	rounds   int
}

const (
	capBatch     = 8   // shares, then revokes, per round
	capPoolPages = 128 // pages a round picks its batch from
)

func newCapSyncWorld(seed int64, scale int, r *run) (world, error) {
	return newCapWorld(seed, scale, r, false)
}

func newCapRingWorld(seed int64, scale int, r *run) (world, error) {
	return newCapWorld(seed, scale, r, true)
}

// capMachine is the cap_* worlds' hardware: 16 MiB, two cores and two
// devices, whose IOMMU tables every revoke resynchronises.
func capMachine() (*hw.Machine, error) {
	return hw.NewMachine(hw.Config{
		MemBytes: 16 << 20, NumCores: 2, IOMMUAllowByDefault: true,
		Devices: []hw.DeviceConfig{{Name: "gpu0", Class: hw.DevAccelerator}, {Name: "nic0", Class: hw.DevNIC}},
	})
}

// bootMachine boots one such machine with runtime verification attached
// from the first event and dom0 idling on core 0.
func bootMachine() (part, *libtyche.Client, error) {
	mach, err := capMachine()
	if err != nil {
		return part{}, nil, err
	}
	rot, err := tpm.New(nil)
	if err != nil {
		return part{}, nil, err
	}
	mon, err := core.Boot(core.BootConfig{Machine: mach, TPM: rot, Backend: core.BackendVTX})
	if err != nil {
		return part{}, nil, err
	}
	svc, err := rv.Attach(mach, mon, rv.Options{Node: "cap"})
	if err != nil {
		return part{}, nil, err
	}
	cl := libtyche.New(mon, core.InitialDomain)
	if err := cl.AutoHeap(16); err != nil {
		return part{}, nil, err
	}
	idle := hw.NewAsm()
	idle.Hlt()
	if err := mon.CopyInto(core.InitialDomain, 4*pg, idle.MustAssemble(4*pg)); err != nil {
		return part{}, nil, err
	}
	if err := mon.SetEntry(core.InitialDomain, core.InitialDomain, 4*pg); err != nil {
		return part{}, nil, err
	}
	if err := mon.Launch(core.InitialDomain, 0); err != nil {
		return part{}, nil, err
	}
	if _, err := mon.RunCore(0, 10); err != nil {
		return part{}, nil, err
	}
	return part{mach, mon, svc}, cl, nil
}

func haltImage(name string) *image.Image {
	a := hw.NewAsm()
	a.Hlt()
	return image.NewProgram(name, a.MustAssemble(0))
}

func newCapWorld(seed int64, scale int, r *run, ring bool) (world, error) {
	p, dom0, err := bootMachine()
	if err != nil {
		return nil, err
	}
	opts := libtyche.DefaultLoadOptions()
	opts.Cores = []phys.CoreID{1}
	t0 := time.Now()
	tenant, err := dom0.NewEnclave(haltImage("tenant").WithHeap(".heap", 256*pg), opts)
	r.note("libtyche.load_ms", t0, time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("load tenant: %w", err)
	}
	tc := tenant.Client()
	heapNode, _ := tenant.SegmentNode(".heap")
	heap, _ := tenant.SegmentRegion(".heap")
	if err := tc.SetHeap(heapNode, heap); err != nil {
		return nil, err
	}
	// The child stays unsealed: a sealed domain's resources are frozen,
	// and it must keep receiving pages.
	child, err := tc.Load(haltImage("child"), opts)
	if err != nil {
		return nil, fmt.Errorf("load child: %w", err)
	}
	w := &capWorld{
		p: p, tenant: tenant.ID(), child: child.ID(), heapNode: heapNode,
		rng: rand.New(rand.NewSource(seed)), rounds: scaled(6, scale),
	}
	if ring {
		if w.ring, err = tc.NewRing(capBatch); err != nil {
			return nil, err
		}
	}
	pool, err := tc.Alloc(capPoolPages)
	if err != nil {
		return nil, err
	}
	for a := pool.Start; a < pool.End; a += pg {
		w.pool = append(w.pool, phys.MakeRegion(a, pg))
	}
	return w, nil
}

func (w *capWorld) parts() []part { return []part{w.p} }

const capRightsArg = uint64(cap.MemRW) | uint64(cap.CleanZero|cap.CleanFlushTLB)<<16

// pick draws this round's pages: a seeded partial shuffle of the pool.
func (w *capWorld) pick() []phys.Region {
	for i := 0; i < capBatch; i++ {
		j := i + w.rng.Intn(len(w.pool)-i)
		w.pool[i], w.pool[j] = w.pool[j], w.pool[i]
	}
	return w.pool[:capBatch]
}

// checkAccess is the oracle: after the shares the child reaches every
// page, after the revokes it reaches none.
func (w *capWorld) checkAccess(r *run, pages []phys.Region, want bool) error {
	r.tr.begin(spCheckAccess)
	defer r.tr.end()
	for _, p := range pages {
		if got := w.p.mon.CheckAccess(w.child, p.Start, cap.RightRead|cap.RightWrite); got != want {
			return fmt.Errorf("child access to %v is %v, want %v", p, got, want)
		}
	}
	return nil
}

func (w *capWorld) roundSync(r *run, pages []phys.Region) error {
	mon := w.p.mon
	var nodes [capBatch]cap.NodeID
	for i, p := range pages {
		r.tr.begin(spShare)
		n, err := mon.Share(w.tenant, w.heapNode, w.child, cap.MemResource(p), cap.MemRW, cap.CleanZero|cap.CleanFlushTLB)
		r.tr.end()
		if err != nil {
			return fmt.Errorf("share %v: %w", p, err)
		}
		nodes[i] = n
	}
	if err := w.checkAccess(r, pages, true); err != nil {
		return err
	}
	for _, n := range nodes {
		r.tr.begin(spRevoke)
		err := mon.Revoke(w.tenant, n)
		r.tr.end()
		if err != nil {
			return fmt.Errorf("revoke node %d: %w", n, err)
		}
	}
	return w.checkAccess(r, pages, false)
}

// flush rings the doorbell for one enqueued batch and returns the
// completions' results, checking every status.
func (w *capWorld) flush(r *run) ([]libtyche.Completion, error) {
	r.tr.begin(spRingFlush)
	n, err := w.ring.Flush()
	r.tr.end()
	if err != nil {
		return nil, fmt.Errorf("ring flush: %w", err)
	}
	r.tr.begin(spReap)
	cs, err := w.ring.Reap()
	r.tr.end()
	if err != nil {
		return nil, fmt.Errorf("ring reap: %w", err)
	}
	if n != capBatch || len(cs) != capBatch {
		return nil, fmt.Errorf("ring executed %d and completed %d of %d descriptors", n, len(cs), capBatch)
	}
	for i, c := range cs {
		if c.Status != core.StatusOK {
			return nil, fmt.Errorf("descriptor %d: status %d", i, c.Status)
		}
	}
	return cs, nil
}

func (w *capWorld) roundRing(r *run, pages []phys.Region) error {
	r.tr.begin(spEnqueue)
	for _, p := range pages {
		if err := w.ring.Enqueue(core.CallShare, uint64(w.heapNode), uint64(w.child), uint64(p.Start), p.Size(), capRightsArg); err != nil {
			r.tr.end()
			return fmt.Errorf("enqueue share: %w", err)
		}
	}
	r.tr.end()
	shared, err := w.flush(r)
	if err != nil {
		return err
	}
	if err := w.checkAccess(r, pages, true); err != nil {
		return err
	}
	r.tr.begin(spEnqueue)
	for _, c := range shared {
		if err := w.ring.Enqueue(core.CallRevoke, c.Result); err != nil {
			r.tr.end()
			return fmt.Errorf("enqueue revoke: %w", err)
		}
	}
	r.tr.end()
	if _, err := w.flush(r); err != nil {
		return err
	}
	return w.checkAccess(r, pages, false)
}

func (w *capWorld) runSlice(r *run) error {
	for i := 0; i < w.rounds; i++ {
		pages := w.pick()
		t0 := time.Now()
		r.tr.begin(spOp)
		var err error
		if w.ring != nil {
			err = w.roundRing(r, pages)
		} else {
			err = w.roundSync(r, pages)
		}
		r.tr.end()
		r.lat = append(r.lat, float64(time.Since(t0))/1e3)
		r.ops++
		if err != nil {
			return err
		}
	}
	// A quiescent point once a slice, on both ABIs alike: the checker
	// merges its shards only there, and the synchronous path has no
	// doorbell to supply one.
	r.tr.begin(spPulse)
	_, err := w.p.mon.RunCores(5, 0)
	r.tr.end()
	return err
}

func (w *capWorld) finish(r *run) error {
	t0 := time.Now()
	err := w.p.svc.Finalize()
	r.note("rv.finalize_us", t0, time.Microsecond)
	if err != nil {
		return fmt.Errorf("runtime verification: %w", err)
	}
	return w.p.mon.FirstDrainError()
}

// migrateWorld is migrate_hops: one service hopping between three
// nodes, quiesced, with a short serve after every 16 hops to prove the
// tenant still answers with its transform.
type migrateWorld struct {
	f    *fleet.Fleet
	cur  int
	rng  *rand.Rand
	hops int
	done uint64 // hops so far: the verifying serve and the nonces count them
}

const verifyEvery = 16

func newMigrateWorld(seed int64, scale int, r *run) (world, error) {
	rng := rand.New(rand.NewSource(seed))
	f, err := fleet.New(fleet.Config{Nodes: 3, Seed: seed})
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	err = f.Deploy(fleet.ServiceSpec{Name: "pay", Delta: 1 + uint32(rng.Intn(1<<16))}, 1)
	r.note("fleet.place_ms", t0, time.Millisecond)
	if err != nil {
		return nil, err
	}
	return &migrateWorld{
		f: f, cur: f.LB().Placements("pay")[0].Node, rng: rng,
		hops: scaled(16, scale),
	}, nil
}

func (w *migrateWorld) parts() []part { return fleetParts(w.f) }

// placed is the placement oracle: exactly one replica, on node want.
func (w *migrateWorld) placed(want int) error {
	pls := w.f.LB().Placements("pay")
	if len(pls) != 1 || pls[0].Node != want {
		return fmt.Errorf("after the hop %d placements, first on node %d, want one on node %d", len(pls), pls[0].Node, want)
	}
	return nil
}

func (w *migrateWorld) runSlice(r *run) error {
	for i := 0; i < w.hops; i++ {
		to := (w.cur + 1 + w.rng.Intn(len(w.f.Nodes)-1)) % len(w.f.Nodes)
		t0 := time.Now()
		r.tr.begin(spOp)
		var err error
		if r.tr != nil {
			err = w.hopBySteps(r, w.cur, to)
		} else {
			err = w.f.Migrate("pay", w.cur, to, nil)
		}
		r.tr.end()
		r.lat = append(r.lat, float64(time.Since(t0))/1e3)
		r.ops++
		if err == nil {
			err = w.placed(to)
		}
		if err != nil {
			return fmt.Errorf("hop node%d->node%d: %w", w.cur, to, err)
		}
		w.cur = to
		if w.done++; w.done%verifyEvery == 0 {
			r.tr.begin(spServe)
			st, err := w.f.Serve([]string{"pay"}, verifyEvery, 1)
			r.tr.end()
			if err != nil || st.Requests != verifyEvery {
				return fmt.Errorf("serve after hop: %d requests: %v", st.Requests, err)
			}
		}
	}
	return w.f.Err()
}

func (w *migrateWorld) finish(r *run) error { return finishFleet(w.f, r) }

// endpoint is one side of a node-to-node attested channel, anchored in
// n's agent enclave and trusting peer's TPM root, monitor identity and
// agent measurement — what fleet.Migrate builds internally.
func endpoint(n, peer *fleet.Node) (*dist.Endpoint, error) {
	buf, ok := n.Agent.SegmentRegion(".rdma")
	if !ok {
		return nil, fmt.Errorf("%s agent has no .rdma segment", n.Name)
	}
	meas, err := peer.AgentImg.Measurement(peer.Agent.Base())
	if err != nil {
		return nil, err
	}
	return &dist.Endpoint{
		Monitor: n.Mon, TPM: n.TPM, Domain: n.Agent.ID(), Buffer: buf, NIC: 0,
		PeerVerifier:    attest.NewVerifier(peer.TPM.EndorsementKey(), peer.Mon.Identity()),
		PeerMeasurement: &meas,
	}, nil
}

// hopBySteps is fleet.Migrate's six-step protocol performed from the
// public functions it is made of, so that a traced run gets one span
// per step. The untraced run calls fleet.Migrate itself.
func (w *migrateWorld) hopBySteps(r *run, from, to int) error {
	f := w.f
	src, dst := f.Nodes[from], f.Nodes[to]
	pl := f.LB().Placements("pay")[0]
	r.tr.begin(spMigrate)
	defer r.tr.end()

	// 1. Freeze.
	r.tr.begin(spFreeze)
	f.LB().Deregister(pl)
	err := pl.Drain()
	r.tr.end()
	if err != nil {
		return err
	}
	// 2. Snapshot.
	r.tr.begin(spSnapshot)
	snap, err := src.Mon.SnapshotDomain(pl.Dom)
	r.tr.end()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	r.tr.begin(spEncode)
	payload, err := json.Marshal(snap)
	r.tr.end()
	if err != nil {
		return err
	}
	// 3. Ship over a fresh attested channel.
	r.tr.begin(spConnect)
	epSrc, err := endpoint(src, dst)
	if err != nil {
		r.tr.end()
		return err
	}
	epDst, err := endpoint(dst, src)
	if err != nil {
		r.tr.end()
		return err
	}
	conn, err := dist.Connect(epSrc, epDst, &dist.Wire{})
	r.tr.end()
	if err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	r.tr.begin(spSend)
	got, err := conn.Send(epSrc, payload)
	r.tr.end()
	if err != nil {
		return fmt.Errorf("transfer: %w", err)
	}
	r.notes["fleet.snapshot_bytes"] = float64(len(payload))
	// 4. Restore and re-attest.
	r.tr.begin(spDecode)
	var arrived core.DomainSnapshot
	err = json.Unmarshal(got, &arrived)
	r.tr.end()
	if err != nil {
		return err
	}
	r.tr.begin(spRestore)
	id, err := dst.Mon.RestoreDomain(core.InitialDomain, dst.CL.HeapNode(), dst.Workers(), &arrived)
	r.tr.end()
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	nonce := []byte(fmt.Sprintf("bench-%d", w.done))
	r.tr.begin(spBootQuote)
	q, err := dst.Mon.BootQuote(nonce)
	r.tr.end()
	if err != nil {
		return err
	}
	r.tr.begin(spSession)
	sess, err := attest.NewVerifier(dst.TPM.EndorsementKey(), dst.Mon.Identity()).NewSession(q, nonce)
	r.tr.end()
	if err != nil {
		return err
	}
	r.tr.begin(spAttest)
	rep, err := dst.Mon.Attest(id, nonce)
	r.tr.end()
	if err != nil {
		return err
	}
	r.tr.begin(spVerifyDomain)
	err = sess.VerifyDomain(rep, nonce)
	if err == nil {
		err = attest.RequireSealed(rep)
	}
	if err == nil {
		err = attest.RequireMeasurement(rep, snap.Measurement)
	}
	r.tr.end()
	if err != nil {
		return fmt.Errorf("re-attest: %w", err)
	}
	// 5. Unfreeze on the target.
	r.tr.begin(spRegister)
	f.LB().Register(&fleet.Placement{Service: pl.Service, Node: to, Dom: id, Base: pl.Base, Delta: pl.Delta})
	r.tr.end()
	// 6. The source departs with a forced crypto-erase.
	r.tr.begin(spDepartKill)
	err = src.Mon.DepartKill(pl.Dom)
	r.tr.end()
	if err != nil {
		return fmt.Errorf("depart: %w", err)
	}
	return nil
}

// scaled divides a slice's op count for short passes and tests.
func scaled(n, scale int) int {
	if n /= scale; n < 1 {
		return 1
	}
	return n
}
