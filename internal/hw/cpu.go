package hw

import (
	"fmt"

	"github.com/tyche-sim/tyche/internal/phys"
	"github.com/tyche-sim/tyche/internal/trace"
)

// Ring is a privilege ring inside a trust domain. The monitor is outside
// this hierarchy (it runs in root/machine mode, reached only by traps):
// rings order software *within* a domain, which is precisely the
// hierarchy the paper decouples isolation from (§2).
type Ring uint8

// Ring levels. Only the two architecturally interesting levels are
// modelled.
const (
	RingKernel Ring = 0 // the domain's privileged code (OS / guest kernel)
	RingUser   Ring = 3 // the domain's unprivileged code
)

func (r Ring) String() string {
	if r == RingKernel {
		return "ring0"
	}
	return "ring3"
}

// TrapKind classifies why a core stopped executing.
type TrapKind int

// Trap kinds.
const (
	TrapNone         TrapKind = iota // instruction budget exhausted, no event
	TrapHalt                         // explicit HLT
	TrapVMCall                       // trap to the isolation monitor
	TrapSyscall                      // trap to the domain's kernel
	TrapFault                        // memory access denied (or bus error)
	TrapIllegal                      // undecodable instruction
	TrapTimer                        // the core's one-shot timer expired
	TrapMachineCheck                 // hardware fault (injected machine check or core stall)
)

var trapNames = [...]string{
	TrapNone: "none", TrapHalt: "halt", TrapVMCall: "vmcall",
	TrapSyscall: "syscall", TrapFault: "fault", TrapIllegal: "illegal",
	TrapTimer: "timer", TrapMachineCheck: "machine-check",
}

func (k TrapKind) String() string {
	if int(k) < len(trapNames) {
		return trapNames[k]
	}
	return fmt.Sprintf("trap(%d)", int(k))
}

// Trap describes a core's exit from guest execution.
type Trap struct {
	Kind TrapKind
	// Addr is the faulting address for TrapFault.
	Addr phys.Addr
	// Want is the denied permission for TrapFault.
	Want Perm
	// PC is the program counter at the trapping instruction.
	PC phys.Addr
	// Info carries human-readable detail.
	Info string
}

func (t Trap) String() string {
	switch t.Kind {
	case TrapFault:
		return fmt.Sprintf("fault(%v %v at pc=%v)", t.Addr, t.Want, t.PC)
	case TrapIllegal:
		return fmt.Sprintf("illegal(pc=%v: %s)", t.PC, t.Info)
	case TrapMachineCheck:
		return fmt.Sprintf("machine-check(pc=%v: %s)", t.PC, t.Info)
	default:
		return t.Kind.String()
	}
}

// Context is the execution context of a trust domain on a core — the
// analogue of a VMCS (x86_64) or the machine-mode-saved hart state
// (RISC-V). The monitor creates contexts and installs filters; the
// domain's own kernel may install an OSFilter for its internal rings.
type Context struct {
	// Owner is the owning trust domain's ID (opaque to hardware).
	Owner uint64
	// Filter is the monitor-managed access filter (EPT or PMP view).
	// Enforced on every access, every ring.
	Filter AccessFilter
	// OSFilter is the domain-kernel-managed first-level filter. It is
	// bypassed in RingKernel — the commodity "privileged code can bypass
	// process isolation" behaviour (§2.2) — and enforced in RingUser.
	// Nil means no first-level restriction.
	OSFilter AccessFilter
	// Entry is the domain's fixed entry point (§3.1: "domains have a
	// fixed entry point").
	Entry phys.Addr
	// UsesEPT charges the two-dimensional walk cost on TLB misses.
	UsesEPT bool
	// ASID tags this context's TLB entries. Distinct contexts with
	// distinct ASIDs can coexist in a tagged TLB, which is what lets
	// VMFUNC-style fast switches skip the flush.
	ASID uint64

	// Saved register state for monitor-mediated transitions.
	SavedRegs [NumRegs]uint64
	SavedPC   phys.Addr
	SavedRing Ring
}

// Core is one simulated CPU core.
type Core struct {
	id   phys.CoreID
	mach *Machine

	// Regs is the architectural register file r0..r15.
	Regs [NumRegs]uint64
	// PC is the program counter (a physical address).
	PC phys.Addr
	// Ring is the current privilege ring inside the running domain.
	Ring Ring

	// PMPUnit is the core's PMP register file (used by the RISC-V
	// backend; idle under the VT-x backend).
	PMPUnit *PMP

	ctx     *Context
	res     residency
	tlb     *TLB
	cache   *Cache
	halted  bool
	stalled bool

	// clk is this core's clock shard: guest execution charges it, and
	// the machine clock aggregates shards on read.
	clk Clock

	// decoded caches instructions already fetched and validated, by
	// page (see decodedPage and decodedSet). A way is allocated the first
	// time the core fills a page into it.
	decoded [decodedSets]decodedSet

	// mru is a small fully-associative translation cache in front of the
	// TLB: code alternating between a handful of pages (instruction
	// fetch + a data page or two) skips the TLB map lookup entirely.
	// Each way validates the filter generation and the TLB flush count,
	// so a permission change or shootdown invalidates it implicitly.
	mru mruSet

	// vmfunc is the core's pre-registered fast-switch lists (the VMFUNC
	// EPTP list, one per domain): guest code may switch only to a
	// context the monitor installed here for the domain it runs in.
	vmfunc map[vmfuncKey]*Context

	timer      int
	timerArmed bool

	instrs uint64
	faults uint64
}

// MRUWays is the associativity of the per-core front-side translation
// cache (mruSet).
const MRUWays = 4

// mruEntry is one way of the front-side translation cache.
type mruEntry struct {
	ok    bool
	asid  uint64
	page  uint64
	gen   uint64
	flush uint64
	perm  Perm
}

// mruSet is the core's MRUWays-way translation cache. Replacement is
// round-robin: the cost model charges identically for every way, so a
// cheaper policy with the same hit set beats LRU bookkeeping here.
//
// At most one valid way matches any key. A fill follows a lookup that
// missed (asid, page, gen) at flush count f, and it stores f or a later
// count, which no earlier fill can have stored. So the order in which
// lookup probes the ways changes no hit or miss count, and it probes
// last — the way of the last hit or fill, the only one Core.hot
// checks — first.
type mruSet struct {
	ways [MRUWays]mruEntry
	next int
	last int
	// hits and misses tally front-side lookups (a miss that then hits
	// the TLB still counts as an mru miss).
	hits, misses uint64
}

// lookup finds a valid translation of (asid, page) under the current
// generation and flush epoch, trying the last way used first.
func (s *mruSet) lookup(asid, page, gen, flush uint64) (Perm, bool) {
	// Probe last, then every way in order (last again, at no cost to the
	// counts); small enough to inline into access.
	for i, k := s.last, 0; k <= MRUWays; i, k = k, k+1 {
		if e := &s.ways[i]; e.ok && e.asid == asid && e.page == page && e.gen == gen && e.flush == flush {
			s.hits++
			s.last = i
			return e.perm, true
		}
	}
	s.misses++
	return PermNone, false
}

// insert fills the next way round-robin.
func (s *mruSet) insert(asid, page, gen, flush uint64, perm Perm) {
	s.ways[s.next] = mruEntry{ok: true, asid: asid, page: page, gen: gen, flush: flush, perm: perm}
	s.last = s.next
	s.next = (s.next + 1) % MRUWays
}

// invalidate drops every way.
func (s *mruSet) invalidate() {
	for i := range s.ways {
		s.ways[i].ok = false
	}
}

// Translation is one translation a core has cached, for audits.
type Translation struct {
	ASID, Page uint64
	Perm       Perm
	// Gen is the filter generation the translation was filled under.
	Gen uint64
	// MRU marks a way of the front-side cache rather than a TLB slot.
	MRU bool
}

// AppendTranslations appends every translation the core can still use
// without a walk: each valid TLB slot, and each MRU way the TLB has not
// been flushed under since it was filled (a way is still only used
// while its ASID is installed and its generation current).
func (c *Core) AppendTranslations(dst []Translation) []Translation {
	dst = c.tlb.appendSlots(dst)
	flush := c.tlb.FlushCount()
	for _, w := range c.mru.ways {
		if w.ok && w.flush == flush {
			dst = append(dst, Translation{ASID: w.asid, Page: w.page, Perm: w.perm, Gen: w.gen, MRU: true})
		}
	}
	return dst
}

// MRUStats returns the front-side translation cache's hit and miss
// counts.
func (c *Core) MRUStats() (hits, misses uint64) {
	return c.mru.hits, c.mru.misses
}

// ID returns the core's identifier.
func (c *Core) ID() phys.CoreID { return c.id }

// Context returns the installed execution context (nil if none).
func (c *Core) Context() *Context { return c.ctx }

// TLBUnit exposes the core's TLB (for monitor flush operations and
// tests).
func (c *Core) TLBUnit() *TLB { return c.tlb }

// CacheUnit exposes the core's data cache.
func (c *Core) CacheUnit() *Cache { return c.cache }

// InstrCount returns the number of retired instructions.
func (c *Core) InstrCount() uint64 { return c.instrs }

// ClearStall un-poisons a stalled core — the model of a firmware-level
// core reset. The monitor only does this once the crashed domain's
// state is fully contained.
func (c *Core) ClearStall() { c.stalled = false }

// Cycles returns the cycles this core's guest execution has consumed.
// The machine clock already includes them in its total.
func (c *Core) Cycles() uint64 { return c.clk.Cycles() }

// InstallContext binds ctx to the core, flushing the TLB (a full
// context switch on untagged hardware invalidates cached translations),
// so the core is resident for ctx's owner alone.
func (c *Core) InstallContext(ctx *Context) {
	c.ctx = ctx
	c.tlb.Flush()
	c.res.reset(ctx)
	c.mru.invalidate()
	c.halted = false
}

// ClearHalt resumes a halted core: the privileged software that just
// reprogrammed the core's state (a kernel scheduling a process, the
// monitor re-entering a domain) clears the halt latch.
func (c *Core) ClearHalt() { c.halted = false }

// vmfuncKey names index idx of the VMFUNC list in force while domain
// from is installed.
type vmfuncKey struct{ from, idx uint64 }

// SetVMFuncEntry installs ctx at index idx of domain from's VMFUNC
// list. Only the monitor's backend calls this; code running in from
// can then switch to the view without an exit.
func (c *Core) SetVMFuncEntry(from, idx uint64, ctx *Context) {
	if c.vmfunc == nil {
		c.vmfunc = make(map[vmfuncKey]*Context)
	}
	c.vmfunc[vmfuncKey{from, idx}] = ctx
}

// ClearVMFuncEntry removes owner from the VMFUNC lists: its own list
// and its index in every other domain's.
func (c *Core) ClearVMFuncEntry(owner uint64) {
	for k := range c.vmfunc {
		if k.from == owner || k.idx == owner {
			delete(c.vmfunc, k)
		}
	}
}

// VMFuncEntry looks up index idx of the installed domain's VMFUNC list:
// what the guest instruction and the backend's monitor-driven fast
// switch both consult, so the two obey one relation.
func (c *Core) VMFuncEntry(idx uint64) (*Context, bool) {
	cur := c.ctx
	if cur == nil {
		return nil, false
	}
	ctx, ok := c.vmfunc[vmfuncKey{cur.Owner, idx}]
	return ctx, ok
}

// SwitchContextTagged binds ctx to the core without flushing the TLB,
// relying on ASID tagging for correctness — the VMFUNC fast path. The
// translations of the contexts loaded before stay, so the core becomes
// resident for ctx's owner as well.
func (c *Core) SwitchContextTagged(ctx *Context) {
	c.ctx = ctx
	c.res.add(ctx.Owner)
	c.halted = false
}

// residentFor reports whether the core may cache a translation of any
// of domains: whether it loaded a context of one of them since its TLB
// was last flushed whole.
func (c *Core) residentFor(domains ...uint64) bool {
	for _, d := range domains {
		if c.res.holds(d) {
			return true
		}
	}
	return false
}

// invalidate is one targeted core's part of a shootdown round: drop
// its translations of regions, or its whole TLB when full — after which
// it is resident only for the context it still has installed.
func (c *Core) invalidate(regions []phys.Region, full bool) {
	if !full {
		for _, r := range regions {
			c.tlb.FlushRegion(r)
		}
		return
	}
	c.tlb.Flush()
	c.res.reset(c.ctx)
}

// residentSlots is how many domains a core's residency record names
// before it overflows.
const residentSlots = 8

// residency is the set of domains whose contexts a core has loaded
// since its TLB was last flushed whole. A TLB slot or MRU way can only
// hold a translation of one of them, so a shootdown round for other
// domains need not interrupt the core. The record is a fixed array:
// once more than residentSlots domains share a TLB it overflows and the
// core counts as resident for every domain, which is safe.
type residency struct {
	n    int // domains recorded; above residentSlots the record overflowed
	doms [residentSlots]uint64
}

// reset records ctx's owner alone (nothing when no context is
// installed).
func (r *residency) reset(ctx *Context) {
	r.n = 0
	if ctx != nil {
		r.doms[0], r.n = ctx.Owner, 1
	}
}

// add records d unless it is already there.
func (r *residency) add(d uint64) {
	if r.holds(d) {
		return
	}
	if r.n < residentSlots {
		r.doms[r.n] = d
	}
	r.n = min(r.n+1, residentSlots+1)
}

// holds reports whether the record names d (always, once overflowed).
func (r *residency) holds(d uint64) bool {
	if r.n > residentSlots {
		return true
	}
	for _, x := range r.doms[:r.n] {
		if x == d {
			return true
		}
	}
	return false
}

// SaveInto snapshots the core's register state into ctx.
func (c *Core) SaveInto(ctx *Context) {
	ctx.SavedRegs = c.Regs
	ctx.SavedPC = c.PC
	ctx.SavedRing = c.Ring
}

// RestoreFrom loads the core's register state from ctx.
func (c *Core) RestoreFrom(ctx *Context) {
	c.Regs = ctx.SavedRegs
	c.PC = ctx.SavedPC
	c.Ring = ctx.SavedRing
	c.halted = false
}

// decodedSets is the number of sets of a core's decoded-page cache. A
// page maps to set page % decodedSets and may sit in either of the
// set's two ways, so two code pages that collide — a tenant's body and
// the idle loop it returns to — both stay decoded.
const decodedSets = 8

// instrsPerPage is the number of aligned instruction words in a page.
const instrsPerPage = phys.PageSize / InstrSize

// decodedPage is one way of a core's decoded-page cache: the aligned
// instruction words of one physical page that the core has fetched and
// validated while the page's write version was ver. Words are filled
// one at a time as they are executed — guests keep code and data on one
// page, so a store invalidates with one bitmap reset rather than paying
// for a page of decodes.
//
// The cache holds bytes, never rights: every fetch is still checked and
// charged (by hot, for each fetch of its chain, or by access), so a way
// needs no ASID, generation or flush keying. Its content depends only on
// writes to the page, and every write bumps the version (see PhysMem).
// vers points at that counter, so a hit reads it without going through
// the machine. fill keys a way as it puts it in a set, so a way in a set
// has a page.
type decodedPage struct {
	page  uint64
	ver   uint64
	vers  *uint64
	valid [instrsPerPage / 64]uint64
	ins   [instrsPerPage]Instr
}

// word returns the decoded instruction at the aligned address pc, which
// lies on the way's page, if the way holds it at the page's current
// write version, or nil. A nil way holds nothing.
func (s *decodedPage) word(pc phys.Addr) *Instr {
	i := uint64(pc) % phys.PageSize / InstrSize
	if s == nil || s.valid[i/64]&(1<<(i%64)) == 0 || s.ver != *s.vers {
		return nil
	}
	return &s.ins[i]
}

// decodedSet is one set of the decoded-page cache: two ways, the most
// recently used first, so that the way fill replaces is the least
// recently used one. Either way may be nil until a page fills it.
type decodedSet [2]*decodedPage

// lookup returns the way that holds page pg, moved to the front, or
// nil.
func (d *decodedSet) lookup(pg uint64) *decodedPage {
	if s := d[0]; s != nil && s.page == pg {
		return s
	}
	if s := d[1]; s != nil && s.page == pg {
		d[0], d[1] = s, d[0]
		return s
	}
	return nil
}

// chainOps are the opcodes whose retirement changes nothing a fetch
// check reads but the PC: the ALU ops and the branches. (exec changes
// the registers and the clock too, which no check reads, and ends the
// run on a timer expiry.)
const chainOps = 1<<OpNop | 1<<OpMovi | 1<<OpMov | 1<<OpAdd | 1<<OpSub | 1<<OpMul |
	1<<OpAnd | 1<<OpOr | 1<<OpXor | 1<<OpShl | 1<<OpShr | 1<<OpAddi |
	1<<OpJmp | 1<<OpJz | 1<<OpJnz | 1<<OpJlt

// hot is the interpreter's fast exit: it stands in for access(PC, X)
// and fetch for an instruction fetch that stays where the previous
// access left the core, and then executes a chain of instructions from
// the same decoded page. It admits the first fetch when
//
//   - the core is neither stalled nor halted and PC is aligned;
//   - PC's decoded way holds the word at the page's current version;
//   - the MRU way of the last hit or fill translates PC's page for the
//     installed context's ASID under the filter's current generation
//     and the TLB's current flush count, and allows X;
//   - no fault injector is installed; and
//   - the first-level filter does not apply (ring 0, or no OSFilter).
//
// Otherwise it returns ran false having consulted, counted and charged
// nothing, and the caller takes step, whose access and fetch handle
// every case. The checks run cheapest and likeliest to fail first: a
// fetch that has just left its page, or follows a load or store to
// another page, finds the last way on the wrong page and falls through
// after a few loads.
//
// Each following fetch re-checks only what the instruction just retired
// could have changed. Within one Run no monitor code, DMA or other core
// runs (a fault injector's hook does, from access, but hot admits
// nothing while one is installed), so only the retiring instruction
// moves the core's state between two fetches, and what it can move
// depends on its class:
//
//   - an ALU op or a branch moves only the PC;
//   - ld, st, ldb and stb move the MRU way, and a store may bump a
//     page's write version;
//   - vmfunc switches the context; and
//   - hlt, vmcall, syscall and the timer's expiry end the run.
//
// So after an ALU op or a branch the next fetch needs three checks: PC
// on the same page, PC aligned, and the word's valid bit in the decoded
// way. After anything else, at a check that fails, or when the
// instruction count reaches end, hot returns and Run's loop goes back
// to hot or step, which check everything. running is exec's verdict on
// the last instruction (false with *t set on a trap).
//
// Every fetch hot admits is charged and counted as access would: a TLB
// hit served by the MRU way, and the data-cache touch — with one
// addition to the clock, not access's two, since consecutive fetches
// chain through it and each extra read-modify-write lengthens every
// instruction.
func (c *Core) hot(end uint64, t *Trap) (ran, running bool) {
	pc := c.PC
	pg := pc.Page()
	w := &c.mru.ways[c.mru.last]
	if w.page != pg || !w.ok || w.perm&PermX == 0 || pc%InstrSize != 0 {
		return false, true
	}
	if c.stalled || c.halted {
		return false, true
	}
	s := c.decoded[pg%decodedSets].lookup(pg)
	ins := s.word(pc)
	if ins == nil {
		return false, true
	}
	ctx := c.ctx
	if ctx == nil || w.asid != ctx.ASID {
		return false, true
	}
	if c.Ring != RingKernel && ctx.OSFilter != nil {
		return false, true
	}
	if c.mach.fault != nil || w.flush != c.tlb.FlushCount() {
		return false, true
	}
	if w.gen != ctx.Filter.Generation() {
		return false, true
	}
	cost := &c.mach.Cost
	for {
		c.mru.hits++
		c.tlb.hits++
		mem := cost.MemHit
		if c.cache.touch(pc) {
			c.cache.hits++
		} else {
			c.cache.misses++
			mem = cost.MemMiss
		}
		c.clk.cycles += cost.TLBHit + mem
		op := ins.Op
		if !c.exec(ins, t) {
			return true, false
		}
		pc = c.PC
		i := uint64(pc) % phys.PageSize / InstrSize
		switch {
		case chainOps>>op&1 == 0: // it may have moved more than the PC
		case c.instrs == end: // the budget is spent
		case pc.Page() != pg: // it left the page
		case pc%InstrSize != 0: // a jump to a misaligned target
		case s.valid[i/64]&(1<<(i%64)) == 0: // a word not decoded yet
		default:
			ins = &s.ins[i]
			continue
		}
		return true, true
	}
}

// access checks and charges one guest memory access of size bytes at a.
// It returns a non-nil trap on denial.
func (c *Core) access(a phys.Addr, want Perm, size uint64) *Trap {
	ctx := c.ctx
	if ctx == nil {
		return &Trap{Kind: TrapFault, Addr: a, Want: want, PC: c.PC, Info: "no context installed"}
	}
	if fi := c.mach.FaultInjector(); fi != nil {
		switch fi.OnAccess(c.id, a, want) {
		case FaultAbort:
			c.faults++
			return &Trap{Kind: TrapMachineCheck, Addr: a, Want: want, PC: c.PC, Info: "injected machine check"}
		case FaultStall:
			c.faults++
			c.stalled = true
			return &Trap{Kind: TrapMachineCheck, Addr: a, Want: want, PC: c.PC, Info: "core stalled"}
		}
	}
	cost := &c.mach.Cost
	// Bus bounds.
	if uint64(a) >= c.mach.Mem.Size() || c.mach.Mem.Size()-uint64(a) < size {
		return &Trap{Kind: TrapFault, Addr: a, Want: want, PC: c.PC, Info: "bus error"}
	}
	// Only a's page is looked up below, so an access reaching into the
	// next page would touch bytes no filter was asked about. The
	// assembler and loaders keep data naturally aligned; anything else
	// fails closed.
	if uint64(a)%phys.PageSize+size > phys.PageSize {
		c.faults++
		return &Trap{Kind: TrapFault, Addr: a, Want: want, PC: c.PC, Info: "access straddles a page boundary"}
	}
	pg := a.Page()
	gen := ctx.Filter.Generation()
	var perm Perm
	if mp, ok := c.mru.lookup(ctx.ASID, pg, gen, c.tlb.FlushCount()); ok {
		perm = mp
		c.tlb.hits++
		c.clk.cycles += cost.TLBHit
	} else {
		var hit bool
		perm, hit = c.tlb.Lookup(ctx.ASID, pg, gen)
		if hit {
			c.clk.cycles += cost.TLBHit
		} else {
			walk := cost.PageWalk
			if ctx.UsesEPT {
				walk += cost.EPTWalk
			}
			c.clk.cycles += walk
			perm = ctx.Filter.Lookup(a)
			c.tlb.Insert(ctx.ASID, pg, perm, gen)
		}
		c.mru.insert(ctx.ASID, pg, gen, c.tlb.FlushCount(), perm)
	}
	if !perm.Allows(want) {
		c.faults++
		return &Trap{Kind: TrapFault, Addr: a, Want: want, PC: c.PC}
	}
	// First-level (OS) filter: enforced for user ring only; ring 0 in a
	// commodity domain bypasses it — that is the monopoly the monitor's
	// second-level filter above does NOT bypass.
	if c.Ring != RingKernel && ctx.OSFilter != nil && !ctx.OSFilter.Check(a, want) {
		c.faults++
		return &Trap{Kind: TrapFault, Addr: a, Want: want, PC: c.PC, Info: "first-level (OS) denial"}
	}
	if c.cache.touch(a) {
		c.cache.hits++
		c.clk.cycles += cost.MemHit
	} else {
		c.cache.misses++
		c.clk.cycles += cost.MemMiss
	}
	return nil
}

// fetch loads the instruction at PC, which access has just admitted.
// An aligned PC whose word the core decoded at the page's current write
// version is served from the decoded-page cache; everything else goes
// through fill. On failure it sets *t and returns false. The
// instruction comes back through a pointer, as one 8-byte copy: returned
// by value it is split across five registers and reassembled with byte
// stores, which the profile showed costing more than the lookup.
func (c *Core) fetch(ins *Instr, t *Trap) bool {
	if pc := c.PC; pc%InstrSize == 0 {
		if w := c.decoded[pc.Page()%decodedSets].lookup(pc.Page()).word(pc); w != nil {
			*ins = *w
			return true
		}
	}
	return c.fill(ins, t)
}

// fill reads the word at PC from memory together with its page's write
// version, validates it and, for an aligned PC, records it in the
// page's way — resetting the way first if it held an older version. A
// page in neither way of its set takes the least recently used one,
// allocated the first time. Unaligned PCs and illegal words are never
// cached.
func (c *Core) fill(out *Instr, t *Trap) bool {
	pc := c.PC
	word, ver, err := c.mach.Mem.fetchWord(pc)
	if err != nil {
		*t = Trap{Kind: TrapFault, Addr: pc, Want: PermX, PC: pc, Info: err.Error()}
		return false
	}
	ins := decode(word)
	if !ins.Valid() {
		*t = Trap{Kind: TrapIllegal, PC: pc, Info: illegalInfo(word)}
		return false
	}
	*out = ins
	if pc%InstrSize != 0 {
		return true
	}
	pg := pc.Page()
	d := &c.decoded[pg%decodedSets]
	s := d.lookup(pg)
	if s == nil {
		if s = d[1]; s == nil {
			s = new(decodedPage)
		}
		d[0], d[1] = s, d[0]
		s.page, s.ver, s.vers = pg, ver, c.mach.Mem.version(pg)
		s.valid = [len(s.valid)]uint64{}
	} else if s.ver != ver {
		s.ver = ver
		s.valid = [len(s.valid)]uint64{}
	}
	i := uint64(pc) % phys.PageSize / InstrSize
	s.ins[i] = ins
	s.valid[i/64] |= 1 << (i % 64)
	return true
}

// illegalInfo is Decode's error text for an undecodable word. It is a
// function of its own so that the word escapes (into the formatted
// error) only on this path, not in every fill.
func illegalInfo(word [InstrSize]byte) string {
	_, err := Decode(word[:])
	return err.Error()
}

// step executes one instruction. It reports whether the instruction
// retired with no exit event; when it returns false, *t describes the
// event. The trap goes through a pointer so that the retiring path
// moves no Trap around.
func (c *Core) step(t *Trap) bool {
	if c.stalled {
		*t = Trap{Kind: TrapMachineCheck, PC: c.PC, Info: "core stalled"}
		return false
	}
	if c.halted {
		*t = Trap{Kind: TrapHalt, PC: c.PC}
		return false
	}
	if ft := c.access(c.PC, PermX, InstrSize); ft != nil {
		*t = *ft
		return false
	}
	var ins Instr
	if !c.fetch(&ins, t) {
		return false
	}
	return c.exec(&ins, t)
}

// exec executes the instruction fetched from PC, with step's contract.
// It takes the instruction by pointer, for the reason fetch returns it
// through one; the fast exit passes its decoded way's word directly.
func (c *Core) exec(ins *Instr, t *Trap) bool {
	cost := &c.mach.Cost
	next := c.PC + InstrSize
	r := &c.Regs
	switch ins.Op {
	case OpHlt:
		c.halted = true
		c.instrs++
		*t = Trap{Kind: TrapHalt, PC: c.PC}
		return false
	case OpNop:
		c.clk.cycles += cost.ALUOp
	case OpMovi:
		r[ins.Rd] = uint64(ins.Imm)
		c.clk.cycles += cost.ALUOp
	case OpMov:
		r[ins.Rd] = r[ins.Rs1]
		c.clk.cycles += cost.ALUOp
	case OpAdd:
		r[ins.Rd] = r[ins.Rs1] + r[ins.Rs2]
		c.clk.cycles += cost.ALUOp
	case OpSub:
		r[ins.Rd] = r[ins.Rs1] - r[ins.Rs2]
		c.clk.cycles += cost.ALUOp
	case OpMul:
		r[ins.Rd] = r[ins.Rs1] * r[ins.Rs2]
		c.clk.cycles += cost.ALUOp * 3
	case OpAnd:
		r[ins.Rd] = r[ins.Rs1] & r[ins.Rs2]
		c.clk.cycles += cost.ALUOp
	case OpOr:
		r[ins.Rd] = r[ins.Rs1] | r[ins.Rs2]
		c.clk.cycles += cost.ALUOp
	case OpXor:
		r[ins.Rd] = r[ins.Rs1] ^ r[ins.Rs2]
		c.clk.cycles += cost.ALUOp
	case OpShl:
		r[ins.Rd] = r[ins.Rs1] << (r[ins.Rs2] & 63)
		c.clk.cycles += cost.ALUOp
	case OpShr:
		r[ins.Rd] = r[ins.Rs1] >> (r[ins.Rs2] & 63)
		c.clk.cycles += cost.ALUOp
	case OpAddi:
		r[ins.Rd] = r[ins.Rs1] + uint64(ins.Imm)
		c.clk.cycles += cost.ALUOp
	case OpLd:
		a := phys.Addr(r[ins.Rs1] + uint64(ins.Imm))
		if ft := c.access(a, PermR, 8); ft != nil {
			*t = *ft
			return false
		}
		v, err := c.mach.Mem.Read64(a)
		if err != nil {
			*t = Trap{Kind: TrapFault, Addr: a, Want: PermR, PC: c.PC, Info: err.Error()}
			return false
		}
		r[ins.Rd] = v
	case OpSt:
		a := phys.Addr(r[ins.Rs1] + uint64(ins.Imm))
		if ft := c.access(a, PermW, 8); ft != nil {
			*t = *ft
			return false
		}
		if err := c.mach.Mem.Write64(a, r[ins.Rs2]); err != nil {
			*t = Trap{Kind: TrapFault, Addr: a, Want: PermW, PC: c.PC, Info: err.Error()}
			return false
		}
	case OpLdb:
		a := phys.Addr(r[ins.Rs1] + uint64(ins.Imm))
		if ft := c.access(a, PermR, 1); ft != nil {
			*t = *ft
			return false
		}
		b, err := c.mach.Mem.ReadByteAt(a)
		if err != nil {
			*t = Trap{Kind: TrapFault, Addr: a, Want: PermR, PC: c.PC, Info: err.Error()}
			return false
		}
		r[ins.Rd] = uint64(b)
	case OpStb:
		a := phys.Addr(r[ins.Rs1] + uint64(ins.Imm))
		if ft := c.access(a, PermW, 1); ft != nil {
			*t = *ft
			return false
		}
		if err := c.mach.Mem.WriteByteAt(a, byte(r[ins.Rs2])); err != nil {
			*t = Trap{Kind: TrapFault, Addr: a, Want: PermW, PC: c.PC, Info: err.Error()}
			return false
		}
	case OpJmp:
		next = phys.Addr(ins.Imm)
		c.clk.cycles += cost.ALUOp
	case OpJz:
		if r[ins.Rs1] == 0 {
			next = phys.Addr(ins.Imm)
		}
		c.clk.cycles += cost.ALUOp
	case OpJnz:
		if r[ins.Rs1] != 0 {
			next = phys.Addr(ins.Imm)
		}
		c.clk.cycles += cost.ALUOp
	case OpJlt:
		if r[ins.Rs1] < r[ins.Rs2] {
			next = phys.Addr(ins.Imm)
		}
		c.clk.cycles += cost.ALUOp
	case OpVmfunc:
		// The guest-level fast switch: no exit, tagged TLB survives.
		// An index outside the monitor-installed list vm-exits on real
		// hardware; we model it as a fault the run loop reports.
		target, ok := c.VMFuncEntry(r[14])
		if !ok {
			c.faults++
			*t = Trap{Kind: TrapFault, Addr: c.PC, Want: PermX, PC: c.PC,
				Info: fmt.Sprintf("vmfunc: index %d not registered", r[14])}
			return false
		}
		c.clk.cycles += cost.VMFunc
		c.SwitchContextTagged(target)
	case OpVmcall:
		c.instrs++
		c.PC = next // resume after the call
		*t = Trap{Kind: TrapVMCall, PC: c.PC - InstrSize}
		return false
	case OpSyscall:
		c.instrs++
		c.PC = next
		*t = Trap{Kind: TrapSyscall, PC: c.PC - InstrSize}
		return false
	default:
		*t = Trap{Kind: TrapIllegal, PC: c.PC, Info: ins.Op.String()}
		return false
	}
	c.instrs++
	c.PC = next
	if c.tickTimer() {
		*t = Trap{Kind: TrapTimer, PC: c.PC}
		return false
	}
	return true
}

// Run executes up to maxInstrs instructions, stopping at the first trap.
// It returns the number of retired instructions (the instruction that
// raised a retiring trap — VMCALL, SYSCALL, HLT, timer — counts;
// faulting instructions do not retire) and the trap (TrapNone when the
// budget ran out). Each fetch the loop makes tries the fast exit (hot)
// here rather than inside step; one it admits starts a chain, which
// executes on from the same decoded page for as long as the retired
// instructions are ALU ops and branches, so the common instruction
// costs exec and three checks. The budget is exact: a chain stops at
// it.
func (c *Core) Run(maxInstrs int) (int, Trap) {
	var t Trap
	running := true
	start := c.instrs
	end := start + uint64(max(maxInstrs, 0))
	for running && c.instrs < end {
		var ran bool
		if ran, running = c.hot(end, &t); !ran {
			running = c.step(&t)
		}
	}
	n := int(c.instrs - start)
	if running {
		return n, Trap{Kind: TrapNone, PC: c.PC}
	}
	c.traceTrap(t)
	return n, t
}

// traceTrap emits the guest-exit event for a trap ending a Run. Budget
// exhaustion (TrapNone) is not a trap and is not traced.
func (c *Core) traceTrap(t Trap) {
	tr := c.mach.tracer
	if tr == nil {
		return
	}
	var owner uint64
	if ctx := c.ctx; ctx != nil {
		owner = uint64(ctx.Owner)
	}
	tr.Emit(int32(c.id), trace.KTrap, owner, uint64(t.Kind), uint64(t.PC), uint64(t.Addr), 0)
}
