package hw

import "github.com/tyche-sim/tyche/internal/phys"

// DefaultTLBEntries is the modelled TLB capacity per core.
const DefaultTLBEntries = 64

// TLB caches per-page access-control decisions, tagged by ASID (address
// space / EPT-pointer tag) and the generation of the filter that
// produced them. Tagging is what makes VMFUNC-style fast filter switches
// cheap: entries of different contexts coexist, so switching requires no
// flush.
//
// A permission change bumps the filter generation. In Strict mode the
// TLB validates generations on every hit (idealised coherent hardware);
// the default non-strict mode honours stale entries — real-TLB
// behaviour, which turns a revocation without a TLB shootdown into a
// modelled vulnerability the failure-injection tests exercise. The
// monitor's flush-on-revoke cleanup is what closes the window.
//
// Storage is one fixed slot array with clock-hand (second-chance)
// eviction: a lookup sets the slot's reference bit, and the hand sweeps
// past referenced slots once before reclaiming them. There is no index
// beside the array: slots fill from the hand upward, hi bounds the used
// prefix, and lookups and flushes touch slots[:hi] only — so a context
// switch that flushes the three or four entries a request cached pays
// for those, not for the capacity (BenchmarkTLBFlush), and a scan of a
// full 64-entry array costs what the map probe it replaced did
// (BenchmarkTLBLookupHit, BenchmarkTLBInsertEvict).
//
// The owning core reaches the TLB only when its MRU translation cache
// misses; the core counts the hits its MRU serves into hits itself.
type TLB struct {
	// Strict, when true, validates generation on every hit.
	Strict bool

	slots []tlbSlot
	hi    int // every slot at or above hi is free; only Flush lowers it
	hand  int

	hits, misses, flushes uint64
}

type tlbKey struct {
	asid uint64
	page uint64
}

type tlbSlot struct {
	key  tlbKey
	gen  uint64
	perm Perm
	used bool
	ref  bool
}

// NewTLB returns a TLB holding capacity entries.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = DefaultTLBEntries
	}
	return &TLB{slots: make([]tlbSlot, capacity)}
}

// find returns the slot caching k, or nil.
func (t *TLB) find(k tlbKey) *tlbSlot {
	for i := range t.slots[:t.hi] {
		if s := &t.slots[i]; s.key == k && s.used {
			return s
		}
	}
	return nil
}

// Lookup consults the TLB for page pg of address space asid against
// filter generation gen. It returns the cached permission and whether it
// was a hit. In non-strict mode a stale entry is still returned as a hit.
func (t *TLB) Lookup(asid, pg uint64, gen uint64) (Perm, bool) {
	s := t.find(tlbKey{asid, pg})
	if s != nil && t.Strict && s.gen != gen {
		*s, s = tlbSlot{}, nil
	}
	if s == nil {
		t.misses++
		return 0, false
	}
	s.ref = true
	perm := s.perm
	t.hits++
	return perm, true
}

// FlushCount returns the number of flush operations so far. The core's
// MRU translation cache keys on it to stay coherent with shootdowns.
func (t *TLB) FlushCount() uint64 { return t.flushes }

// Insert caches the decision for page pg of asid, evicting with the
// clock hand if full.
func (t *TLB) Insert(asid, pg uint64, perm Perm, gen uint64) {
	k := tlbKey{asid, pg}
	s := t.find(k)
	if s == nil {
		s = t.reclaim()
	}
	*s = tlbSlot{key: k, perm: perm, gen: gen, used: true, ref: true}
}

// reclaim returns a free slot, evicting via the clock hand when the
// array is full: referenced slots get a second chance (ref cleared,
// hand moves on), unreferenced ones are reclaimed.
func (t *TLB) reclaim() *tlbSlot {
	for {
		i := t.hand
		s := &t.slots[i]
		t.hand = (i + 1) % len(t.slots)
		if s.used && s.ref {
			s.ref = false
			continue
		}
		t.hi = max(t.hi, i+1)
		return s
	}
}

// Flush invalidates every entry on the core.
func (t *TLB) Flush() {
	clear(t.slots[:t.hi])
	t.hi, t.hand = 0, 0
	t.flushes++
}

// FlushRegion invalidates entries covering r in every address space —
// the shootdown a revocation triggers.
func (t *TLB) FlushRegion(r phys.Region) {
	first, end := r.Start.Page(), r.End.Page()
	for i := range t.slots[:t.hi] {
		if s := &t.slots[i]; s.used && s.key.page >= first && s.key.page < end {
			*s = tlbSlot{}
		}
	}
	t.flushes++
}

// Stats returns hit/miss/flush counters. Hits include the translations
// the owning core's MRUWays-way front-side cache served, so the ratio
// describes the whole translation path; those are added when the core's
// Run or Step returns.
func (t *TLB) Stats() (hits, misses, flushes uint64) {
	return t.hits, t.misses, t.flushes
}

// appendSlots appends a Translation for every valid slot.
func (t *TLB) appendSlots(dst []Translation) []Translation {
	for _, s := range t.slots[:t.hi] {
		if s.used {
			dst = append(dst, Translation{ASID: s.key.asid, Page: s.key.page, Perm: s.perm, Gen: s.gen})
		}
	}
	return dst
}
