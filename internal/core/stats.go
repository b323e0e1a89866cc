package core

import (
	"sync/atomic"
	"unsafe"
)

// Stats holds the runtime's check counters, the quantities reported in
// Fig. 7 (#Type, #Bound) and the legacy-pointer coverage ratio (§6.1).
// All fields are updated atomically, so one Stats may be written from
// many goroutines; read a plain-value copy via Snapshot (or
// Runtime.Stats), which returns a StatsSnapshot.
//
// A Runtime owns one Stats sink, but sharded multi-threaded runs give
// each worker its own sink through Runtime.StatsView so per-worker and
// aggregate numbers are both available: snapshot each worker's Stats,
// combine with StatsSnapshot.Add, and fold the total back into the base
// runtime with Runtime.MergeStats. Hot-path counts need not touch the
// sink at all: the interpreter counts each Run's checks into a
// StatsSnapshot of its own (Runtime.TypeCheckInto) and merges it once
// when the Run ends.
type Stats struct {
	TypeChecks       atomic.Uint64
	NullTypeChecks   atomic.Uint64
	LegacyTypeChecks atomic.Uint64
	BoundsChecks     atomic.Uint64
	BoundsGets       atomic.Uint64
	BoundsNarrows    atomic.Uint64
	CharCoercions    atomic.Uint64
	VoidPtrCoercions atomic.Uint64

	// §5.3 optimisation counters: checks resolved by the exact-match
	// fast path (level 1), per-site inline-cache hits/misses (level 2),
	// shared check-cache hits/misses (level 3), and the number of times
	// the layout hash table was actually consulted — the all-levels-miss
	// path (TypeChecks ≥ LayoutMatches; the gap is the work the cache
	// levels elided). docs/ARCHITECTURE.md documents every counter.
	CheckFastPath     atomic.Uint64
	InlineCacheHits   atomic.Uint64
	InlineCacheMisses atomic.Uint64
	CheckCacheHits    atomic.Uint64
	CheckCacheMisses  atomic.Uint64
	LayoutMatches     atomic.Uint64

	// Layout-metadata footprint counters (docs/ARCHITECTURE.md "Layout
	// metadata"). LayoutTablesBuilt counts table constructions (cache
	// misses); LayoutTablesInterned counts the built tables whose
	// structural core matched the intern pool; LayoutBytesResident adds
	// the modelled bytes each build made resident. Tables are never
	// evicted, so all three only grow.
	LayoutTablesBuilt    atomic.Uint64
	LayoutTablesInterned atomic.Uint64
	LayoutBytesResident  atomic.Uint64

	HeapAllocs   atomic.Uint64
	StackAllocs  atomic.Uint64
	GlobalAllocs atomic.Uint64
	Frees        atomic.Uint64
	LegacyFrees  atomic.Uint64
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	TypeChecks       uint64
	NullTypeChecks   uint64
	LegacyTypeChecks uint64
	BoundsChecks     uint64
	BoundsGets       uint64
	BoundsNarrows    uint64
	CharCoercions    uint64
	VoidPtrCoercions uint64

	CheckFastPath     uint64
	InlineCacheHits   uint64
	InlineCacheMisses uint64
	CheckCacheHits    uint64
	CheckCacheMisses  uint64
	LayoutMatches     uint64

	LayoutTablesBuilt    uint64
	LayoutTablesInterned uint64
	LayoutBytesResident  uint64

	HeapAllocs   uint64
	StackAllocs  uint64
	GlobalAllocs uint64
	Frees        uint64
	LegacyFrees  uint64
}

// nCounters is the number of counters: Stats and StatsSnapshot declare
// the same counters, one 8-byte word each, under the same names in the
// same order (TestStatsFieldParity).
const nCounters = unsafe.Sizeof(StatsSnapshot{}) / 8

// counters views s as an array of its counters in declaration order —
// the canonical order shared by Snapshot, Merge and the StatsSnapshot
// arithmetic, so the struct declarations are the single source of
// truth: a new counter is declared in both structs, in the same
// position, and nothing else. A view costs nothing, which keeps Merge
// cheap enough to run once per public TypeCheckAt.
func (s *Stats) counters() *[nCounters]atomic.Uint64 {
	return (*[nCounters]atomic.Uint64)(unsafe.Pointer(s))
}

// fields views v as an array of its fields in the same canonical order
// as Stats.counters.
func (v *StatsSnapshot) fields() *[nCounters]uint64 {
	return (*[nCounters]uint64)(unsafe.Pointer(v))
}

// Snapshot returns a plain-value copy of the counters. Each counter is
// loaded atomically; under concurrent writers the snapshot is not a
// single point-in-time cut across counters, which is the usual (and
// sufficient) semantics for monotone statistics.
func (s *Stats) Snapshot() StatsSnapshot {
	var v StatsSnapshot
	c, f := s.counters(), v.fields()
	for i := range c {
		f[i] = c[i].Load()
	}
	return v
}

// Merge atomically folds every counter of d into s. The sharded harness
// uses it to accumulate per-worker snapshots into the base runtime's
// sink, so aggregate numbers remain readable from the Runtime itself.
func (s *Stats) Merge(d *StatsSnapshot) {
	c := s.counters()
	for i, n := range d.fields() {
		if n != 0 {
			c[i].Add(n)
		}
	}
}

// Add returns the field-wise sum of two snapshots (aggregating
// per-worker numbers).
func (a StatsSnapshot) Add(b StatsSnapshot) StatsSnapshot {
	af, bf := a.fields(), b.fields()
	for i := range af {
		af[i] += bf[i]
	}
	return a
}

// Sub returns the field-wise difference a-b — the delta between two
// snapshots of the same Stats taken at different times.
func (a StatsSnapshot) Sub(b StatsSnapshot) StatsSnapshot {
	af, bf := a.fields(), b.fields()
	for i := range af {
		af[i] -= bf[i]
	}
	return a
}

// Stats returns a snapshot of the runtime's counter sink. For a view
// returned by StatsView this is the view's own sink, not the base
// runtime's.
func (r *Runtime) Stats() StatsSnapshot {
	return r.stats.Snapshot()
}

// MergeStats atomically folds a snapshot into the runtime's counter sink
// (see Stats.Merge).
func (r *Runtime) MergeStats(d StatsSnapshot) {
	r.stats.Merge(&d)
}

// CheckCacheHitRate returns the fraction of shared check-cache lookups
// that hit, or 0 when the cache saw no traffic. Inline-cache hits never
// reach the shared cache, so the two rates measure disjoint traffic.
func (s StatsSnapshot) CheckCacheHitRate() float64 {
	total := s.CheckCacheHits + s.CheckCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CheckCacheHits) / float64(total)
}

// InlineCacheHitRate returns the fraction of per-site inline-cache
// lookups that hit, or 0 when no sited checks ran.
func (s StatsSnapshot) InlineCacheHitRate() float64 {
	total := s.InlineCacheHits + s.InlineCacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.InlineCacheHits) / float64(total)
}

// LayoutResidentBytes returns the modelled resident footprint of layout
// metadata in bytes.
func (s StatsSnapshot) LayoutResidentBytes() uint64 {
	return s.LayoutBytesResident
}

// LegacyRatio returns the fraction of type checks performed on legacy
// pointers — the paper reports ~1.1% for SPEC2006, its coverage metric.
func (s StatsSnapshot) LegacyRatio() float64 {
	if s.TypeChecks == 0 {
		return 0
	}
	return float64(s.LegacyTypeChecks) / float64(s.TypeChecks)
}
