package core

import "sync/atomic"

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
// runtime with Runtime.MergeStats.
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

	// Layout-metadata footprint counters (the bounded layout cache,
	// docs/ARCHITECTURE.md "Layout metadata"). LayoutTablesBuilt counts
	// table constructions (cache misses, including rebuilds after
	// eviction); LayoutTablesInterned counts the built tables whose
	// structural core matched the intern pool; LayoutTablesEvicted
	// counts cached identities evicted under Options.LayoutCacheCap.
	// LayoutBytesResident is a signed-delta gauge, not a monotone
	// counter: every build/evict event adds its two's-complement byte
	// delta, so per-worker views still sum to the true net under
	// Merge/Add/Sub — read it via StatsSnapshot.LayoutResidentBytes.
	LayoutTablesBuilt    atomic.Uint64
	LayoutTablesInterned atomic.Uint64
	LayoutTablesEvicted  atomic.Uint64
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
	LayoutTablesEvicted  uint64
	LayoutBytesResident  uint64

	HeapAllocs   uint64
	StackAllocs  uint64
	GlobalAllocs uint64
	Frees        uint64
	LegacyFrees  uint64
}

// counters lists every counter in canonical order — the single source of
// truth shared by Snapshot, Merge and the StatsSnapshot arithmetic. A
// new counter is added here and in fields, in the same position
// (TestStatsFieldParity enforces the pairing).
func (s *Stats) counters() []*atomic.Uint64 {
	return []*atomic.Uint64{
		&s.TypeChecks, &s.NullTypeChecks, &s.LegacyTypeChecks,
		&s.BoundsChecks, &s.BoundsGets, &s.BoundsNarrows,
		&s.CharCoercions, &s.VoidPtrCoercions,
		&s.CheckFastPath, &s.InlineCacheHits, &s.InlineCacheMisses,
		&s.CheckCacheHits, &s.CheckCacheMisses, &s.LayoutMatches,
		&s.LayoutTablesBuilt, &s.LayoutTablesInterned,
		&s.LayoutTablesEvicted, &s.LayoutBytesResident,
		&s.HeapAllocs, &s.StackAllocs, &s.GlobalAllocs,
		&s.Frees, &s.LegacyFrees,
	}
}

// fields lists every snapshot field in the same canonical order as
// Stats.counters.
func (v *StatsSnapshot) fields() []*uint64 {
	return []*uint64{
		&v.TypeChecks, &v.NullTypeChecks, &v.LegacyTypeChecks,
		&v.BoundsChecks, &v.BoundsGets, &v.BoundsNarrows,
		&v.CharCoercions, &v.VoidPtrCoercions,
		&v.CheckFastPath, &v.InlineCacheHits, &v.InlineCacheMisses,
		&v.CheckCacheHits, &v.CheckCacheMisses, &v.LayoutMatches,
		&v.LayoutTablesBuilt, &v.LayoutTablesInterned,
		&v.LayoutTablesEvicted, &v.LayoutBytesResident,
		&v.HeapAllocs, &v.StackAllocs, &v.GlobalAllocs,
		&v.Frees, &v.LegacyFrees,
	}
}

// Snapshot returns a plain-value copy of the counters. Each counter is
// loaded atomically; under concurrent writers the snapshot is not a
// single point-in-time cut across counters, which is the usual (and
// sufficient) semantics for monotone statistics.
func (s *Stats) Snapshot() StatsSnapshot {
	var v StatsSnapshot
	f := v.fields()
	for i, c := range s.counters() {
		*f[i] = c.Load()
	}
	return v
}

// Merge atomically folds every counter of d into s. The sharded harness
// uses it to accumulate per-worker snapshots into the base runtime's
// sink, so aggregate numbers remain readable from the Runtime itself.
func (s *Stats) Merge(d StatsSnapshot) {
	f := d.fields()
	for i, c := range s.counters() {
		if n := *f[i]; n != 0 {
			c.Add(n)
		}
	}
}

// Add returns the field-wise sum of two snapshots (aggregating
// per-worker numbers).
func (a StatsSnapshot) Add(b StatsSnapshot) StatsSnapshot {
	af, bf := a.fields(), b.fields()
	for i := range af {
		*af[i] += *bf[i]
	}
	return a
}

// Sub returns the field-wise difference a-b — the delta between two
// snapshots of the same Stats taken at different times.
func (a StatsSnapshot) Sub(b StatsSnapshot) StatsSnapshot {
	af, bf := a.fields(), b.fields()
	for i := range af {
		*af[i] -= *bf[i]
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
	r.stats.Merge(d)
}

// FoldChecks adds counts of checks a caller resolved without calling the
// runtime — passing bounds and escape checks (bounds) and bounds
// narrows (narrows) — to the BoundsChecks and BoundsNarrows counters.
// The interpreter tallies the checks it runs inline per Run and
// folds them here once when the Run returns, so the counters are exact
// at quiescence without an atomic add per check.
func (r *Runtime) FoldChecks(bounds, narrows uint64) {
	if bounds != 0 {
		r.stats.BoundsChecks.Add(bounds)
	}
	if narrows != 0 {
		r.stats.BoundsNarrows.Add(narrows)
	}
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

// LayoutResidentBytes returns the net modelled resident footprint of
// layout metadata as a signed quantity (LayoutBytesResident accumulates
// two's-complement deltas).
func (s StatsSnapshot) LayoutResidentBytes() int64 {
	return int64(s.LayoutBytesResident)
}

// LayoutInternRate returns the fraction of built layout tables whose
// structural core was shared from the intern pool, or 0 when no tables
// were built.
func (s StatsSnapshot) LayoutInternRate() float64 {
	if s.LayoutTablesBuilt == 0 {
		return 0
	}
	return float64(s.LayoutTablesInterned) / float64(s.LayoutTablesBuilt)
}

// LegacyRatio returns the fraction of type checks performed on legacy
// pointers — the paper reports ~1.1% for SPEC2006, its coverage metric.
func (s StatsSnapshot) LegacyRatio() float64 {
	if s.TypeChecks == 0 {
		return 0
	}
	return float64(s.LegacyTypeChecks) / float64(s.TypeChecks)
}
