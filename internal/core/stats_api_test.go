package core

import (
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/ctypes"
)

// TestStatsFieldParity pins the layout that Stats.counters and
// StatsSnapshot.fields view as arrays: both structs declare nCounters
// counters, one 8-byte word each, under the same names in the same
// order, and element i of each view is field i, so
// Snapshot/Merge/Add/Sub stay in sync when a counter is added.
func TestStatsFieldParity(t *testing.T) {
	var s Stats
	var v StatsSnapshot
	sv, vv := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&v).Elem()
	if sv.NumField() != int(nCounters) || vv.NumField() != int(nCounters) ||
		unsafe.Sizeof(s) != nCounters*8 || unsafe.Sizeof(v) != nCounters*8 {
		t.Fatalf("Stats has %d fields in %d bytes, StatsSnapshot %d in %d; want %d in %d",
			sv.NumField(), unsafe.Sizeof(s), vv.NumField(), unsafe.Sizeof(v), nCounters, nCounters*8)
	}
	cs, fs := s.counters(), v.fields()
	for i := 0; i < int(nCounters); i++ {
		sf, vf := sv.Type().Field(i), vv.Type().Field(i)
		if sf.Type != reflect.TypeOf(atomic.Uint64{}) || vf.Type != reflect.TypeOf(uint64(0)) {
			t.Errorf("field %d: Stats.%s is %s, StatsSnapshot.%s is %s", i, sf.Name, sf.Type, vf.Name, vf.Type)
		}
		if sf.Name != vf.Name {
			t.Errorf("field %d: Stats.%s vs StatsSnapshot.%s", i, sf.Name, vf.Name)
		}
		if sv.Field(i).Addr().Pointer() != uintptr(unsafe.Pointer(&cs[i])) {
			t.Errorf("counters()[%d] is not field %s", i, sf.Name)
		}
		if vv.Field(i).Addr().Pointer() != uintptr(unsafe.Pointer(&fs[i])) {
			t.Errorf("fields()[%d] is not field %s", i, vf.Name)
		}
	}
}

// TestStatsMergeArithmetic exercises Snapshot, Merge and the snapshot
// Add/Sub arithmetic the sharded harness aggregates with.
func TestStatsMergeArithmetic(t *testing.T) {
	var s Stats
	s.TypeChecks.Add(7)
	s.BoundsChecks.Add(3)
	s.LayoutMatches.Add(1)

	snap := s.Snapshot()
	if snap.TypeChecks != 7 || snap.BoundsChecks != 3 || snap.LayoutMatches != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}

	var agg Stats
	agg.Merge(&snap)
	agg.Merge(&snap)
	if got := agg.Snapshot().TypeChecks; got != 14 {
		t.Fatalf("merged TypeChecks = %d, want 14", got)
	}

	sum := snap.Add(snap)
	if sum.TypeChecks != 14 || sum.BoundsChecks != 6 {
		t.Fatalf("Add = %+v", sum)
	}
	if snap.TypeChecks != 7 {
		t.Fatalf("Add mutated its receiver: %+v", snap)
	}
	delta := sum.Sub(snap)
	if delta != snap {
		t.Fatalf("Sub: %+v, want %+v", delta, snap)
	}
}

// TestStatsView asserts the per-worker view semantics: a view sinks
// counters into its own Stats while sharing every runtime structure with
// the base — the caches a view warms serve the base (and vice versa).
func TestStatsView(t *testing.T) {
	tb := ctypes.NewTable()
	rt := NewRuntime(Options{Types: tb, Mode: ModeCount})
	T := tb.MustParse("struct SV { float f; int a[3]; }")
	p, err := rt.New(T, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}

	var ws Stats
	view := rt.StatsView(&ws)
	if view == rt {
		t.Fatal("StatsView returned the base runtime")
	}
	if rt.StatsView(nil) != rt {
		t.Fatal("StatsView(nil) should be the identity")
	}

	const n = 5
	const siteID = 3
	for i := 0; i < n; i++ {
		view.TypeCheckAt(p+4, ctypes.Int, siteID, "view") // sub-object: consults the caches
	}
	if got := rt.Stats().TypeChecks; got != 0 {
		t.Fatalf("base sink saw %d checks; view should have absorbed them", got)
	}
	vs := ws.Snapshot()
	if vs.TypeChecks != n {
		t.Fatalf("view sink TypeChecks = %d, want %d", vs.TypeChecks, n)
	}
	if vs.InlineCacheHits+vs.InlineCacheMisses != n {
		t.Fatalf("inline traffic %d+%d, want %d", vs.InlineCacheHits, vs.InlineCacheMisses, n)
	}

	// The caches are shared: the base runtime's first check of the same
	// site must hit the inline entry the view populated.
	rt.TypeCheckAt(p+4, ctypes.Int, siteID, "base")
	bs := rt.Stats()
	if bs.InlineCacheHits != 1 || bs.InlineCacheMisses != 0 {
		t.Fatalf("base inline hits/misses = %d/%d, want 1/0 (cache not shared?)",
			bs.InlineCacheHits, bs.InlineCacheMisses)
	}

	// MergeStats folds the worker numbers back into the base sink.
	rt.MergeStats(vs)
	if got := rt.Stats().TypeChecks; got != n+1 {
		t.Fatalf("after merge, base TypeChecks = %d, want %d", got, n+1)
	}
	if rt.Reporter.Total() != 0 {
		t.Fatalf("unexpected reports: %s", rt.Reporter.Log())
	}
}

// TestTypeCheckAtMergesCascade runs the same checks through the public
// TypeCheckAt on one runtime and through TypeCheckInto, counting into a
// caller's snapshot, on a twin: the sink of the first must end up with
// exactly the snapshot of the second, over every way the cascade
// resolves — null, legacy, freed, fast path, inline hit and miss, memo
// hit and miss, the void* coercion, a type error — and over a check whose report
// aborts (AbortError), which must still be counted.
func TestTypeCheckAtMergesCascade(t *testing.T) {
	type fixture struct {
		r                   *Runtime
		T, S, voidPtr       *ctypes.Type
		base, freed, legacy uint64
	}
	setup := func(abortAfter uint64) *fixture {
		tb := ctypes.NewTable()
		f := &fixture{r: NewRuntime(Options{Types: tb, AbortAfter: abortAfter})}
		f.S = tb.MustParse("struct S { int a[3]; char *s; }")
		f.T = tb.MustParse("struct T { float f; struct S t; }")
		f.voidPtr = tb.PointerTo(ctypes.Void)
		var err error
		if f.base, err = f.r.NewArray(f.T, 4, HeapAlloc); err != nil {
			t.Fatal(err)
		}
		f.freed, _ = f.r.New(f.T, HeapAlloc)
		f.r.TypeFree(f.freed, "free")
		f.legacy = f.r.LegacyAlloc(64)
		return f
	}
	checks := []struct {
		arg  func(f *fixture) (uint64, *ctypes.Type)
		site int64
	}{
		{func(f *fixture) (uint64, *ctypes.Type) { return 0, f.T }, 1},                    // null
		{func(f *fixture) (uint64, *ctypes.Type) { return f.legacy, f.T }, 2},             // legacy
		{func(f *fixture) (uint64, *ctypes.Type) { return f.freed, f.T }, 3},              // freed: use after free
		{func(f *fixture) (uint64, *ctypes.Type) { return f.base, f.T }, 4},               // fast path
		{func(f *fixture) (uint64, *ctypes.Type) { return f.base + 8, f.S }, 5},           // inline miss
		{func(f *fixture) (uint64, *ctypes.Type) { return f.base + 40, f.S }, 5},          // inline hit
		{func(f *fixture) (uint64, *ctypes.Type) { return f.base + 72, f.S }, 0},          // unsited: memo hit
		{func(f *fixture) (uint64, *ctypes.Type) { return f.base + 72, ctypes.Int }, 0},   // memo miss
		{func(f *fixture) (uint64, *ctypes.Type) { return f.base + 24, f.voidPtr }, 6},    // void* coercion
		{func(f *fixture) (uint64, *ctypes.Type) { return f.base + 8, ctypes.Double }, 7}, // type error
	}
	for _, abortAfter := range []uint64{0, 2} {
		pub, own := setup(abortAfter), setup(abortAfter)
		var snap StatsSnapshot
		aborted := 0
		for _, c := range checks {
			func() {
				defer func() {
					if _, ok := recover().(AbortError); ok {
						aborted++
					}
				}()
				p, s := c.arg(pub)
				pub.r.TypeCheckAt(p, s, c.site, "check")
			}()
			func() {
				defer func() { recover() }()
				p, s := c.arg(own)
				own.r.TypeCheckInto(&snap, p, s, c.site, "check")
			}()
		}
		own.r.MergeStats(snap)
		if got, want := pub.r.Stats(), own.r.Stats(); got != want {
			t.Errorf("AbortAfter %d: TypeCheckAt counted %+v\nTypeCheckInto, merged, %+v", abortAfter, got, want)
		}
		if want := min(abortAfter, 1); uint64(aborted) != want {
			t.Errorf("AbortAfter %d: %d checks aborted, want %d", abortAfter, aborted, want)
		}
		if snap.TypeChecks != uint64(len(checks)) || snap.NullTypeChecks != 1 || snap.LegacyTypeChecks != 1 ||
			snap.CheckFastPath != 1 || snap.InlineCacheHits != 1 || snap.InlineCacheMisses != 3 ||
			snap.CheckCacheHits == 0 || snap.CheckCacheMisses == 0 || snap.VoidPtrCoercions != 1 {
			t.Errorf("AbortAfter %d: the checks did not take every path: %+v", abortAfter, snap)
		}
	}
}
