package core

import (
	"testing"

	"repro/internal/ctypes"
	"repro/internal/lowfat"
)

// TestHeapViewRoutesMagazine pins the HeapView contract: the view is a
// shallow copy sharing memory, registry, caches and reporter, but its
// TypeMalloc/TypeFree go through the magazine (amortized refills), and
// the central heap Stats stay canonical across routes.
func TestHeapViewRoutesMagazine(t *testing.T) {
	rt := NewRuntime(Options{Types: ctypes.NewTable()})
	mag := rt.Heap().NewMagazine()
	view := rt.HeapView(mag)

	if view.Heap() != rt.Heap() || view.Mem() != rt.Mem() {
		t.Fatal("HeapView must share the central heap and memory")
	}
	if rt.HeapView(nil) != rt {
		t.Fatal("HeapView(nil) must return the receiver")
	}

	const n = 64
	var ptrs []uint64
	for i := 0; i < n; i++ {
		p, err := view.TypeMalloc(ctypes.Int, 40, HeapAlloc)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	if got := mag.Stats().Allocs; got != n {
		t.Fatalf("magazine served %d allocs, want %d", got, n)
	}
	if mag.Stats().Refills >= n {
		t.Fatalf("refills = %d: no amortization", mag.Stats().Refills)
	}
	hs := rt.Heap().Stats()
	if hs.Allocs != n {
		t.Fatalf("central Allocs = %d, want %d (stats stay canonical)", hs.Allocs, n)
	}

	// The base runtime's un-magazined route still works and lands in the
	// same canonical stats; types bound through the view resolve through
	// the shared registry on the base runtime (and vice versa).
	q, err := rt.TypeMalloc(ctypes.Long, 8, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _, ok := rt.DynamicType(ptrs[0]); !ok || got != ctypes.Int {
		t.Fatalf("base runtime sees view allocation as %v, ok=%v", got, ok)
	}
	if got, _, _, ok := view.DynamicType(q); !ok || got != ctypes.Long {
		t.Fatalf("view sees base allocation as %v, ok=%v", got, ok)
	}

	for _, p := range ptrs {
		view.TypeFree(p, "t")
	}
	rt.TypeFree(q, "t")
	mag.Flush()
	if hs := rt.Heap().Stats(); hs.Live != 0 {
		t.Fatalf("Live = %d after all frees", hs.Live)
	}
	if rep := rt.Reporter.Issues(); len(rep) != 0 {
		t.Fatalf("unexpected issues: %v", rep)
	}
}

// TestHeapViewComposesWithStatsView pins that the two views compose:
// stats go to the per-worker sink, allocations through the magazine.
func TestHeapViewComposesWithStatsView(t *testing.T) {
	rt := NewRuntime(Options{Types: ctypes.NewTable()})
	sink := &Stats{}
	mag := rt.Heap().NewMagazine()
	view := rt.StatsView(sink).HeapView(mag)

	p, err := view.TypeMalloc(ctypes.Int, 4, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	view.TypeCheck(p, ctypes.Int, "t")
	view.TypeFree(p, "t")

	if s := sink.Snapshot(); s.HeapAllocs != 1 || s.Frees != 1 || s.TypeChecks != 1 {
		t.Fatalf("sink = %+v, want the worker's ops", s)
	}
	if s := rt.Stats(); s.HeapAllocs != 0 {
		t.Fatalf("base sink got %d heap allocs, want 0 (they went to the view's sink)", s.HeapAllocs)
	}
	if got := mag.Stats().Allocs; got != 1 {
		t.Fatalf("magazine Allocs = %d, want 1", got)
	}
	if hs := rt.Heap().Stats(); hs.Allocs != 1 || hs.Frees != 1 {
		t.Fatalf("central heap Allocs/Frees = %d/%d, want 1/1", hs.Allocs, hs.Frees)
	}
}

// TestBoundsReportNamesCheckedObject pins that a bounds error is
// bucketed by the object its bounds came from, not by the slot the bad
// pointer lands in. Two magazines share one runtime: worker A's last
// slot of its refill run is followed directly by worker B's first, so
// A's overflow lands in B's double object. The report must still name
// A's int object, with the bucket a lone single-threaded run gives.
func TestBoundsReportNamesCheckedObject(t *testing.T) {
	rt := NewRuntime(Options{Types: ctypes.NewTable()})
	magA, magB := rt.Heap().NewMagazine(), rt.Heap().NewMagazine()
	a, b := rt.HeapView(magA), rt.HeapView(magB)

	p, err := a.TypeMalloc(ctypes.Int, 40, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	for n := magA.Stats().RefillSlots; magA.Stats().Allocs < n; {
		if p, err = a.TypeMalloc(ctypes.Int, 40, HeapAlloc); err != nil {
			t.Fatal(err)
		}
	}
	q, err := b.TypeMalloc(ctypes.Double, 40, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	if lowfat.Base(q) != lowfat.Base(p)+lowfat.Size(p) {
		t.Fatalf("B's first slot %#x does not follow A's last %#x", q, p)
	}
	bad := q + 8 // inside B's object
	if a.BoundsCheck(bad, 4, a.BoundsGet(p), ctypes.Int, "overflow") {
		t.Fatal("overflow into the neighbour passed the bounds check")
	}

	lone := NewRuntime(Options{Types: ctypes.NewTable()})
	lp, err := lone.TypeMalloc(ctypes.Int, 40, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	lone.BoundsCheck(lp+(bad-p), 4, lone.BoundsGet(lp), ctypes.Int, "overflow")

	got, want := rt.Reporter.Issues(), lone.Reporter.Issues()
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("issues: sharded %v, lone %v; want one each", got, want)
	}
	if got[0].DynamicType != "int" {
		t.Errorf("report names %q, want A's int object", got[0].DynamicType)
	}
	if g, w := *got[0], *want[0]; g.Kind != w.Kind || g.StaticType != w.StaticType ||
		g.DynamicType != w.DynamicType || g.Offset != w.Offset {
		t.Errorf("bucket %+v, want the lone run's %+v", g, w)
	}
}
