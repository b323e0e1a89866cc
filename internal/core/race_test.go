package core

import (
	"sync"
	"testing"

	"repro/internal/ctypes"
)

// TestConcurrentRuntimeStress hammers one Runtime from many goroutines
// mixing TypeMalloc, TypeCheck and TypeFree over a shared set of types.
// Run under -race it guards the lock-free structures on the check path:
// the type registry (atomic snapshot slice + sync.Map), the
// copy-on-write layout cache, and the sharded check memo cache — all of
// which are populated concurrently by the first goroutines to touch
// each type while later ones read them.
func TestConcurrentRuntimeStress(t *testing.T) {
	const (
		workers = 16
		rounds  = 200
	)
	tb := ctypes.NewTable()
	r := NewRuntime(Options{Types: tb})
	tb.MustParse("struct S { int a[3]; char *s; }")
	types := []*ctypes.Type{
		tb.MustParse("struct T { float f; struct S t; }"),
		tb.MustParse("struct U { long n; double d[2]; }"),
		tb.MustParse("struct V { char name[8]; void *p; }"),
		tb.MustParse("struct W { int n; int fam[]; }"),
	}
	statics := []*ctypes.Type{
		ctypes.Int, ctypes.Long, ctypes.Double, ctypes.Char,
		tb.PointerTo(ctypes.Void), tb.PointerTo(ctypes.Char),
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rnd := uint64(seed)*0x9e3779b97f4a7c15 + 1
			next := func(n int) int {
				rnd ^= rnd << 13
				rnd ^= rnd >> 7
				rnd ^= rnd << 17
				return int(rnd % uint64(n))
			}
			live := make([]uint64, 0, 8)
			for i := 0; i < rounds; i++ {
				T := types[next(len(types))]
				p, err := r.TypeMalloc(T, uint64(T.Size())+uint64(next(64)), HeapAlloc)
				if err != nil {
					t.Error(err)
					return
				}
				live = append(live, p)
				for j := 0; j < 4; j++ {
					q := p + uint64(next(int(T.Size())+1))
					r.TypeCheck(q, statics[next(len(statics))], "stress")
				}
				// Each goroutine frees only pointers it allocated, so
				// frees race with other goroutines' checks but never
				// double-free within one goroutine.
				if len(live) > 4 {
					victim := next(len(live))
					r.TypeFree(live[victim], "stress")
					live[victim] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			for _, p := range live {
				r.TypeFree(p, "stress")
			}
		}(w)
	}
	wg.Wait()

	st := r.Stats()
	if want := uint64(workers * rounds * 4); st.TypeChecks != want {
		t.Fatalf("TypeChecks = %d, want %d", st.TypeChecks, want)
	}
	if st.HeapAllocs != workers*rounds {
		t.Fatalf("HeapAllocs = %d, want %d", st.HeapAllocs, workers*rounds)
	}
	if st.Frees != workers*rounds {
		t.Fatalf("Frees = %d, want %d", st.Frees, workers*rounds)
	}
	// The workload repeats (type, offset, static) triples heavily, so
	// the shared memo cache must be seeing hits.
	if st.CheckCacheHits == 0 {
		t.Fatal("no check-cache hits under the stress workload")
	}
	if got, want := st.TypeChecks, st.CheckFastPath+st.CheckCacheHits+st.CheckCacheMisses; got < want {
		t.Fatalf("counter bookkeeping: TypeChecks=%d < fast+hits+misses=%d", got, want)
	}
}

// TestConcurrentLayoutCacheFirstUse races many goroutines into the
// layout cache on a fresh runtime, so table construction
// itself is contended (every goroutine may Build the same type; exactly
// one result must win and be shared).
func TestConcurrentLayoutCacheFirstUse(t *testing.T) {
	tb := ctypes.NewTable()
	r := NewRuntime(Options{Types: tb})
	T := tb.MustParse("struct T { float f; int a[3]; }")
	p, _ := r.NewArray(T, 8, HeapAlloc)

	const workers = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 100; i++ {
				r.TypeCheck(p+4, ctypes.Int, "layout-race")
			}
		}()
	}
	close(start)
	wg.Wait()
	if r.Reporter.Total() != 0 {
		t.Fatalf("unexpected errors: %s", r.Reporter.Log())
	}
	if r.Layouts().Len() != 1 {
		t.Fatalf("layout cache entries = %d, want 1", r.Layouts().Len())
	}
}

// TestConcurrentTypeIDCache races the type-id path: half the goroutines
// allocate through per-worker views (own stats sink, magazine and
// TypeIDCache, as the sharded harness gives each worker), the other half
// through the shared Runtime, alternating TypeMalloc with
// TypeMallocCached over one cache they all share (as interpreter Runs
// sharing an environment do). Six types overflow the cache's ways, so
// hits, misses and evictions interleave; every allocation's header must
// still name its own type.
func TestConcurrentTypeIDCache(t *testing.T) {
	const (
		workers = 8
		rounds  = 300
	)
	tb := ctypes.NewTable()
	r := NewRuntime(Options{Types: tb})
	types := []*ctypes.Type{
		tb.MustParse("struct A { int a; }"),
		tb.MustParse("struct B { long b[2]; }"),
		tb.MustParse("struct C { char c[24]; }"),
		tb.MustParse("struct D { double d; int n; }"),
		ctypes.Int, ctypes.Double,
	}
	var shared TypeIDCache
	sinks := make([]*Stats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sinks[w] = &Stats{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rt, ids := r, &shared
			if w%2 == 0 {
				mag := r.Heap().NewMagazine()
				defer mag.Flush()
				rt, ids = r.StatsView(sinks[w]).HeapView(mag), &TypeIDCache{}
			}
			for i := 0; i < rounds; i++ {
				T := types[(i*(w+1)+w)%len(types)]
				var p uint64
				var err error
				if i%3 == 0 {
					p, err = rt.TypeMalloc(T, uint64(T.Size()), HeapAlloc)
				} else {
					p, err = rt.TypeMallocCached(ids, T, uint64(T.Size()), HeapAlloc)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if got, _, _, ok := rt.DynamicType(p); !ok || got != T {
					t.Errorf("worker %d: allocation of %v reads back as %v", w, T, got)
					return
				}
				rt.TypeCheck(p, T, "typeid-race")
				rt.TypeFree(p, "typeid-race")
			}
		}(w)
	}
	wg.Wait()
	if r.Reporter.Total() != 0 {
		t.Fatalf("unexpected errors: %s", r.Reporter.Log())
	}
	st := r.Stats()
	for _, s := range sinks {
		st = st.Add(s.Snapshot())
	}
	if st.HeapAllocs != workers*rounds || st.Frees != workers*rounds {
		t.Fatalf("HeapAllocs=%d Frees=%d, want %d each", st.HeapAllocs, st.Frees, workers*rounds)
	}
}

// TestTypeIDsFollowFirstUse pins metadata type ids to first-use order
// whichever allocation route interns a type: the cached route hands out
// the ids TypeMalloc would, a cache that evicts re-resolves the same
// ids, and a cache carried over to another runtime hands out that
// runtime's ids, never its first runtime's.
func TestTypeIDsFollowFirstUse(t *testing.T) {
	tb := ctypes.NewTable()
	var ts []*ctypes.Type
	for _, src := range []string{
		"struct A { int a; }", "struct B { long b; }", "struct C { char c[3]; }",
		"struct D { double d; }", "struct E { int e[2]; }", "struct F { short f; }",
	} {
		ts = append(ts, tb.MustParse(src))
	}
	tid := func(r *Runtime, p uint64) uint64 { return r.Mem().Load(p-MetaSize, 8) }

	// Ids 0 and 1 are reserved (invalid, FREE); first uses count up
	// from 2 and a repeat keeps its id, through the cache or around it.
	order := []int{0, 1, 0, 2, 3, 4, 5, 1, 0, 5, 2}
	want := []uint64{2, 3, 2, 4, 5, 6, 7, 3, 2, 7, 4}
	r := NewRuntime(Options{Types: tb})
	var c TypeIDCache
	for i, k := range order {
		var p uint64
		var err error
		if i%2 == 0 {
			p, err = r.TypeMallocCached(&c, ts[k], 8, HeapAlloc)
		} else {
			p, err = r.TypeMalloc(ts[k], 8, HeapAlloc)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := tid(r, p); got != want[i] {
			t.Fatalf("allocation %d (type %d): id %d, want %d", i, k, got, want[i])
		}
	}

	// The same cache on a runtime that met the types in reverse order.
	r2 := NewRuntime(Options{Types: tb})
	for k := len(ts) - 1; k >= 0; k-- {
		if _, err := r2.TypeMalloc(ts[k], 8, HeapAlloc); err != nil {
			t.Fatal(err)
		}
	}
	for k, T := range ts {
		p, err := r2.TypeMallocCached(&c, T, 8, HeapAlloc)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tid(r2, p), uint64(2+len(ts)-1-k); got != want {
			t.Fatalf("second runtime, type %d: id %d, want %d", k, got, want)
		}
	}
}
