package core

import (
	"testing"

	"repro/internal/ctypes"
)

// TestCheckCacheHitMiss verifies the §5.3 memoization: the first check
// of a (t, k, s) triple consults the layout table (a miss), repeats hit
// the cache, and both produce identical bounds.
func TestCheckCacheHitMiss(t *testing.T) {
	r, tb := newRT(t)
	tb.MustParse("struct S { int a[3]; char *s; }")
	T := tb.MustParse("struct T { float f; struct S t; }")
	p, err := r.New(T, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	q := p + 16 // &p->t.a[2]

	first := r.TypeCheck(q, ctypes.Int, "")
	st := r.Stats()
	if st.CheckCacheMisses != 1 || st.CheckCacheHits != 0 {
		t.Fatalf("after first check: hits=%d misses=%d, want 0/1",
			st.CheckCacheHits, st.CheckCacheMisses)
	}
	if st.LayoutMatches != 1 {
		t.Fatalf("LayoutMatches = %d, want 1", st.LayoutMatches)
	}
	for i := 0; i < 10; i++ {
		if b := r.TypeCheck(q, ctypes.Int, ""); b != first {
			t.Fatalf("cached bounds %v != uncached %v", b, first)
		}
	}
	st = r.Stats()
	if st.CheckCacheHits != 10 || st.CheckCacheMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 10/1", st.CheckCacheHits, st.CheckCacheMisses)
	}
	if st.LayoutMatches != 1 {
		t.Fatalf("LayoutMatches = %d after hits, want still 1", st.LayoutMatches)
	}
	if r.Reporter.Total() != 0 {
		t.Fatalf("unexpected errors: %s", r.Reporter.Log())
	}
}

// TestCheckCacheNegativeResult verifies that failing matches are
// memoised too, and that every repeat still reports the type error (the
// cache elides the table lookup, never the diagnostic).
func TestCheckCacheNegativeResult(t *testing.T) {
	r, tb := newRT(t)
	T := tb.MustParse("struct T { float f; int a[3]; }")
	p, _ := r.New(T, HeapAlloc)

	for i := 0; i < 3; i++ {
		if b := r.TypeCheck(p+4, ctypes.Double, ""); !b.IsWide() {
			t.Fatalf("failed check must return wide bounds, got %v", b)
		}
	}
	if got := r.Reporter.Total(); got != 3 {
		t.Fatalf("errors = %d, want 3 (one per check)", got)
	}
	st := r.Stats()
	if st.CheckCacheHits != 2 || st.CheckCacheMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", st.CheckCacheHits, st.CheckCacheMisses)
	}
}

// TestCheckCacheDisabled verifies the Options knob: NoCheckCache turns
// the cache off, so every check runs the full layout match.
func TestCheckCacheDisabled(t *testing.T) {
	tb := ctypes.NewTable()
	r := NewRuntime(Options{Types: tb, NoCheckCache: true})
	if r.memo != nil {
		t.Fatal("NoCheckCache runtime has a memo cache")
	}
	T := tb.MustParse("struct T { float f; int a[3]; }")
	p, _ := r.New(T, HeapAlloc)
	for i := 0; i < 5; i++ {
		r.TypeCheck(p+4, ctypes.Int, "")
	}
	st := r.Stats()
	if st.CheckCacheHits != 0 || st.CheckCacheMisses != 0 {
		t.Fatalf("disabled cache saw traffic: hits=%d misses=%d",
			st.CheckCacheHits, st.CheckCacheMisses)
	}
	if st.LayoutMatches != 5 {
		t.Fatalf("LayoutMatches = %d, want 5 (one per check)", st.LayoutMatches)
	}
}

// TestTypeCheckFastPath verifies the dominant-case fast path: a pointer
// at the allocation base checked against its own dynamic type returns
// the allocation bounds without touching the layout table or the cache.
func TestTypeCheckFastPath(t *testing.T) {
	r, tb := newRT(t)
	T := tb.MustParse("struct T { float f; int a[3]; }")
	p, _ := r.NewArray(T, 4, HeapAlloc)

	b := r.TypeCheck(p, T, "")
	if want := (Bounds{p, p + 4*uint64(T.Size())}); b != want {
		t.Fatalf("bounds = %v, want allocation %v", b, want)
	}
	st := r.Stats()
	if st.CheckFastPath != 1 {
		t.Fatalf("CheckFastPath = %d, want 1", st.CheckFastPath)
	}
	if st.LayoutMatches != 0 || st.CheckCacheMisses != 0 {
		t.Fatalf("fast path must bypass the table: matches=%d misses=%d",
			st.LayoutMatches, st.CheckCacheMisses)
	}
	// An interior element pointer is not the fast-path case (k != 0) and
	// must produce the same bounds the layout table computes.
	b2 := r.TypeCheck(p+uint64(T.Size()), T, "")
	if b2 != (Bounds{p, p + 4*uint64(T.Size())}) {
		t.Fatalf("interior element bounds = %v", b2)
	}
	if got := r.Stats().CheckFastPath; got != 1 {
		t.Fatalf("CheckFastPath = %d, want still 1", got)
	}
}

// TestCheckCacheParity runs an identical mixed workload — exact matches,
// coercions, FAM accesses, type errors, use-after-free — on a cached and
// an uncached runtime and requires identical bounds and identical error
// logs: caching must never change what is detected (§5.3 is performance
// only).
func TestCheckCacheParity(t *testing.T) {
	run := func(noCache bool) (bounds []Bounds, log string, st StatsSnapshot) {
		tb := ctypes.NewTable()
		r := NewRuntime(Options{Types: tb, NoCheckCache: noCache})
		tb.MustParse("struct S { int a[3]; char *s; }")
		T := tb.MustParse("struct T { float f; struct S t; }")
		F := tb.MustParse("struct F { int n; int fam[]; }")
		p, _ := r.New(T, HeapAlloc)
		fp, _ := r.TypeMalloc(F, uint64(F.Size())+40, HeapAlloc)
		vp := tb.PointerTo(ctypes.Void)
		ip := tb.PointerTo(ctypes.Int)

		checks := []struct {
			p uint64
			s *ctypes.Type
		}{
			{p, T},                  // fast path
			{p + 16, ctypes.Int},    // sub-object exact
			{p + 16, ctypes.Int},    // repeat (cache hit on one side)
			{p + 16, ctypes.Double}, // type error, repeated below
			{p + 16, ctypes.Double},
			{p + 8, ctypes.Char},  // char coercion (static side)
			{p + 20, vp},          // pointer vs char* slot — mixed
			{p + 20, ip},          // type error or coercion per layout
			{fp + 4, ctypes.Int},  // FAM element
			{fp + 12, ctypes.Int}, // deeper FAM element, normalised
		}
		for _, c := range checks {
			bounds = append(bounds, r.TypeCheck(c.p, c.s, "parity"))
		}
		r.TypeFree(p, "parity")
		bounds = append(bounds, r.TypeCheck(p+16, ctypes.Int, "parity")) // UAF
		return bounds, r.Reporter.Log(), r.Stats()
	}

	cb, clog, cst := run(false)
	ub, ulog, ust := run(true)
	if len(cb) != len(ub) {
		t.Fatalf("bounds count mismatch: %d vs %d", len(cb), len(ub))
	}
	for i := range cb {
		if cb[i] != ub[i] {
			t.Fatalf("check %d: cached bounds %v != uncached %v", i, cb[i], ub[i])
		}
	}
	if clog != ulog {
		t.Fatalf("error logs diverge:\ncached:\n%s\nuncached:\n%s", clog, ulog)
	}
	if cst.CheckCacheHits == 0 {
		t.Fatal("cached run recorded no hits")
	}
	if cst.LayoutMatches >= ust.LayoutMatches {
		t.Fatalf("cached run must perform fewer layout matches: %d vs %d",
			cst.LayoutMatches, ust.LayoutMatches)
	}
}
