package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ctypes"
)

// inlineFixture builds a runtime and an array-of-struct allocation with
// a few representative check sites.
func inlineFixture(t testing.TB, opts Options) (*Runtime, uint64, *ctypes.Type) {
	t.Helper()
	tb := ctypes.NewTable()
	if opts.Types == nil {
		opts.Types = tb
	}
	rt := NewRuntime(opts)
	tb.MustParse("struct IS { int a[3]; char *s; }")
	T := tb.MustParse("struct IT { float f; struct IS t; }")
	p, err := rt.NewArray(T, 16, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	return rt, p, T
}

// TestInlineCacheHitsPerSite: a site that repeatedly checks the same
// (dynamic type, normalised offset, static type) triple hits its inline
// entry on every check after the first, even across different array
// elements (the key offset is normalised).
func TestInlineCacheHitsPerSite(t *testing.T) {
	rt, p, T := inlineFixture(t, Options{})
	sz := uint64(T.Size())
	const site = int64(7)
	for i := 0; i < 32; i++ {
		// Offset 8 within each element: IS.a[0], static int.
		rt.TypeCheckAt(p+uint64(i%16)*sz+8, ctypes.Int, site, "t")
	}
	st := rt.Stats()
	if st.InlineCacheMisses != 1 || st.InlineCacheHits != 31 {
		t.Fatalf("inline hits/misses = %d/%d, want 31/1", st.InlineCacheHits, st.InlineCacheMisses)
	}
	if st.LayoutMatches != 1 {
		t.Fatalf("layout matches = %d, want 1 (first check only)", st.LayoutMatches)
	}
	if got := st.InlineCacheHitRate(); got < 0.95 {
		t.Fatalf("inline hit rate = %.2f, want ~0.97", got)
	}
	if rt.Reporter.Total() != 0 {
		t.Fatalf("clean checks reported errors:\n%s", rt.Reporter.Log())
	}
}

// TestInlineCacheSiteIsolation: two sites alternating over different
// static types each keep their own entry — the shared cache would serve
// both, but the per-site form must not thrash.
func TestInlineCacheSiteIsolation(t *testing.T) {
	rt, p, _ := inlineFixture(t, Options{NoCheckCache: true}) // isolate the inline level
	charPtr := rt.Types().PointerTo(ctypes.Char)
	for i := 0; i < 16; i++ {
		rt.TypeCheckAt(p+8, ctypes.Int, 1, "a")
		rt.TypeCheckAt(p+24, charPtr, 2, "b")
	}
	st := rt.Stats()
	if st.InlineCacheMisses != 2 {
		t.Fatalf("inline misses = %d, want 2 (one cold miss per site)", st.InlineCacheMisses)
	}
	if st.InlineCacheHits != 30 {
		t.Fatalf("inline hits = %d, want 30", st.InlineCacheHits)
	}
	// With the shared cache disabled, everything else is layout matches.
	if st.LayoutMatches != 2 {
		t.Fatalf("layout matches = %d, want 2", st.LayoutMatches)
	}
}

// TestInlineCacheUnsitedBypasses: site ID 0 (plain TypeCheck) must not
// touch the inline level.
func TestInlineCacheUnsitedBypasses(t *testing.T) {
	rt, p, _ := inlineFixture(t, Options{})
	for i := 0; i < 8; i++ {
		rt.TypeCheck(p+8, ctypes.Int, "t")
	}
	st := rt.Stats()
	if st.InlineCacheHits+st.InlineCacheMisses != 0 {
		t.Fatalf("unsited checks touched the inline cache: %+v", st)
	}
	if st.CheckCacheHits == 0 {
		t.Fatal("unsited checks should still use the shared cache")
	}
}

// TestInlineCacheDisabled: NoInlineCache routes sited checks straight to
// the shared cache.
func TestInlineCacheDisabled(t *testing.T) {
	rt, p, _ := inlineFixture(t, Options{NoInlineCache: true})
	for i := 0; i < 8; i++ {
		rt.TypeCheckAt(p+8, ctypes.Int, 3, "t")
	}
	st := rt.Stats()
	if st.InlineCacheHits+st.InlineCacheMisses != 0 {
		t.Fatalf("disabled inline cache saw traffic: %+v", st)
	}
	if st.CheckCacheHits != 7 {
		t.Fatalf("shared hits = %d, want 7", st.CheckCacheHits)
	}
	if rt.InlineCacheSites() != 0 {
		t.Fatal("disabled inline cache allocated slots")
	}
}

// TestInlineCacheRebindSafety: a hot inline entry must never validate
// after the allocation's metadata is rebound — free flips the type id to
// FREE, so the use-after-free is reported exactly as if uncached.
func TestInlineCacheRebindSafety(t *testing.T) {
	rt, p, _ := inlineFixture(t, Options{Quarantine: 1 << 20})
	const site = int64(4)
	for i := 0; i < 16; i++ {
		rt.TypeCheckAt(p+8, ctypes.Int, site, "hot")
	}
	if rt.Reporter.Total() != 0 {
		t.Fatalf("pre-free checks errored:\n%s", rt.Reporter.Log())
	}
	rt.TypeFree(p, "free")
	rt.TypeCheckAt(p+8, ctypes.Int, site, "uaf")
	if got := rt.Reporter.IssuesByKind()[UseAfterFree]; got != 1 {
		t.Fatalf("use-after-free through a hot inline entry: %d reports, want 1\n%s",
			got, rt.Reporter.Log())
	}
}

// TestInlineCacheGrowth: site IDs far beyond the initial capacity grow
// the slot array without losing earlier entries.
func TestInlineCacheGrowth(t *testing.T) {
	rt, p, _ := inlineFixture(t, Options{})
	rt.TypeCheckAt(p+8, ctypes.Int, 1, "t") // warm site 1
	rt.TypeCheckAt(p+8, ctypes.Int, 1000, "t")
	if got := rt.InlineCacheSites(); got < 1000 {
		t.Fatalf("inline sites = %d, want >= 1000", got)
	}
	before := rt.Stats().InlineCacheHits
	rt.TypeCheckAt(p+8, ctypes.Int, 1, "t")
	if rt.Stats().InlineCacheHits != before+1 {
		t.Fatal("growth lost the pre-growth entry for site 1")
	}
}

// TestInlineCacheConcurrent hammers overlapping site IDs from many
// goroutines (forcing concurrent growth) and then verifies every site
// still resolves correctly. Run under -race in CI.
func TestInlineCacheConcurrent(t *testing.T) {
	rt, p, T := inlineFixture(t, Options{})
	sz := uint64(T.Size())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				site := int64(1 + (g*37+i)%300)
				rt.TypeCheckAt(p+uint64(i%16)*sz+8, ctypes.Int, site, "c")
			}
		}(g)
	}
	wg.Wait()
	if rt.Reporter.Total() != 0 {
		t.Fatalf("concurrent checks reported errors:\n%s", rt.Reporter.Log())
	}
	st := rt.Stats()
	if st.InlineCacheHits == 0 {
		t.Fatal("no inline hits under concurrency")
	}
	// Entries must still be key-consistent: a final sweep hits every site.
	for site := int64(1); site <= 300; site++ {
		b := rt.TypeCheckAt(p+8, ctypes.Int, site, "sweep")
		if b == Wide {
			t.Fatalf("site %d returned wide bounds for a valid sub-object", site)
		}
	}
}

func ExampleStatsSnapshot_InlineCacheHitRate() {
	tb := ctypes.NewTable()
	rt := NewRuntime(Options{Types: tb})
	T := tb.MustParse("struct EX { int a; int b; }")
	p, _ := rt.New(T, HeapAlloc)
	for i := 0; i < 4; i++ {
		rt.TypeCheckAt(p+4, ctypes.Int, 1, "ex")
	}
	st := rt.Stats()
	fmt.Printf("inline %.2f shared %.2f\n", st.InlineCacheHitRate(), st.CheckCacheHitRate())
	// Output: inline 0.75 shared 0.00
}
