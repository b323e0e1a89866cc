package layout

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ctypes"
)

// TestInternStructuralSharing is the table-driven hit/miss suite for the
// structural intern pool: two types share one core exactly when their
// entry relations coincide under the self-key abstraction. Tags and
// field names never matter; *which named types* appear as sub-objects
// always does (their key ids differ, so the relations differ).
func TestInternStructuralSharing(t *testing.T) {
	tb := ctypes.NewTable()
	cases := []struct {
		name  string
		a, b  *ctypes.Type
		share bool
	}{
		{
			// Same field classes, different tag and field names: the
			// identities differ but the structural relation is identical.
			name:  "renamed tag and fields",
			a:     tb.MustParse("struct IA { int x; long y; }"),
			b:     tb.MustParse("struct IB { int u; long v; }"),
			share: true,
		},
		{
			// Both embed the SAME named struct: the nested type's key id
			// appears identically in both relations.
			name:  "same nested named struct",
			a:     tb.MustParse("struct OA { struct IA n; short t; }"),
			b:     tb.MustParse("struct OB { struct IA m; short u; }"),
			share: true,
		},
		{
			// Embedding two DIFFERENT named structs that are themselves
			// layout-isomorphic must NOT intern: the sub-object checks
			// (S = struct IA vs struct IB) resolve against different key
			// ids, and collapsing them would let a *struct IA pass a
			// check against a struct IB sub-object.
			name:  "distinct isomorphic nested structs",
			a:     tb.MustParse("struct PA { struct IA n; }"),
			b:     tb.MustParse("struct PB { struct IB n; }"),
			share: false,
		},
		{
			// A flexible array member changes the table geometry
			// (famOffset/famElemSize and the unbounded tail row).
			name:  "FAM vs fixed tail",
			a:     tb.MustParse("struct FA { long n; int tail[]; }"),
			b:     tb.MustParse("struct FB { long n; int tail[4]; }"),
			share: false,
		},
		{
			// Different extents of the same element class: the row
			// bounds differ even though the key sets coincide.
			name:  "different array extents",
			a:     tb.MustParse("struct XA { int v[8]; }"),
			b:     tb.MustParse("struct XB { int v[16]; }"),
			share: false,
		},
		{
			// Anonymous unions with the same member types but different
			// member names: ctypes interns anonymous records by a
			// name-keyed signature, so these are distinct identities —
			// but their layout relations coincide, so the cores merge.
			name: "anon unions renamed members",
			a: tb.Anon(ctypes.KindUnion, []ctypes.Member{
				{Name: "f", Type: ctypes.Float},
				{Name: "l", Type: ctypes.Long},
			}),
			b: tb.Anon(ctypes.KindUnion, []ctypes.Member{
				{Name: "g", Type: ctypes.Float},
				{Name: "m", Type: ctypes.Long},
			}),
			share: true,
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.a == c.b {
				t.Fatalf("ctypes interned %s and %s to one identity; the case tests nothing", c.a, c.b)
			}
			la, lb := Build(c.a), Build(c.b)
			ca, _, _ := testPool.intern(la.core)
			cb, _, _ := testPool.intern(lb.core)
			if got := ca == cb; got != c.share {
				t.Errorf("intern(%s) == intern(%s): got shared=%v, want %v",
					c.a, c.b, got, c.share)
			}
			// Regardless of sharing, each wrapper must still answer its
			// own self-query: the element type at offset 0 always has a
			// row, and it is the unbounded incomplete-array row.
			for _, pair := range []struct {
				tl *TypeLayout
				ty *ctypes.Type
			}{{la, c.a}, {lb, c.b}} {
				e, ok := pair.tl.Lookup(pair.ty, 0)
				if !ok || e.Lo != UnboundedLo || e.Hi != UnboundedHi {
					t.Errorf("(%s, self, 0) = %+v ok=%v, want unbounded row", pair.ty, e, ok)
				}
			}
		})
	}
}

// testPool is a shared intern pool for the structural tests; using one
// pool across cases also exercises the collision lists.
var testPool internPool

// TestInternSelfKeyIsolation pins the soundness corner of the self-key
// abstraction: when two isomorphic types share a core, each wrapper's
// self row answers only for its OWN element type — the sibling's
// identity must miss (a *struct IB is not a pointer into a struct IA
// allocation at matching offsets unless the table says so).
func TestInternSelfKeyIsolation(t *testing.T) {
	tb := ctypes.NewTable()
	a := tb.MustParse("struct SIA { double d; int i; }")
	b := tb.MustParse("struct SIB { double e; int j; }")
	c := NewCache()
	la, lb := c.For(a), c.For(b)
	if la.core != lb.core {
		t.Fatalf("isomorphic %s and %s did not intern", a, b)
	}
	if _, ok := la.Lookup(b, 0); ok {
		t.Errorf("(%s, %s, 0) resolved through a shared core; self rows must stay per-identity", a, b)
	}
	if _, ok := lb.Lookup(a, 0); ok {
		t.Errorf("(%s, %s, 0) resolved through a shared core; self rows must stay per-identity", b, a)
	}
	// The shared non-self rows answer identically for both wrappers.
	for _, tl := range []*TypeLayout{la, lb} {
		if e, ok := tl.Lookup(ctypes.Int, 8); !ok || e.Lo != 0 || e.Hi != 4 {
			t.Errorf("(%s, int, 8) = %+v ok=%v, want 0..4", tl.Elem, e, ok)
		}
	}
}

// TestCacheInternAccounting checks the exact footprint model: the first
// build of a shape charges core+wrapper, an isomorphic second build
// charges only the wrapper, and the intern pool holds one core.
func TestCacheInternAccounting(t *testing.T) {
	tb := ctypes.NewTable()
	a := tb.MustParse("struct AcctA { int x; long y; }")
	b := tb.MustParse("struct AcctB { int u; long v; }")
	c := NewCache()

	_, ev1 := c.ForStats(a)
	if !ev1.Built || ev1.Interned {
		t.Fatalf("first build event = %+v, want fresh build", ev1)
	}
	r1 := c.ResidentBytes()
	if want := c.For(a).core.bytes + wrapperBytes; r1 != want {
		t.Errorf("resident after first build = %d, want core+wrapper = %d", r1, want)
	}

	_, ev2 := c.ForStats(b)
	if !ev2.Built || !ev2.Interned {
		t.Fatalf("isomorphic build event = %+v, want interned build", ev2)
	}
	if ev2.Bytes != wrapperBytes {
		t.Errorf("isomorphic build charged %d B, want wrapper-only %d", ev2.Bytes, wrapperBytes)
	}
	if c.PoolSize() != 1 {
		t.Errorf("pool holds %d cores, want 1", c.PoolSize())
	}
	if _, ev := c.ForStats(a); ev != (Event{}) {
		t.Errorf("cache hit produced event %+v, want zero", ev)
	}
	if c.TablesBuilt() != 2 || c.TablesInterned() != 1 {
		t.Errorf("built=%d interned=%d, want 2/1", c.TablesBuilt(), c.TablesInterned())
	}
}

// TestCacheRaceStress races eight goroutines into the first builds of
// 64 layout-isomorphic types, each goroutine walking them in its own
// order. Run under -race this checks the insert locking; the assertions
// check that every type ends with one canonical table, that the pool
// collapsed them to one core, and that the footprint charged that core
// once and each identity's wrapper once.
func TestCacheRaceStress(t *testing.T) {
	tb := ctypes.NewTable()
	const nTypes, workers = 64, 8
	types := make([]*ctypes.Type, nTypes)
	for i := range types {
		types[i] = tb.MustParse(fmt.Sprintf("struct Rs%d { long pad; int x; }", i))
	}
	c := NewCache()
	got := make([][nTypes]*TypeLayout, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < nTypes; i++ {
				k := (g*23 + i*7) % nTypes // 7 is coprime to 64: a permutation
				ty := types[k]
				tl := c.For(ty)
				got[g][k] = tl
				if e, ok := tl.Lookup(ctypes.Int, 8); !ok || e.Lo != 0 || e.Hi != 4 {
					t.Errorf("(%s, int, 8) = %+v ok=%v, want 0..4", ty, e, ok)
				}
				if e, coercion, ok := tl.Match(ty, 0); !ok || coercion != MatchExact ||
					e.Lo != UnboundedLo {
					t.Errorf("(%s, self, 0) match = %+v %v %v, want exact unbounded", ty, e, coercion, ok)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for k, ty := range types {
		canon := c.For(ty)
		for g := range got {
			if got[g][k] != canon {
				t.Fatalf("goroutine %d got a non-canonical table for %s", g, ty)
			}
		}
	}
	if n := c.Len(); n != nTypes {
		t.Errorf("cache holds %d identities, want %d", n, nTypes)
	}
	if n := c.PoolSize(); n != 1 {
		t.Errorf("pool holds %d cores, want 1", n)
	}
	if n := c.TablesBuilt(); n != nTypes {
		t.Errorf("TablesBuilt = %d, want %d (one per type, races dropped)", n, nTypes)
	}
	if r, want := c.ResidentBytes(), c.For(types[0]).core.bytes+nTypes*wrapperBytes; r != want {
		t.Errorf("resident = %d B, want one core + %d wrappers = %d", r, nTypes, want)
	}
}

// TestSealWideFallback drives seal directly with bounds outside int32:
// the core must fall back to the wide representation and preserve every
// value exactly.
func TestSealWideFallback(t *testing.T) {
	tb := ctypes.NewTable()
	elem := tb.MustParse("struct WideT { int x; }")
	const bigK = int64(1) << 40
	entries := map[entKey]Entry{
		{s: elem, k: 0}:          {Lo: UnboundedLo, Hi: UnboundedHi},
		{s: ctypes.Int, k: 0}:    {Lo: 0, Hi: 4},
		{s: ctypes.Int, k: bigK}: {Lo: -bigK, Hi: bigK + 4},
	}
	c := seal(elem, 4, 0, 0, entries)
	if c.wide == nil || len(c.ents) != 0 {
		t.Fatalf("seal kept packed entries (%d packed, %d wide); one overflow must force wide",
			len(c.ents), len(c.wide))
	}
	if e, ok := c.lookupID(keyIDOf(ctypes.Int), bigK); !ok || e.Lo != -bigK || e.Hi != bigK+4 {
		t.Errorf("wide (int, 2^40) = %+v ok=%v, want -2^40..2^40+4", e, ok)
	}
	if e, ok := c.lookupID(selfKeyID, 0); !ok || e.Lo != UnboundedLo || e.Hi != UnboundedHi {
		t.Errorf("wide (self, 0) = %+v ok=%v, want unbounded", e, ok)
	}
	if _, ok := c.lookupID(keyIDOf(ctypes.Int), 4); ok {
		t.Error("wide lookup hit a missing offset")
	}
	// The same relation without the overflow packs, and the two cores
	// must NOT be confused by the pool (different geometry).
	delete(entries, entKey{s: ctypes.Int, k: bigK})
	p := seal(elem, 4, 0, 0, entries)
	if p.wide != nil {
		t.Fatal("packable relation sealed wide")
	}
	if p.fp == c.fp && p.equal(c) {
		t.Error("wide and packed cores compare equal")
	}
}

// BenchmarkLayoutCacheColdInsert pins the cold-insert cost of the cache:
// every iteration builds, interns and inserts a never-seen identity, so
// ns/op must stay flat however full the cache is (a copy-on-write map
// would make each insert O(n)).
func BenchmarkLayoutCacheColdInsert(b *testing.B) {
	tb := ctypes.NewTable()
	classes := [4]string{"int", "long", "double", "short"}
	const pool = 8192
	types := make([]*ctypes.Type, pool)
	for i := range types {
		types[i] = tb.MustParse(fmt.Sprintf("struct Cold%d { %s a; long b; }",
			i, classes[i%4]))
	}
	b.ReportAllocs()
	b.ResetTimer()
	c := NewCache()
	j := 0
	for i := 0; i < b.N; i++ {
		if j == pool {
			c, j = NewCache(), 0
		}
		c.For(types[j])
		j++
	}
}
