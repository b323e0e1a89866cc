package sanitizers

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ctypes"
)

// Direct unit tests of the baseline models' mechanisms, complementing the
// end-to-end matrix tests in matrix_test.go.

func TestASanRedzoneHit(t *testing.T) {
	a := NewASan()
	p := a.Malloc(ctypes.Int, 64, core.HeapAlloc, "t")
	// In-bounds access: silent.
	a.Access(p, 8, true, ctypes.Long, "t")
	if a.Reporter().Total() != 0 {
		t.Fatal("in-bounds access reported")
	}
	// One byte past the object: redzone.
	a.Access(p+64, 1, false, ctypes.Char, "t")
	if a.Reporter().IssuesByKind()[core.BoundsError] != 1 {
		t.Fatal("redzone hit not reported")
	}
	// Underflow into the leading redzone.
	a.Access(p-1, 1, false, ctypes.Char, "t")
	if a.Reporter().Total() != 2 {
		t.Fatal("leading redzone hit not reported")
	}
}

func TestASanUAFAndQuarantine(t *testing.T) {
	a := NewASan()
	p := a.Malloc(ctypes.Int, 64, core.HeapAlloc, "t")
	a.Free(p, "t")
	a.Access(p, 4, false, ctypes.Int, "t")
	if a.Reporter().IssuesByKind()[core.UseAfterFree] != 1 {
		t.Fatal("UAF on poisoned memory not reported")
	}
	// The quarantine keeps the slot away from immediate reuse.
	q := a.Malloc(ctypes.Int, 64, core.HeapAlloc, "t")
	if q == p {
		t.Fatal("quarantine failed to delay reuse")
	}
}

func TestLowFatDeriveChecks(t *testing.T) {
	l := NewLowFatSan()
	p := l.Malloc(ctypes.Int, 64, core.HeapAlloc, "t")
	l.Derive(p+64, p, false, 0, 0, "t") // one past: allowed
	if l.Reporter().Total() != 0 {
		t.Fatal("one-past derivation reported")
	}
	l.Derive(p+128, p, false, 0, 0, "t") // beyond the slot
	if l.Reporter().IssuesByKind()[core.BoundsError] != 1 {
		t.Fatal("out-of-slot derivation not reported")
	}
	// Access straddling the slot end.
	l.Access(p+60, 8, true, ctypes.Long, "t")
	if l.Reporter().Total() != 2 {
		t.Fatal("straddling access not reported")
	}
}

func TestSoftBoundNarrowingMechanism(t *testing.T) {
	s := NewSoftBound()
	p := s.Malloc(ctypes.Int, 64, core.HeapAlloc, "t")
	// Narrow to a field [p+8, p+16).
	s.Derive(p+8, p, true, p+8, p+16, "t")
	s.Access(p+8, 8, true, ctypes.Long, "t")
	if s.Reporter().Total() != 0 {
		t.Fatal("in-field access reported")
	}
	// Index one element past the field THROUGH the narrowed pointer (the
	// interpreter emits this Derive for every OpIndex).
	s.Derive(p+16, p+8, false, 0, 0, "t")
	s.Access(p+16, 4, false, ctypes.Int, "t")
	if s.Reporter().IssuesByKind()[core.BoundsError] != 1 {
		t.Fatal("out-of-field access through narrowed pointer not reported")
	}
}

func TestSoftBoundShadowPropagation(t *testing.T) {
	s := NewSoftBound()
	p := s.Malloc(ctypes.Int, 32, core.HeapAlloc, "t")
	addr := s.Malloc(ctypes.Long, 8, core.HeapAlloc, "t") // a memory cell
	s.PtrStore(addr, p, "t")
	// Simulate reading the pointer back elsewhere: metadata must follow,
	// so an overflowing access derived from the reloaded pointer fails.
	s.PtrLoad(addr, p, "t")
	s.Derive(p+32, p, false, 0, 0, "t")
	s.Access(p+32, 4, false, ctypes.Int, "t")
	if s.Reporter().Total() != 1 {
		t.Fatal("bounds lost through the shadow round-trip")
	}
}

func TestCETSLockAndKey(t *testing.T) {
	c := NewCETS()
	p := c.Malloc(ctypes.Int, 64, core.HeapAlloc, "t")
	c.Access(p, 4, false, ctypes.Int, "t")
	if c.Reporter().Total() != 0 {
		t.Fatal("live access reported")
	}
	c.Free(p, "t")
	c.Access(p, 4, false, ctypes.Int, "t")
	if c.Reporter().IssuesByKind()[core.UseAfterFree] != 1 {
		t.Fatal("freed access not reported")
	}
	// A wild spatial pointer into someone else's allocation checks ITS
	// OWN lock, so CETS stays silent (purely temporal, per the paper).
	q := c.Malloc(ctypes.Int, 64, core.HeapAlloc, "t")
	c.Derive(q+4096, q, false, 0, 0, "t")
	before := c.Reporter().Total()
	c.Access(q+4096, 4, false, ctypes.Int, "t")
	if c.Reporter().Total() != before {
		t.Fatal("CETS reported a spatial error")
	}
}

func TestCastCheckerFilters(t *testing.T) {
	tb := ctypes.NewTable()
	base := tb.MustParse("class FBase { int b; }")
	der := tb.MustParse("class FDer : FBase { int d; }")
	sib := tb.MustParse("class FSib : FBase { int s; }")
	sA := tb.MustParse("struct FA { int a; }")
	sB := tb.MustParse("struct FB { float f; }")
	basePtr := tb.PointerTo(base)
	derPtr := tb.PointerTo(der)
	sibPtr := tb.PointerTo(sib)
	aPtr, bPtr := tb.PointerTo(sA), tb.PointerTo(sB)
	voidPtr := tb.PointerTo(ctypes.Void)
	intPtr := tb.PointerTo(ctypes.Int)
	floatPtr := tb.PointerTo(ctypes.Float)

	// TypeSan: class casts only.
	ts := NewTypeSan()
	pd := ts.Malloc(der, uint64(der.Size()), core.HeapAlloc, "t")
	ts.Cast(pd, derPtr, basePtr, "t") // upcast fine
	ts.Cast(pd, basePtr, derPtr, "t") // downcast to true type fine
	if ts.Reporter().Total() != 0 {
		t.Fatal("TypeSan flagged valid class casts")
	}
	ts.Cast(pd, basePtr, sibPtr, "t") // sibling: confusion
	if ts.Reporter().IssuesByKind()[core.TypeError] != 1 {
		t.Fatal("TypeSan missed the sibling cast")
	}
	pa := ts.Malloc(sA, uint64(sA.Size()), core.HeapAlloc, "t")
	ts.Cast(pa, aPtr, bPtr, "t") // struct cast: outside its filter
	if ts.Reporter().Total() != 1 {
		t.Fatal("TypeSan checked a struct cast")
	}

	// HexType: all record casts.
	hx := NewHexType()
	pa2 := hx.Malloc(sA, uint64(sA.Size()), core.HeapAlloc, "t")
	hx.Cast(pa2, aPtr, bPtr, "t")
	if hx.Reporter().IssuesByKind()[core.TypeError] != 1 {
		t.Fatal("HexType missed the struct cast")
	}

	// libcrunch: casts from untyped pointers, char allocations exempt.
	lc := NewLibcrunch()
	pi := lc.Malloc(ctypes.Int, 64, core.HeapAlloc, "t")
	lc.Cast(pi, voidPtr, floatPtr, "t")
	if lc.Reporter().IssuesByKind()[core.TypeError] != 1 {
		t.Fatal("libcrunch missed the void* cast")
	}
	pc := lc.Malloc(ctypes.Char, 64, core.HeapAlloc, "t")
	lc.Cast(pc, voidPtr, intPtr, "t")
	if lc.Reporter().Total() != 1 {
		t.Fatal("libcrunch flagged a char-buffer cast")
	}

	// UBSan: downcasts only; unrelated-pointer casts unchecked.
	ub := NewUBSan()
	pu := ub.Malloc(base, uint64(base.Size()), core.HeapAlloc, "t")
	ub.Cast(pu, intPtr, floatPtr, "t") // not a class downcast
	if ub.Reporter().Total() != 0 {
		t.Fatal("UBSan checked a non-downcast")
	}
	ub.Cast(pu, basePtr, derPtr, "t") // base object downcast: confusion
	if ub.Reporter().IssuesByKind()[core.TypeError] != 1 {
		t.Fatal("UBSan missed the bad downcast")
	}
}

func TestDoubleFreeAtBase(t *testing.T) {
	u := newBase("base", 0)
	p := u.Malloc(ctypes.Int, 64, core.HeapAlloc, "t")
	u.Free(p, "t")
	u.Free(p, "t")
	if u.Reporter().IssuesByKind()[core.DoubleFree] != 1 {
		t.Fatal("allocator-level double free not reported")
	}
}

func TestReallocPreservesContents(t *testing.T) {
	u := newBase("base", 0)
	p := u.Malloc(ctypes.Long, 32, core.HeapAlloc, "t")
	u.Mem().Store(p, 8, 777)
	q := u.Realloc(p, 128, "t")
	if got := u.Mem().Load(q, 8); got != 777 {
		t.Fatalf("realloc lost contents: %d", got)
	}
}

func TestToolRoster(t *testing.T) {
	names := map[string]bool{}
	for _, tool := range Baselines() {
		if names[tool.Name] {
			t.Errorf("duplicate tool %q", tool.Name)
		}
		names[tool.Name] = true
		if tool.MakeSan == nil {
			t.Errorf("%s has no factory", tool.Name)
		}
	}
	if len(names) != 12 {
		t.Errorf("%d baselines, want 12 (the Fig. 1 rows above EffectiveSan)", len(names))
	}
	if got := len(All()); got != 13 {
		t.Errorf("All() has %d tools, want 13", got)
	}
}
