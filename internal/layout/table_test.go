package layout

import (
	"testing"

	"repro/internal/ctypes"
)

// TestTablePaperExample6 reproduces the layout hash table of Example 6 for
// struct T, adjusted for ABI padding (T = {float f@0; S t@8},
// S = {int a[3]@0; char *s@16}, sizeof(T)=32):
//
//	(T, T, 0)      -> -inf..inf      (unbounded: incomplete T[])
//	(T, float, 0)  -> 0..4
//	(T, S, 8)      -> 0..24
//	(T, int, 8)    -> 0..12
//	(T, int, 12)   -> -4..8
//	(T, int, 16)   -> -8..4
//	(T, char*, 24) -> 0..8
func TestTablePaperExample6(t *testing.T) {
	tb, s, tt := paperTypes(t)
	charPtr := tb.MustParse("char *")
	tl := Build(tt)

	cases := []struct {
		s      *ctypes.Type
		k      int64
		lo, hi int64
	}{
		{tt, 0, UnboundedLo, UnboundedHi},
		{ctypes.Float, 0, 0, 4},
		{s, 8, 0, 24},
		{ctypes.Int, 8, 0, 12},
		{ctypes.Int, 12, -4, 8},
		{ctypes.Int, 16, -8, 4},
		{charPtr, 24, 0, 8},
	}
	for _, c := range cases {
		e, ok := tl.Lookup(c.s, c.k)
		if !ok {
			t.Errorf("(T, %s, %d): no entry", c.s, c.k)
			continue
		}
		if e.Lo != c.lo || e.Hi != c.hi {
			t.Errorf("(T, %s, %d) = %d..%d, want %d..%d", c.s, c.k, e.Lo, e.Hi, c.lo, c.hi)
		}
	}

	// Example 6's negative case: no entry for (T, double, 16).
	if _, ok := tl.Lookup(ctypes.Double, 16); ok {
		t.Error("(T, double, 16) must have no entry")
	}

	// Normalisation: the second element of a T[N] allocation looks
	// identical (Example 5's "k := k mod sizeof(T)").
	if got := tl.Normalize(32 + 16); got != 16 {
		t.Errorf("Normalize(48) = %d, want 16", got)
	}
}

func TestTableIntArrayElement(t *testing.T) {
	tb := ctypes.NewTable()
	arr := tb.MustParse("int[3]")
	tl := Build(arr)

	// A pointer to element 1 of an int[3] element matched against int[]
	// gets the whole row (rule (d) container).
	e, ok := tl.Lookup(ctypes.Int, 4)
	if !ok || e.Lo != -4 || e.Hi != 8 {
		t.Fatalf("(int[3], int, 4) = %+v ok=%v, want -4..8", e, ok)
	}
	// But the row does not extend into neighbouring rows: int[] never
	// matches unbounded for an int[3] element type.
	e, ok = tl.Lookup(ctypes.Int, 0)
	if !ok {
		t.Fatal("(int[3], int, 0): no entry")
	}
	if e.Lo == UnboundedLo || e.Hi == UnboundedHi {
		t.Fatalf("(int[3], int, 0) = %+v: int[] must be confined to its row", e)
	}
	// The allocation element type itself roams the whole allocation.
	e, ok = tl.Lookup(arr, 0)
	if !ok || e.Lo != UnboundedLo || e.Hi != UnboundedHi {
		t.Fatalf("(int[3], int[3], 0) = %+v ok=%v, want unbounded", e, ok)
	}
}

func TestTableUnionWidestWins(t *testing.T) {
	// The paper's §6 example: union {float a[10]; float b[20];} — a check
	// against float[] always returns b's bounds (tie-breaking rule 1).
	tb := ctypes.NewTable()
	u := tb.MustParse("union UW { float a[10]; float b[20]; }")
	tl := Build(u)
	e, ok := tl.Lookup(ctypes.Float, 0)
	if !ok || e.Lo != 0 || e.Hi != 80 {
		t.Fatalf("(U, float, 0) = %+v ok=%v, want 0..80 (b's bounds)", e, ok)
	}
	// Offset 48 is valid only inside b.
	e, ok = tl.Lookup(ctypes.Float, 48)
	if !ok || e.Lo != -48 || e.Hi != 32 {
		t.Fatalf("(U, float, 48) = %+v ok=%v, want -48..32", e, ok)
	}
}

func TestTableEndMatchedLast(t *testing.T) {
	// struct {int a; int b;}: offset 4 is both the end of a and the start
	// of b. Tie-breaking rule 2: the start (non-end) entry must win.
	tb := ctypes.NewTable()
	s := tb.MustParse("struct EE { int a; int b; }")
	tl := Build(s)
	e, ok := tl.Lookup(ctypes.Int, 4)
	if !ok || e.End || e.Lo != 0 || e.Hi != 4 {
		t.Fatalf("(EE, int, 4) = %+v ok=%v, want non-end 0..4", e, ok)
	}
	// Offset 8 is the end of b (and of the struct): only end entries.
	e, ok = tl.Lookup(ctypes.Int, 8)
	if !ok || !e.End {
		t.Fatalf("(EE, int, 8) = %+v ok=%v, want an end entry", e, ok)
	}
}

func TestMatchCharCoercion(t *testing.T) {
	// An object containing a char buffer may be viewed as any type at the
	// buffer's offsets (the char[] -> S[] coercion).
	tb := ctypes.NewTable()
	s := tb.MustParse("struct MsgBuf { long tag; char buf[64]; }")
	tl := Build(s)

	e, co, ok := tl.Match(ctypes.Int, 8)
	if !ok || co != MatchChar {
		t.Fatalf("Match(int, 8) = %+v %v %v, want char coercion hit", e, co, ok)
	}
	if e.Lo != 0 || e.Hi != 64 {
		t.Fatalf("char-coerced bounds = %d..%d, want the buffer 0..64", e.Lo, e.Hi)
	}
	// But not at the long's offset.
	if _, _, ok := tl.Match(ctypes.Float, 0); ok {
		t.Fatal("Match(float, 0) must fail: tag is a long, not a buffer")
	}
}

func TestMatchVoidPtrCoercions(t *testing.T) {
	tb := ctypes.NewTable()
	s := tb.MustParse("struct Holder { void *opaque; int *ip; }")
	tl := Build(s)
	intPtr := tb.MustParse("int *")
	floatPtr := tb.MustParse("float *")
	voidPtr := tb.MustParse("void *")

	// Any pointer static type matches the void* slot at offset 0.
	if _, co, ok := tl.Match(floatPtr, 0); !ok || co != MatchVoidPtr {
		t.Fatalf("Match(float*, 0) = %v %v, want void*-slot coercion", co, ok)
	}
	// void* static type matches the int* slot at offset 8.
	if _, co, ok := tl.Match(voidPtr, 8); !ok || co != MatchVoidPtr {
		t.Fatalf("Match(void*, 8) = %v %v, want any-pointer coercion", co, ok)
	}
	// Exact pointer match is still exact.
	if _, co, ok := tl.Match(intPtr, 8); !ok || co != MatchExact {
		t.Fatalf("Match(int*, 8) = %v %v, want exact", co, ok)
	}
	// float* does not match the int* slot: distinct pointer types are
	// type confusion (perlbench's T* vs T** class of bugs).
	if _, _, ok := tl.Match(floatPtr, 8); ok {
		t.Fatal("Match(float*, 8) must fail")
	}
	intPtrPtr := tb.MustParse("int **")
	if _, _, ok := tl.Match(intPtrPtr, 8); ok {
		t.Fatal("Match(int**, 8) must fail: T* vs T** is type confusion")
	}
}

func TestTableFAM(t *testing.T) {
	tb := ctypes.NewTable()
	blob := tb.MustParse("struct Blob2 { long n; int data[]; }")
	tl := Build(blob)

	if tl.FAMOffset != 8 || tl.FAMElemSize != 4 {
		t.Fatalf("FAM geometry = %d/%d, want 8/4", tl.FAMOffset, tl.FAMElemSize)
	}
	// All FAM element offsets normalise into the first element.
	if got := tl.Normalize(8 + 4*7); got != 8 {
		t.Fatalf("Normalize(36) = %d, want 8", got)
	}
	// Header offsets are untouched.
	if got := tl.Normalize(0); got != 0 {
		t.Fatalf("Normalize(0) = %d, want 0", got)
	}
	// Matching int[] inside the FAM yields a FAM-flagged entry.
	e, co, ok := tl.Match(ctypes.Int, 8+4*3)
	if !ok || co != MatchExact || !e.FAM {
		t.Fatalf("Match(int, 20) = %+v %v %v, want FAM entry", e, co, ok)
	}
	// The header is still strongly typed.
	if _, _, ok := tl.Match(ctypes.Int, 0); ok {
		t.Fatal("Match(int, 0) must fail: header is long")
	}
	if _, _, ok := tl.Match(ctypes.Long, 0); !ok {
		t.Fatal("Match(long, 0) must succeed")
	}
}

func TestCacheMemoises(t *testing.T) {
	tb := ctypes.NewTable()
	s := tb.MustParse("struct CM { int x; }")
	c := NewCache()
	tl1 := c.For(s)
	tl2 := c.For(s)
	if tl1 != tl2 {
		t.Fatal("Cache.For must memoise")
	}
}

func TestCacheConcurrent(t *testing.T) {
	tb := ctypes.NewTable()
	types := []*ctypes.Type{
		tb.MustParse("struct CC1 { int x; float y; }"),
		tb.MustParse("struct CC2 { struct CC1 a[4]; }"),
		tb.MustParse("int[64]"),
	}
	c := NewCache()
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 200; i++ {
				typ := types[i%len(types)]
				tl := c.For(typ)
				if _, _, ok := tl.Match(ctypes.Int, 0); !ok {
					t.Error("concurrent Match failed")
				}
			}
			done <- true
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestTableMatchesOf cross-checks the hash table against the reference
// layout function: wherever Of reports a sub-object matching S, Match must
// succeed, and vice versa (for exact matches at in-range offsets).
func TestTableMatchesOf(t *testing.T) {
	tb := ctypes.NewTable()
	corpus := []*ctypes.Type{
		tb.MustParse("struct X1 { char c; int i; double d; }"),
		tb.MustParse("struct X2 { struct X1 xs[3]; int tail; }"),
		tb.MustParse("union X3 { char c[13]; long l; }"),
		tb.MustParse("int[5]"),
	}
	statics := []*ctypes.Type{
		ctypes.Char, ctypes.Int, ctypes.Long, ctypes.Double, ctypes.Short,
	}
	for _, typ := range corpus {
		tl := Build(typ)
		for k := int64(0); k < typ.Size(); k++ {
			subs := Of(typ, k)
			for _, s := range statics {
				want := false
				for _, sub := range subs {
					u := sub.Type
					if u == s || (u.Kind == ctypes.KindArray && u.Elem == s) {
						want = true
					}
				}
				_, ok := tl.Lookup(s, k)
				// The char coercion is applied by Match, not Lookup, so
				// exact agreement is expected here.
				if want != ok {
					t.Errorf("%s: (S=%s, k=%d): Of says %v, table says %v",
						typ, s, k, want, ok)
				}
			}
		}
	}
}

// TestNormalizeMatchesTwoModulo pins Normalize's one-modulo form for
// non-negative offsets to the two-modulo formula it replaced,
// ((k % n) + n) % n, over negative, zero and positive offsets, for
// ordinary element sizes, a zero size and a record with a flexible array
// member (whose FAM branch takes its own formula).
func TestNormalizeMatchesTwoModulo(t *testing.T) {
	twoMod := func(n Norm, k int64) int64 {
		if n.FAMOffset >= 0 {
			if k >= n.FAMOffset && n.FAMElemSize > 0 {
				return (k-n.FAMOffset)%n.FAMElemSize + n.FAMOffset
			}
			return k
		}
		if n.ElemSize <= 0 {
			return 0
		}
		return ((k % n.ElemSize) + n.ElemSize) % n.ElemSize
	}
	norms := []Norm{
		{ElemSize: 1, FAMOffset: -1},
		{ElemSize: 4, FAMOffset: -1},
		{ElemSize: 24, FAMOffset: -1},
		{ElemSize: 32, FAMOffset: -1},
		{ElemSize: 0, FAMOffset: -1},
		{ElemSize: 12, FAMOffset: 8, FAMElemSize: 4}, // struct { long n; int data[]; }
	}
	offsets := []int64{-1 << 40, -97, -33, -32, -31, -24, -8, -5, -4, -1, 0, 1, 3, 4, 7, 8, 9, 12,
		23, 24, 25, 31, 32, 33, 36, 96, 1 << 40, 1<<62 + 5}
	for _, n := range norms {
		for _, k := range offsets {
			if got, want := n.Normalize(k), twoMod(n, k); got != want {
				t.Errorf("%+v.Normalize(%d) = %d, want %d", n, k, got, want)
			}
		}
	}
	// A built FAM table's geometry goes through the same formula.
	tb := ctypes.NewTable()
	tl := Build(tb.MustParse("struct Blob3 { long n; int data[]; }"))
	for _, k := range offsets {
		if got, want := tl.Normalize(k), twoMod(tl.Norm, k); got != want {
			t.Errorf("Blob3 Normalize(%d) = %d, want %d", k, got, want)
		}
	}
}
