package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/ctypes"
)

func newRT(t *testing.T) (*Runtime, *ctypes.Table) {
	t.Helper()
	tb := ctypes.NewTable()
	return NewRuntime(Options{Types: tb}), tb
}

// TestPaperExample5 walks the paper's Example 5 type check (adjusted for
// ABI padding): p points to an allocated struct T; q = p+16 points to
// t.a[2]; type_check(q, int[]) succeeds with the int[3] sub-object bounds
// p+8..p+20, while type_check(q, double[]) fails.
func TestPaperExample5(t *testing.T) {
	r, tb := newRT(t)
	tb.MustParse("struct S { int a[3]; char *s; }")
	T := tb.MustParse("struct T { float f; struct S t; }")

	p, err := r.New(T, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	q := p + 16 // &p->t.a[2]

	b := r.TypeCheck(q, ctypes.Int, "example5")
	if want := (Bounds{p + 8, p + 20}); b != want {
		t.Fatalf("type_check(q, int[]) = %v, want %v", b, want)
	}
	if got := r.Reporter.Total(); got != 0 {
		t.Fatalf("unexpected errors: %d", got)
	}

	b = r.TypeCheck(q, ctypes.Double, "example5")
	if !b.IsWide() {
		t.Fatalf("failed check must return wide bounds, got %v", b)
	}
	if got := r.Reporter.Total(); got != 1 {
		t.Fatalf("errors = %d, want 1", got)
	}
	issues := r.Reporter.Issues()
	if len(issues) != 1 || issues[0].Kind != TypeError {
		t.Fatalf("issues = %v", issues)
	}
	if issues[0].StaticType != "double" || issues[0].DynamicType != "struct T" {
		t.Fatalf("issue types = %q/%q", issues[0].StaticType, issues[0].DynamicType)
	}
}

// TestTypeCheckIntVsFloat is the paper's §4 example: new int[100] checked
// against int[] passes, against float[] fails.
func TestTypeCheckIntVsFloat(t *testing.T) {
	r, _ := newRT(t)
	p, _ := r.NewArray(ctypes.Int, 100, HeapAlloc)

	b1 := r.TypeCheck(p, ctypes.Int, "")
	if want := (Bounds{p, p + 400}); b1 != want {
		t.Fatalf("b1 = %v, want %v", b1, want)
	}
	r.TypeCheck(p, ctypes.Float, "")
	if r.Reporter.Total() != 1 {
		t.Fatal("int vs float must be a type error")
	}
}

func TestArrayElementRoaming(t *testing.T) {
	// A pointer into the middle of an int[100] allocation may roam the
	// whole allocation (incomplete T[] containment), unlike a pointer
	// into an int[3] sub-object.
	r, _ := newRT(t)
	p, _ := r.NewArray(ctypes.Int, 100, HeapAlloc)
	b := r.TypeCheck(p+200, ctypes.Int, "")
	if want := (Bounds{p, p + 400}); b != want {
		t.Fatalf("bounds = %v, want whole allocation %v", b, want)
	}
}

func TestSubObjectNarrowing(t *testing.T) {
	// The account example from §1: an overflow from number[8] into
	// balance must be detectable: the int[] match returns number's
	// bounds only.
	r, tb := newRT(t)
	acct := tb.MustParse("struct account { int number[8]; float balance; }")
	p, _ := r.New(acct, HeapAlloc)

	b := r.TypeCheck(p, ctypes.Int, "") // &account->number[0]
	if want := (Bounds{p, p + 32}); b != want {
		t.Fatalf("number bounds = %v, want %v", b, want)
	}
	// The access at p+32 (balance) via the int[] bounds must fail.
	if r.BoundsCheck(p+32, 4, b, ctypes.Int, "acct") {
		t.Fatal("overflow into balance must fail the bounds check")
	}
	if r.Reporter.Total() != 1 {
		t.Fatal("bounds error not reported")
	}
}

func TestUseAfterFree(t *testing.T) {
	r, _ := newRT(t)
	p, _ := r.NewArray(ctypes.Int, 10, HeapAlloc)
	r.TypeFree(p, "t1")
	b := r.TypeCheck(p, ctypes.Int, "t2")
	if !b.IsWide() {
		t.Fatalf("UAF check returned %v", b)
	}
	issues := r.Reporter.Issues()
	if len(issues) != 1 || issues[0].Kind != UseAfterFree {
		t.Fatalf("issues = %+v, want one use-after-free", issues)
	}
}

func TestDoubleFree(t *testing.T) {
	r, _ := newRT(t)
	p, _ := r.NewArray(ctypes.Int, 10, HeapAlloc)
	r.TypeFree(p, "a")
	r.TypeFree(p, "b")
	issues := r.Reporter.IssuesByKind()
	if issues[DoubleFree] != 1 {
		t.Fatalf("issues = %v, want one double-free", issues)
	}
}

func TestReuseAfterFreeDifferentType(t *testing.T) {
	// Reuse-after-free is caught when the slot is reallocated with a
	// different type (§3). Quarantine off so reuse is immediate.
	r, tb := newRT(t)
	node := tb.MustParse("struct RNode { struct RNode *next; long v; }")
	p, _ := r.New(node, HeapAlloc)
	r.TypeFree(p, "free-site")
	q, _ := r.NewArray(ctypes.Double, 2, HeapAlloc) // same size class: slot reused
	if p != q {
		t.Skipf("allocator did not reuse the slot (p=%#x q=%#x)", p, q)
	}
	// The dangling pointer p now points to a double[2] object.
	r.TypeCheck(p, tb.PointerTo(node), "dangling-use")
	if r.Reporter.IssuesByKind()[TypeError] != 1 {
		t.Fatalf("issues = %v, want a type error (reuse-after-free)", r.Reporter.IssuesByKind())
	}
}

func TestFreeErrors(t *testing.T) {
	r, _ := newRT(t)
	p, _ := r.NewArray(ctypes.Int, 10, HeapAlloc)
	r.TypeFree(p+4, "interior")
	if r.Reporter.IssuesByKind()[BadFree] != 1 {
		t.Fatal("interior free must be a bad-free")
	}
	r.TypeFree(0, "null") // no-op
	if r.Reporter.Total() != 1 {
		t.Fatal("free(NULL) must not be an error")
	}
	r.TypeFree(p, "ok")
	if r.Reporter.Total() != 1 {
		t.Fatal("valid free must not be an error")
	}
}

func TestLegacyPointerWideBounds(t *testing.T) {
	r, _ := newRT(t)
	p := r.LegacyAlloc(64)
	b := r.TypeCheck(p, ctypes.Int, "")
	if !b.IsWide() {
		t.Fatalf("legacy check = %v, want wide", b)
	}
	if r.Reporter.Total() != 0 {
		t.Fatal("legacy pointers must never error")
	}
	s := r.Stats()
	if s.LegacyTypeChecks != 1 || s.TypeChecks != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.LegacyRatio() != 1.0 {
		t.Fatalf("legacy ratio = %f", s.LegacyRatio())
	}
}

func TestCharCoercionStaticDirection(t *testing.T) {
	// Casting any object to char* resets bounds to the whole allocation.
	r, tb := newRT(t)
	s := tb.MustParse("struct CD { int a; float b; }")
	p, _ := r.New(s, HeapAlloc)
	b := r.TypeCheck(p+4, ctypes.Char, "")
	if want := (Bounds{p, p + 8}); b != want {
		t.Fatalf("char view = %v, want %v", b, want)
	}
	if r.Reporter.Total() != 0 {
		t.Fatal("char view must not error")
	}
}

func TestCharCoercionDynamicDirection(t *testing.T) {
	// A char buffer may be accessed as any type (the char[] -> S[]
	// coercion), with the buffer's bounds.
	r, _ := newRT(t)
	p, _ := r.NewArray(ctypes.Char, 64, HeapAlloc)
	b := r.TypeCheck(p, ctypes.Long, "")
	if want := (Bounds{p, p + 64}); b != want {
		t.Fatalf("coerced bounds = %v, want %v", b, want)
	}
	if r.Stats().CharCoercions != 1 {
		t.Fatal("char coercion not counted")
	}
}

func TestVoidPtrCoercion(t *testing.T) {
	r, tb := newRT(t)
	holder := tb.MustParse("struct VH { void *slot; }")
	p, _ := r.New(holder, HeapAlloc)
	intPtr := tb.MustParse("int *")
	b := r.TypeCheck(p, intPtr, "")
	if want := (Bounds{p, p + 8}); b != want {
		t.Fatalf("void*-slot bounds = %v, want %v", b, want)
	}
	if r.Stats().VoidPtrCoercions != 1 {
		t.Fatal("void* coercion not counted")
	}
}

func TestTypeConfusionPtrPtr(t *testing.T) {
	// perlbench's classic: confusing T* with T**.
	r, tb := newRT(t)
	intPtr := tb.MustParse("int *")
	intPtrPtr := tb.MustParse("int **")
	p, _ := r.NewArray(intPtr, 4, HeapAlloc)
	r.TypeCheck(p, intPtrPtr, "")
	if r.Reporter.IssuesByKind()[TypeError] != 1 {
		t.Fatal("T* vs T** must be a type error")
	}
}

func TestContainerCast(t *testing.T) {
	// Casting T to a container struct S { T t; ... } is a type error
	// (§6.1's "casting to container types").
	r, tb := newRT(t)
	container := tb.MustParse("struct Cont { int t; int extra; }")
	p, _ := r.New(ctypes.Int, HeapAlloc)
	r.TypeCheck(p, container, "")
	if r.Reporter.IssuesByKind()[TypeError] != 1 {
		t.Fatal("casting to container must be a type error")
	}
	// The reverse — pointer to the first member of a container — is fine.
	q, _ := r.New(container, HeapAlloc)
	r.TypeCheck(q, ctypes.Int, "")
	if r.Reporter.Total() != 1 {
		t.Fatal("first-member access must not be an error")
	}
}

func TestFAMBounds(t *testing.T) {
	r, tb := newRT(t)
	blob := tb.MustParse("struct FB { long n; int data[]; }")
	// Allocate header + 10 FAM elements = 8 + 40 bytes.
	p, err := r.TypeMalloc(blob, 48, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	// A pointer to data[7] checked as int[] gets the whole FAM extent.
	b := r.TypeCheck(p+8+28, ctypes.Int, "")
	if want := (Bounds{p + 8, p + 48}); b != want {
		t.Fatalf("FAM bounds = %v, want %v", b, want)
	}
	// The header stays typed.
	r.TypeCheck(p, ctypes.Int, "")
	if r.Reporter.IssuesByKind()[TypeError] != 1 {
		t.Fatal("int access to long header must be a type error")
	}
}

func TestOnePastEndPointer(t *testing.T) {
	r, _ := newRT(t)
	p, _ := r.NewArray(ctypes.Int, 10, HeapAlloc)
	end := p + 40
	b := r.TypeCheck(end, ctypes.Int, "")
	if r.Reporter.Total() != 0 {
		t.Fatalf("one-past-the-end check must not error: %s", r.Reporter.Log())
	}
	if !r.EscapeCheck(end, b, "") {
		t.Fatal("one-past-the-end pointer must be allowed to escape")
	}
	if r.BoundsCheck(end, 4, b, ctypes.Int, "") {
		t.Fatal("one-past-the-end access must fail")
	}
}

func TestUpcastDowncast(t *testing.T) {
	r, tb := newRT(t)
	base := tb.MustParse("class UBase { int x; }")
	tb.MustParse("class UDer : UBase { int y; }")
	der := tb.Lookup(ctypes.KindClass, "UDer")
	sib := tb.MustParse("class USib : UBase { float z; }")

	p, _ := r.New(der, HeapAlloc)
	// Upcast: Derived* -> Base* always fine.
	r.TypeCheck(p, base, "upcast")
	if r.Reporter.Total() != 0 {
		t.Fatal("upcast must pass")
	}
	// Downcast to the allocated type: fine.
	r.TypeCheck(p, der, "downcast-good")
	if r.Reporter.Total() != 0 {
		t.Fatal("valid downcast must pass")
	}
	// Bad downcast to a sibling (the xalancbmk SchemaGrammar/DTDGrammar
	// confusion): type error.
	r.TypeCheck(p, sib, "downcast-bad")
	if r.Reporter.IssuesByKind()[TypeError] != 1 {
		t.Fatal("sibling downcast must be a type error")
	}
}

func TestRealloc(t *testing.T) {
	r, _ := newRT(t)
	p, _ := r.NewArray(ctypes.Long, 4, HeapAlloc)
	r.Mem().Store(p, 8, 42)
	q, err := r.TypeRealloc(p, 64, "realloc")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Mem().Load(q, 8); got != 42 {
		t.Fatalf("realloc lost contents: %d", got)
	}
	// The old object is now FREE.
	r.TypeCheck(p, ctypes.Long, "after-realloc")
	if r.Reporter.IssuesByKind()[UseAfterFree] != 1 {
		t.Fatal("use of realloc'd-away pointer must be UAF")
	}
	// The new object kept its dynamic type.
	r.TypeCheck(q, ctypes.Long, "")
	if r.Reporter.IssuesByKind()[TypeError] != 0 {
		t.Fatal("reallocated object must keep its type")
	}
}

func TestIssueBucketing(t *testing.T) {
	r, _ := newRT(t)
	p, _ := r.NewArray(ctypes.Int, 10, HeapAlloc)
	for i := 0; i < 100; i++ {
		r.TypeCheck(p, ctypes.Float, "loop")
	}
	if r.Reporter.Total() != 100 {
		t.Fatalf("total = %d, want 100", r.Reporter.Total())
	}
	if r.Reporter.NumIssues() != 1 {
		t.Fatalf("issues = %d, want 1 (bucketed)", r.Reporter.NumIssues())
	}
	if !strings.Contains(r.Reporter.Log(), "x100") {
		t.Fatalf("log should show the count: %s", r.Reporter.Log())
	}
}

func TestCountingMode(t *testing.T) {
	tb := ctypes.NewTable()
	r := NewRuntime(Options{Types: tb, Mode: ModeCount})
	p, _ := r.NewArray(ctypes.Int, 10, HeapAlloc)
	r.TypeCheck(p, ctypes.Float, "")
	if r.Reporter.Total() != 1 {
		t.Fatal("counting mode must count")
	}
	if r.Reporter.NumIssues() != 0 {
		t.Fatal("counting mode must not keep buckets")
	}
}

func TestAbortAfter(t *testing.T) {
	tb := ctypes.NewTable()
	r := NewRuntime(Options{Types: tb, AbortAfter: 3})
	p, _ := r.NewArray(ctypes.Int, 10, HeapAlloc)
	defer func() {
		e := recover()
		ae, ok := e.(AbortError)
		if !ok {
			t.Fatalf("expected AbortError, got %v", e)
		}
		if ae.Errors != 3 {
			t.Fatalf("aborted after %d errors, want 3", ae.Errors)
		}
	}()
	for i := 0; i < 10; i++ {
		r.TypeCheck(p, ctypes.Float, "")
	}
	t.Fatal("must have aborted")
}

func TestBoundsNarrowAndCheck(t *testing.T) {
	r, tb := newRT(t)
	node := tb.MustParse("struct BN { struct BN *next; long v; }")
	p, _ := r.New(node, HeapAlloc)

	b := r.TypeCheck(p, node, "")
	nb := r.BoundsNarrow(b, p, p+8) // narrow to the next field
	if !r.BoundsCheck(p, 8, nb, Label("BN*"), "") {
		t.Fatal("in-bounds access must pass")
	}
	if r.BoundsCheck(p+8, 8, nb, Label("BN*"), "") {
		t.Fatal("access past the narrowed field must fail")
	}
	if r.Stats().BoundsNarrows != 1 || r.Stats().BoundsChecks != 2 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

func TestDynamicType(t *testing.T) {
	r, tb := newRT(t)
	s := tb.MustParse("struct DT { int x; }")
	p, _ := r.NewArray(s, 3, HeapAlloc)
	typ, base, size, ok := r.DynamicType(p + 5)
	if !ok || typ != s || base != p || size != 12 {
		t.Fatalf("DynamicType = %v %#x %d %v", typ, base, size, ok)
	}
	if _, _, _, ok := r.DynamicType(r.LegacyAlloc(8)); ok {
		t.Fatal("legacy pointers have no dynamic type")
	}
}

func TestConcurrentChecks(t *testing.T) {
	r, tb := newRT(t)
	s := tb.MustParse("struct CT { int a[4]; double d; }")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p, err := r.New(s, HeapAlloc)
				if err != nil {
					t.Error(err)
					return
				}
				b := r.TypeCheck(p, ctypes.Int, "")
				if !r.BoundsCheck(p+12, 4, b, ctypes.Int, "") {
					t.Error("in-bounds concurrent access failed")
					return
				}
				r.TypeFree(p, "")
			}
		}()
	}
	wg.Wait()
	if r.Reporter.Total() != 0 {
		t.Fatalf("concurrent errors: %s", r.Reporter.Log())
	}
}

func TestIncompatibleTagRedeclaration(t *testing.T) {
	// The gcc finding of §6.1: two translation units define the same tag
	// incompatibly. The types are distinct identities, so accessing an
	// object allocated under one definition through the other is type
	// confusion.
	r, tb := newRT(t)
	confA := tb.MustParse("struct Conf2 { long mode; }")
	confB := tb.Redeclare(ctypes.KindStruct, "Conf2")
	tb.Complete(confB, []ctypes.Member{{Name: "mode", Type: ctypes.Double}})

	p, _ := r.New(confA, HeapAlloc)
	r.TypeCheck(p, confB, "other-tu")
	if r.Reporter.IssuesByKind()[TypeError] != 1 {
		t.Fatalf("incompatible same-tag definitions not detected:\n%s", r.Reporter.Log())
	}
	// The report must distinguish the two despite the shared tag.
	issues := r.Reporter.Issues()
	if issues[0].StaticType == issues[0].DynamicType {
		t.Fatalf("report cannot distinguish the definitions: %+v", issues[0])
	}
}
