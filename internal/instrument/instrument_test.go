package instrument

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/mir"
)

// buildFig4 builds the paper's Fig. 4 example program: a linked-list
// length function and an array sum function, uninstrumented.
func buildFig4(tb *ctypes.Table) *mir.Program {
	node := tb.MustParse("struct node { struct node *next; int v; }")
	nodePtr := tb.PointerTo(node)
	intPtr := tb.PointerTo(ctypes.Int)
	p := mir.NewProgram(tb)

	// int length(node *xs) { int len=0; while (xs) { len++; xs = xs->next; } return len; }
	b := mir.NewFunc(p, "length", ctypes.Int, mir.Param{Name: "xs", Type: nodePtr})
	xs := b.Param(0)
	length := b.Const(ctypes.Int, 0)
	loop, body, done := b.Reserve("loop"), b.Reserve("body"), b.Reserve("done")
	b.Jmp(loop)
	b.SetBlock(loop)
	null := b.Const(nodePtr, 0)
	c := b.Cmp(mir.CmpNe, nodePtr, xs, null)
	b.Br(c, body, done)
	b.SetBlock(body)
	b.BinTo(length, mir.BinAdd, ctypes.Int, length, b.Const(ctypes.Int, 1))
	tmp := b.Field(node, xs, "next")
	nxt := b.Load(nodePtr, tmp)
	b.MovTo(xs, nxt)
	b.Jmp(loop)
	b.SetBlock(done)
	b.Ret(length)

	// int sum(int *a, int len) { int s=0; for (i=0..len) s += a[i]; return s; }
	b = mir.NewFunc(p, "sum", ctypes.Int,
		mir.Param{Name: "a", Type: intPtr}, mir.Param{Name: "len", Type: ctypes.Int})
	a, n := b.Param(0), b.Param(1)
	s := b.Const(ctypes.Int, 0)
	i := b.Const(ctypes.Int, 0)
	loop, body, done = b.Reserve("loop"), b.Reserve("body"), b.Reserve("done")
	b.Jmp(loop)
	b.SetBlock(loop)
	b.Br(b.Cmp(mir.CmpLt, ctypes.Int, i, n), body, done)
	b.SetBlock(body)
	tmp = b.Index(ctypes.Int, a, i)
	b.BinTo(s, mir.BinAdd, ctypes.Int, s, b.Load(ctypes.Int, tmp))
	b.BinTo(i, mir.BinAdd, ctypes.Int, i, b.Const(ctypes.Int, 1))
	b.Jmp(loop)
	b.SetBlock(done)
	b.Ret(s)

	return p
}

func countOps(f *mir.Func, op mir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == op {
				n++
			}
		}
	}
	return n
}

// TestFig4Schema verifies the instrumentation shape of the paper's
// Fig. 4: sum gets exactly one type check (on function entry, outside the
// loop) and one bounds check per element access; length gets one entry
// check, one per-iteration check on the loaded next pointer, and one
// narrowing per field access.
func TestFig4Schema(t *testing.T) {
	tb := ctypes.NewTable()
	p := buildFig4(tb)
	ip, st := Instrument(p, Options{Variant: Full})
	if err := ip.Validate(); err != nil {
		t.Fatal(err)
	}

	sum := ip.Funcs["sum"]
	if got := countOps(sum, mir.OpTypeCheck); got != 1 {
		t.Errorf("sum: %d type checks, want 1 (entry only, hoisted out of the loop)", got)
	}
	if got := countOps(sum, mir.OpBoundsCheck); got != 1 {
		t.Errorf("sum: %d bounds checks, want 1 (the element load)", got)
	}
	// The entry check must precede the loop: first instruction of entry.
	if sum.Blocks[0].Instrs[0].Op != mir.OpTypeCheck {
		t.Error("sum: entry type check not at function start")
	}

	length := ip.Funcs["length"]
	if got := countOps(length, mir.OpTypeCheck); got != 2 {
		t.Errorf("length: %d type checks, want 2 (entry + loaded next pointer)", got)
	}
	if got := countOps(length, mir.OpBoundsNarrow); got != 1 {
		t.Errorf("length: %d narrows, want 1 (the field access)", got)
	}
	if got := countOps(length, mir.OpBoundsCheck); got != 1 {
		t.Errorf("length: %d bounds checks, want 1 (the next load)", got)
	}
	_ = st
}

// runInstrumented builds a fresh EffectiveSan runtime, runs main, and
// returns the runtime for inspection.
func runInstrumented(t *testing.T, p *mir.Program, opts Options) *core.Runtime {
	t.Helper()
	ip, _ := Instrument(p, opts)
	rt := core.NewRuntime(core.Options{Types: p.Types})
	in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run("main"); err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestFig4EndToEnd executes the instrumented Fig. 4 program on real data:
// correct inputs produce zero errors and the expected check counts.
func TestFig4EndToEnd(t *testing.T) {
	tb := ctypes.NewTable()
	p := buildFig4(tb)
	node := tb.Lookup(ctypes.KindStruct, "node")
	nodePtr := tb.PointerTo(node)

	// main: build a 5-node list and a 10-int array, call both.
	b := mir.NewFunc(p, "main", ctypes.Int)
	head := b.Const(nodePtr, 0)
	for i := 0; i < 5; i++ {
		n := b.MallocN(node, 1)
		f := b.Field(node, n, "next")
		b.Store(nodePtr, f, head)
		fv := b.Field(node, n, "v")
		b.Store(ctypes.Int, fv, b.Const(ctypes.Int, int64(i)))
		head = b.Mov(n)
	}
	arr := b.MallocN(ctypes.Int, 10)
	for i := 0; i < 10; i++ {
		el := b.Index(ctypes.Int, arr, b.Const(ctypes.Int, int64(i)))
		b.Store(ctypes.Int, el, b.Const(ctypes.Int, int64(i)))
	}
	l := b.Call("length", head)
	s := b.Call("sum", arr, b.Const(ctypes.Int, 10))
	b.Ret(b.Bin(mir.BinAdd, ctypes.Int, l, s))

	ip, _ := Instrument(p, Options{Variant: Full})
	rt := core.NewRuntime(core.Options{Types: tb})
	in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := in.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if got != 5+45 {
		t.Fatalf("main() = %d, want 50", got)
	}
	if rt.Reporter.Total() != 0 {
		t.Fatalf("correct program reported errors:\n%s", rt.Reporter.Log())
	}
	st := rt.Stats()
	// length: 1 entry check + 5 loaded-pointer checks (one per node).
	// sum: 1 entry check. main: none (allocations use bounds_get).
	if st.TypeChecks != 7 {
		t.Errorf("type checks = %d, want 7 (O(N) for length, O(1) for sum)", st.TypeChecks)
	}
	if st.BoundsChecks == 0 || st.BoundsNarrows == 0 {
		t.Errorf("stats = %+v: bounds machinery unused", st)
	}
}

// TestDetectsSubObjectOverflow: the §1 account example under full
// instrumentation.
func TestDetectsSubObjectOverflow(t *testing.T) {
	tb := ctypes.NewTable()
	acct := tb.MustParse("struct account { int number[8]; float balance; }")
	intPtr := tb.PointerTo(ctypes.Int)
	p := mir.NewProgram(tb)

	b := mir.NewFunc(p, "main", ctypes.Int)
	obj := b.MallocN(acct, 1)
	num := b.Field(acct, obj, "number") // int[8] sub-object
	numP := b.Cast(intPtr, tb.PointerTo(tb.MustParse("int[8]")), num)
	// Write number[0..8] — the last write overflows into balance.
	for i := 0; i <= 8; i++ {
		el := b.Index(ctypes.Int, numP, b.Const(ctypes.Int, int64(i)))
		b.Store(ctypes.Int, el, b.Const(ctypes.Int, 7))
	}
	b.Ret(b.Const(ctypes.Int, 0))

	rt := runInstrumented(t, p, Options{Variant: Full})
	if rt.Reporter.IssuesByKind()[core.BoundsError] != 1 {
		t.Fatalf("sub-object overflow not detected:\n%s", rt.Reporter.Log())
	}

	// The bounds-only variant must MISS it: the write stays inside the
	// allocation (the documented blind spot of allocation-bounds tools).
	rt2 := runInstrumented(t, p, Options{Variant: BoundsOnly})
	if rt2.Reporter.Total() != 0 {
		t.Fatalf("bounds-only variant should miss intra-object overflow:\n%s", rt2.Reporter.Log())
	}
}

func TestTypeOnlyInstrumentsCastsOnly(t *testing.T) {
	tb := ctypes.NewTable()
	s := tb.MustParse("struct TO { int x; }")
	sPtr := tb.PointerTo(s)
	fPtr := tb.PointerTo(ctypes.Float)
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Int)
	obj := b.MallocN(s, 1)
	// A bad cast, never dereferenced: TypeOnly still checks (rule (d)
	// regardless of use), Full does not (unused pointer).
	bad := b.Cast(fPtr, sPtr, obj)
	_ = bad
	b.Ret(b.Const(ctypes.Int, 0))

	ipType, stType := Instrument(p, Options{Variant: TypeOnly})
	if stType.TypeChecks != 1 {
		t.Fatalf("TypeOnly inserted %d type checks, want 1", stType.TypeChecks)
	}
	if n := countOps(ipType.Funcs["main"], mir.OpBoundsCheck); n != 0 {
		t.Fatalf("TypeOnly inserted %d bounds checks, want 0", n)
	}

	_, stFull := Instrument(p, Options{Variant: Full})
	if stFull.TypeChecks != 0 {
		t.Fatalf("Full checked an unused cast: %+v", stFull)
	}
	if stFull.ElidedUnused == 0 {
		t.Fatal("Full should have recorded the elided unused check")
	}

	// Executing the TypeOnly program reports the confusion.
	rt := core.NewRuntime(core.Options{Types: tb})
	in, err := mir.New(ipType, mir.Options{Env: mir.NewEffEnv(rt)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run("main"); err != nil {
		t.Fatal(err)
	}
	if rt.Reporter.IssuesByKind()[core.TypeError] != 1 {
		t.Fatalf("TypeOnly missed the bad cast:\n%s", rt.Reporter.Log())
	}
}

func TestUpcastElision(t *testing.T) {
	tb := ctypes.NewTable()
	base := tb.MustParse("class UBase2 { int x; }")
	der := tb.MustParse("class UDer2 : UBase2 { int y; }")
	bPtr, dPtr := tb.PointerTo(base), tb.PointerTo(der)
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Int)
	obj := b.MallocN(der, 1)
	objD := b.Cast(dPtr, dPtr, obj)
	up := b.Cast(bPtr, dPtr, objD) // upcast: statically safe
	v := b.Load(ctypes.Int, up)    // use it so it would otherwise be checked
	b.Ret(v)

	_, stOpt := Instrument(p, Options{Variant: Full})
	// Both the identity cast and the upcast are elided as statically
	// safe. (Elided casts propagate their source's bounds, so the
	// used-pointer analysis flows through them back to the malloc, which
	// keeps its bounds_get.)
	if stOpt.ElidedUpcasts != 2 {
		t.Fatalf("elided upcasts = %d, want 2", stOpt.ElidedUpcasts)
	}
	_, stNoOpt := Instrument(p, Options{Variant: Full, NoOptimize: true})
	if stNoOpt.ElidedUpcasts != 0 || stNoOpt.TypeChecks <= stOpt.TypeChecks {
		t.Fatalf("optimisation ablation wrong: opt=%+v noopt=%+v", stOpt, stNoOpt)
	}
}

func TestSubsumedBoundsCheckElision(t *testing.T) {
	tb := ctypes.NewTable()
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Int)
	arr := b.MallocN(ctypes.Long, 4)
	// Two consecutive loads through the same unmodified pointer: the
	// second bounds check is subsumed.
	v1 := b.Load(ctypes.Long, arr)
	v2 := b.Load(ctypes.Long, arr)
	s := b.Bin(mir.BinAdd, ctypes.Long, v1, v2)
	si := b.Cast(ctypes.Int, ctypes.Long, s)
	b.Ret(si)

	_, st := Instrument(p, Options{Variant: Full, NoStaticElision: true})
	if st.ElidedSubsume != 1 {
		t.Fatalf("subsumed checks elided = %d, want 1", st.ElidedSubsume)
	}
	_, stNoOpt := Instrument(p, Options{Variant: Full, NoOptimize: true})
	if stNoOpt.ElidedSubsume != 0 {
		t.Fatal("NoOptimize must keep subsumed checks")
	}
}

func TestMerelyCastingAttractsNoInstrumentation(t *testing.T) {
	// §4: "a function that merely casts and returns a pointer will not
	// attract instrumentation".
	tb := ctypes.NewTable()
	iPtr := tb.PointerTo(ctypes.Int)
	fPtr := tb.PointerTo(ctypes.Float)
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "castonly", fPtr, mir.Param{Name: "p", Type: iPtr})
	c := b.Cast(fPtr, iPtr, b.Param(0))
	b.Ret(c)

	ip, st := Instrument(p, Options{Variant: Full})
	f := ip.Funcs["castonly"]
	if n := countOps(f, mir.OpTypeCheck) + countOps(f, mir.OpBoundsCheck) +
		countOps(f, mir.OpEscapeCheck); n != 0 {
		t.Fatalf("castonly attracted %d checks, want 0", n)
	}
	if st.ElidedUnused == 0 {
		t.Fatal("unused-pointer elision not recorded")
	}
}

func TestNaiveModeChecksEveryDereference(t *testing.T) {
	tb := ctypes.NewTable()
	p := buildFig4(tb)
	_, stFull := Instrument(p, Options{Variant: Full})
	_, stNaive := Instrument(p, Options{Variant: Full, Naive: true})
	if stNaive.TypeChecks <= stFull.TypeChecks {
		t.Fatalf("naive type checks (%d) must exceed schema's (%d)",
			stNaive.TypeChecks, stFull.TypeChecks)
	}
}

func TestEscapeChecksOnPointerStores(t *testing.T) {
	tb := ctypes.NewTable()
	s := tb.MustParse("struct ES { int *p; }")
	iPtr := tb.PointerTo(ctypes.Int)
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Int)
	obj := b.MallocN(s, 1)
	val := b.MallocN(ctypes.Int, 4)
	f := b.Field(s, obj, "p")
	b.Store(iPtr, f, val) // pointer store: value escapes
	b.Ret(b.Const(ctypes.Int, 0))

	ip, st := Instrument(p, Options{Variant: Full})
	if st.EscapeChecks != 1 {
		t.Fatalf("escape checks = %d, want 1", st.EscapeChecks)
	}
	if err := ip.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUninstrumentedPassesThrough(t *testing.T) {
	tb := ctypes.NewTable()
	p := buildFig4(tb)
	ip, st := Instrument(p, Options{Variant: None})
	if st.TypeChecks != 0 || st.BoundsGets != 0 || st.Narrows != 0 ||
		st.BoundsChecks != 0 || st.EscapeChecks != 0 || st.CheckSites != 0 ||
		st.ElidedStaticSafe != 0 || len(st.StaticDiags) != 0 {
		t.Fatalf("None variant inserted checks: %+v", st)
	}
	if ip.Funcs["sum"].NumInstrs() != p.Funcs["sum"].NumInstrs() {
		t.Fatal("None variant changed the program")
	}
}

// TestVariantOrdering: instrumented instruction counts must order
// Full > BoundsOnly > TypeOnly > None — the static cost ordering
// underlying Fig. 8.
func TestVariantOrdering(t *testing.T) {
	tb := ctypes.NewTable()
	p := buildFig4(tb)
	count := func(v Variant) int {
		ip, _ := Instrument(p, Options{Variant: v})
		n := 0
		for _, f := range ip.Funcs {
			n += f.NumInstrs()
		}
		return n
	}
	full, bounds, typeOnly, none := count(Full), count(BoundsOnly), count(TypeOnly), count(None)
	if !(full > bounds && bounds > typeOnly && typeOnly >= none) {
		t.Fatalf("instruction counts full=%d bounds=%d type=%d none=%d: ordering violated",
			full, bounds, typeOnly, none)
	}
}

// TestRedundantNarrowElision: duplicate narrowing operations on the same
// register (as can arise from macro-expanded repeated field selections)
// are removed by the optimiser.
func TestRedundantNarrowElision(t *testing.T) {
	tb := ctypes.NewTable()
	s := tb.MustParse("struct RN { long a; long b; }")
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Long)
	obj := b.MallocN(s, 1)
	f := b.Field(s, obj, "a")
	// Hand-inserted duplicate narrows, as a front-end emitting per-macro
	// checks might produce.
	blk := b.F.Blocks[b.CurBlock()]
	blk.Instrs = append(blk.Instrs,
		mir.Instr{Op: mir.OpBoundsNarrow, Dst: -1, A: f, B: -1, C: -1, Aux: 8},
		mir.Instr{Op: mir.OpBoundsNarrow, Dst: -1, A: f, B: -1, C: -1, Aux: 8},
	)
	v := b.Load(ctypes.Long, f)
	b.Ret(v)

	_, st := Instrument(p, Options{Variant: Full, NoStaticElision: true})
	if st.ElidedNarrows == 0 {
		t.Fatal("duplicate narrow not elided")
	}
	_, stNo := Instrument(p, Options{Variant: Full, NoOptimize: true})
	if stNo.ElidedNarrows != 0 {
		t.Fatal("NoOptimize must keep duplicate narrows")
	}
}

// TestBoundsVariantSkipsNarrowing: the bounds-only variant must not
// insert narrowing (it protects whole allocations only).
func TestBoundsVariantSkipsNarrowing(t *testing.T) {
	tb := ctypes.NewTable()
	s := tb.MustParse("struct BV { int x[4]; int y; }")
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Int)
	obj := b.MallocN(s, 1)
	f := b.Field(s, obj, "y")
	v := b.Load(ctypes.Int, f)
	b.Ret(v)

	ip, st := Instrument(p, Options{Variant: BoundsOnly})
	if st.Narrows != 0 || countOps(ip.Funcs["main"], mir.OpBoundsNarrow) != 0 {
		t.Fatalf("bounds variant narrowed: %+v", st)
	}
	if st.BoundsChecks == 0 {
		t.Fatal("bounds variant must still bounds-check uses")
	}
}

func TestRedundantTypeCheckReuse(t *testing.T) {
	// Naive mode type-checks before every dereference; two loads through
	// the same unmodified pointer in one block make the second check
	// redundant — its provenance was checked instructions earlier and
	// the bounds register still holds the result.
	tb := ctypes.NewTable()
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Int)
	arr := b.MallocN(ctypes.Long, 4)
	v1 := b.Load(ctypes.Long, arr)
	v2 := b.Load(ctypes.Long, arr)
	s := b.Bin(mir.BinAdd, ctypes.Long, v1, v2)
	b.Ret(b.Cast(ctypes.Int, ctypes.Long, s))

	_, st := Instrument(p, Options{Variant: Full, NoStaticElision: true, Naive: true})
	if st.ElidedRechecks != 1 {
		t.Fatalf("rechecks elided = %d, want 1", st.ElidedRechecks)
	}
	_, stNoOpt := Instrument(p, Options{Variant: Full, Naive: true, NoOptimize: true})
	if stNoOpt.ElidedRechecks != 0 {
		t.Fatal("NoOptimize must keep redundant type checks")
	}
}

func TestTypeCheckReuseThroughMov(t *testing.T) {
	// Provenance flows through mov: the copy inherits the original's
	// bounds register, so re-checking the copy against the same static
	// type is redundant.
	tb := ctypes.NewTable()
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Long)
	arr := b.MallocN(ctypes.Long, 4)
	v1 := b.Load(ctypes.Long, arr)
	cp := b.Mov(arr)
	v2 := b.Load(ctypes.Long, cp)
	b.Ret(b.Bin(mir.BinAdd, ctypes.Long, v1, v2))

	_, st := Instrument(p, Options{Variant: Full, NoStaticElision: true, Naive: true})
	if st.ElidedRechecks != 1 {
		t.Fatalf("rechecks elided through mov = %d, want 1", st.ElidedRechecks)
	}
}

func TestTypeCheckReuseBarrierOnFree(t *testing.T) {
	// free can rebind the object's metadata to FREE: a type check after
	// an intervening free must NOT be elided, or the use-after-free
	// would go undetected.
	tb := ctypes.NewTable()
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Long)
	arr := b.MallocN(ctypes.Long, 4)
	v1 := b.Load(ctypes.Long, arr)
	b.Free(arr)
	v2 := b.Load(ctypes.Long, arr) // use after free
	b.Ret(b.Bin(mir.BinAdd, ctypes.Long, v1, v2))

	ip, st := Instrument(p, Options{Variant: Full, Naive: true})
	if st.ElidedRechecks != 0 {
		t.Fatalf("rechecks elided across free = %d, want 0", st.ElidedRechecks)
	}
	rt := core.NewRuntime(core.Options{Types: tb})
	in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run("main"); err != nil {
		t.Fatal(err)
	}
	if kinds := rt.Reporter.IssuesByKind(); kinds[core.UseAfterFree] == 0 {
		t.Fatalf("use-after-free undetected with check reuse on: %v", kinds)
	}
}

// buildBranchy builds a branching program whose redundant checks are
// only visible across blocks: one pointer loaded in the entry and then
// dereferenced again on both branch arms and at the join.
//
//	entry: arr = malloc long[4]; load arr; br c -> left, right
//	left:  load arr; jmp join
//	right: load arr; jmp join
//	join:  load arr; ret
func buildBranchy(tb *ctypes.Table) *mir.Program {
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Long)
	arr := b.MallocN(ctypes.Long, 4)
	v0 := b.Load(ctypes.Long, arr)
	left, right, join := b.Reserve("left"), b.Reserve("right"), b.Reserve("join")
	c := b.Const(ctypes.Int, 1)
	b.Br(c, left, right)
	b.SetBlock(left)
	v1 := b.Load(ctypes.Long, arr)
	b.Jmp(join)
	b.SetBlock(right)
	v2 := b.Load(ctypes.Long, arr)
	b.Jmp(join)
	b.SetBlock(join)
	v3 := b.Load(ctypes.Long, arr)
	s := b.Bin(mir.BinAdd, ctypes.Long, v0, v1)
	s = b.Bin(mir.BinAdd, ctypes.Long, s, v2)
	s = b.Bin(mir.BinAdd, ctypes.Long, s, v3)
	b.Ret(s)
	return p
}

// TestCrossBlockElisionBeatsPerBlock: on a branching program the
// dataflow pass removes strictly more checks than the block-local pass
// did — the entry check covers both arms and the join, so their
// re-checks are redundant, which block-local analysis cannot see — and
// exactly as many as the dominator-tree walk did, since the entry
// dominates everything. The recorded counts are in elide_test.go.
func TestCrossBlockElisionBeatsPerBlock(t *testing.T) {
	ip, st := Instrument(buildBranchy(ctypes.NewTable()), Options{Variant: Full, NoStaticElision: true, Naive: true})

	if got := countChecks(ip); got >= branchyPerBlockChecks || got != branchyDomTreeChecks {
		t.Fatalf("dataflow pass left %d checks, want fewer than the block-local pass's %d and equal to the dominator walk's %d",
			got, branchyPerBlockChecks, branchyDomTreeChecks)
	}
	// The three re-checks (left, right, join) and the three subsumed
	// bounds checks are exactly the cross-block wins.
	if st.ElidedRechecks != 3 || st.ElidedRechecks <= branchyPerBlockRechecks {
		t.Errorf("rechecks elided = %d, want 3 (the block-local pass: %d)",
			st.ElidedRechecks, branchyPerBlockRechecks)
	}
	if st.ElidedPathSensitive != branchyDomTreeCrossBlock {
		t.Errorf("ElidedPathSensitive = %d, want %d", st.ElidedPathSensitive, branchyDomTreeCrossBlock)
	}

	// The elided program executes cleanly.
	rt := core.NewRuntime(core.Options{Types: ip.Types})
	in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run("main"); err != nil {
		t.Fatal(err)
	}
	if rt.Reporter.Total() != 0 {
		t.Fatalf("clean program reported errors:\n%s", rt.Reporter.Log())
	}
}

// TestCrossBlockElisionBarrierOnPath: a free on ONE arm of a branch must
// block elision at the join — the check there is the one that reports
// the use-after-free.
func TestCrossBlockElisionBarrierOnPath(t *testing.T) {
	tb := ctypes.NewTable()
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Long)
	arr := b.MallocN(ctypes.Long, 4)
	v0 := b.Load(ctypes.Long, arr)
	fr, ok, join := b.Reserve("fr"), b.Reserve("ok"), b.Reserve("join")
	c := b.Const(ctypes.Int, 1)
	b.Br(c, fr, ok)
	b.SetBlock(fr)
	b.Free(arr)
	b.Jmp(join)
	b.SetBlock(ok)
	b.Jmp(join)
	b.SetBlock(join)
	v1 := b.Load(ctypes.Long, arr) // UAF when the fr arm ran
	b.Ret(b.Bin(mir.BinAdd, ctypes.Long, v0, v1))

	ip, st := Instrument(p, Options{Variant: Full, Naive: true})
	if st.ElidedRechecks != 0 {
		t.Fatalf("type check elided across a freeing path: %+v", st)
	}
	rt := core.NewRuntime(core.Options{Types: tb})
	in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Run("main"); err != nil {
		t.Fatal(err)
	}
	if rt.Reporter.IssuesByKind()[core.UseAfterFree] == 0 {
		t.Fatalf("use-after-free at the join undetected:\n%s", rt.Reporter.Log())
	}
}

// TestCrossBlockElisionLoopBarrier: a free later in a loop body reaches
// the top of the same body via the back edge, so the body's own check
// cannot be elided against a preheader check.
func TestCrossBlockElisionLoopBarrier(t *testing.T) {
	tb := ctypes.NewTable()
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Long)
	arr := b.MallocN(ctypes.Long, 4)
	v0 := b.Load(ctypes.Long, arr) // preheader check on arr's provenance
	loop, exit := b.Reserve("loop"), b.Reserve("exit")
	b.Jmp(loop)
	b.SetBlock(loop)
	v1 := b.Load(ctypes.Long, arr) // must re-check: the body frees below
	b.Free(arr)
	c := b.Const(ctypes.Int, 0)
	b.Br(c, loop, exit)
	b.SetBlock(exit)
	b.Ret(b.Bin(mir.BinAdd, ctypes.Long, v0, v1))

	_, st := Instrument(p, Options{Variant: Full, Naive: true})
	if st.ElidedRechecks != 0 {
		t.Fatalf("loop-body check elided despite the in-loop free: %+v", st)
	}
}

// TestSiteIDAssignment: every surviving OpTypeCheck carries a dense,
// stable, 1-based site ID in Aux, and re-instrumenting the same program
// reproduces the same assignment.
func TestSiteIDAssignment(t *testing.T) {
	collect := func(ip *mir.Program) []int64 {
		var ids []int64
		for _, f := range ip.Funcs {
			for _, blk := range f.Blocks {
				for _, ins := range blk.Instrs {
					if ins.Op == mir.OpTypeCheck {
						ids = append(ids, ins.Aux)
					}
				}
			}
		}
		return ids
	}
	tb := ctypes.NewTable()
	p := buildFig4(tb)
	ip1, st1 := Instrument(p, Options{Variant: Full})
	ids := collect(ip1)
	if len(ids) == 0 || st1.CheckSites != len(ids) {
		t.Fatalf("CheckSites = %d, %d checks found", st1.CheckSites, len(ids))
	}
	seen := map[int64]bool{}
	for _, id := range ids {
		if id < 1 || id > int64(st1.CheckSites) || seen[id] {
			t.Fatalf("site IDs not dense and unique: %v", ids)
		}
		seen[id] = true
	}
	// Stability: a second instrumentation of the same input assigns the
	// same IDs to the same sites (map iteration order must not leak in).
	ip2, _ := Instrument(p, Options{Variant: Full})
	for name, f := range ip1.Funcs {
		f2 := ip2.Funcs[name]
		for bi, blk := range f.Blocks {
			for ii, ins := range blk.Instrs {
				if ins.Op == mir.OpTypeCheck && f2.Blocks[bi].Instrs[ii].Aux != ins.Aux {
					t.Fatalf("%s:%d:%d: site ID %d vs %d across runs",
						name, bi, ii, ins.Aux, f2.Blocks[bi].Instrs[ii].Aux)
				}
			}
		}
	}
}

func TestTypeCheckReuseDetectionParity(t *testing.T) {
	// The reuse pass is performance-only: a program with real errors
	// must report the same issue kinds with and without it (NoOptimize
	// turns reuse off with the rest of the elision pass).
	tb := ctypes.NewTable()
	node := tb.MustParse("struct node2 { struct node2 *next; int v; }")
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Int)
	obj := b.MallocN(node, 1)
	fPtr := tb.PointerTo(ctypes.Float)
	nPtr := tb.PointerTo(node)
	bad := b.Cast(fPtr, nPtr, obj) // type confusion
	v := b.Load(ctypes.Float, bad)
	v2 := b.Load(ctypes.Float, bad) // second confused load, same block
	_ = v2
	b.Ret(b.Cast(ctypes.Int, ctypes.Float, v))

	run := func(opts Options) map[core.ErrorKind]int {
		ip, _ := Instrument(p, opts)
		rt := core.NewRuntime(core.Options{Types: tb})
		in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := in.Run("main"); err != nil {
			t.Fatal(err)
		}
		return rt.Reporter.IssuesByKind()
	}
	withReuse := run(Options{Variant: Full, Naive: true})
	without := run(Options{Variant: Full, Naive: true, NoOptimize: true})
	if withReuse[core.TypeError] == 0 {
		t.Fatal("type confusion undetected with reuse on")
	}
	if len(withReuse) != len(without) {
		t.Fatalf("issue kinds diverge: %v vs %v", withReuse, without)
	}
	for k := range withReuse {
		if without[k] == 0 {
			t.Fatalf("issue kind %v missing without reuse", k)
		}
	}
}
