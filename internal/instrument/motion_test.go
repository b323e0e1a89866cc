package instrument

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/mir"
)

// runWithStats executes a program under a fresh runtime and returns the
// result, the dynamic check counters and the reporter.
func runWithStats(t *testing.T, ip *mir.Program) (uint64, core.StatsSnapshot, *core.Reporter) {
	t.Helper()
	rt := core.NewRuntime(core.Options{Types: ip.Types})
	in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := in.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	return v, rt.Stats(), rt.Reporter
}

// buildInvariantHeaderLoop builds a counted loop whose HEADER reads an
// invariant struct field every iteration (`while (i < n) acc += c->a`,
// roughly):
//
//	entry: c = malloc pair; c->a = 7; i = 0; acc = 0
//	head:  fld = &c->a; v = *fld; if (i < n) -> body else exit
//	body:  acc += v; i += 1; -> head
//	exit:  ret acc
//
// The field address is recomputed per iteration, so its instrumentation
// (narrow + bounds check) re-runs per iteration and no register-keyed
// fact survives the redefinition — elision alone cannot touch it. The
// whole chain (field, narrow, check) is loop-invariant, though: the
// header dominates the only exit (itself) and the latch, and c is
// defined outside the loop, so hoisting moves it to the preheader.
func buildInvariantHeaderLoop(tb *ctypes.Table, n int64) *mir.Program {
	rec := tb.MustParse("struct pair { long a; long b; }")
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Long)
	c := b.MallocN(rec, 1)
	b.Store(ctypes.Long, b.Field(rec, c, "a"), b.Const(ctypes.Long, 7))
	lim := b.Const(ctypes.Long, n)
	one := b.Const(ctypes.Long, 1)
	zero := b.Const(ctypes.Long, 0)
	i, acc := b.Reg(), b.Reg()
	b.MovTo(i, zero)
	b.MovTo(acc, zero)
	head, body, exit := b.Reserve("head"), b.Reserve("body"), b.Reserve("exit")
	b.Jmp(head)
	b.SetBlock(head)
	fld := b.Field(rec, c, "a")
	v := b.Load(ctypes.Long, fld)
	b.Br(b.Cmp(mir.CmpLt, ctypes.Long, i, lim), body, exit)
	b.SetBlock(body)
	b.BinTo(acc, mir.BinAdd, ctypes.Long, acc, v)
	b.BinTo(i, mir.BinAdd, ctypes.Long, i, one)
	b.Jmp(head)
	b.SetBlock(exit)
	b.Ret(acc)
	return p
}

// motionOnOff instruments the same source with the motion suite on and
// off (all other optimisations identical) and returns both.
func motionOnOff(build func(tb *ctypes.Table) *mir.Program, base Options) (on, off *mir.Program, stOn, stOff Stats) {
	on, stOn = Instrument(build(ctypes.NewTable()), base)
	offOpts := base
	offOpts.NoCheckMotion = true
	off, stOff = Instrument(build(ctypes.NewTable()), offOpts)
	return on, off, stOn, stOff
}

// TestHoistInvariantHeaderCheck: the header's field chain and its
// bounds check move to the preheader (the entry block, which already
// jumps straight to the header), the loop stops re-checking per
// iteration, and detection and results are unchanged.
func TestHoistInvariantHeaderCheck(t *testing.T) {
	build := func(tb *ctypes.Table) *mir.Program { return buildInvariantHeaderLoop(tb, 8) }
	on, off, stOn, stOff := motionOnOff(build, Options{Variant: Full, NoStaticElision: true})

	if stOn.HoistedChecks != 1 {
		t.Errorf("HoistedChecks = %d, want 1", stOn.HoistedChecks)
	}
	if stOff.HoistedChecks != 0 || stOff.PREInsertions != 0 || stOff.ValueNumberedElisions != 0 {
		t.Errorf("no-motion ablation moved checks anyway: %+v", stOff)
	}
	fOn := on.Funcs["main"]
	// Block 1 is the loop header in both variants (hoisting adds no
	// blocks here: the entry block is already the preheader). The check,
	// its narrow and the field address must all have left it.
	for _, ins := range fOn.Blocks[1].Instrs {
		switch ins.Op {
		case mir.OpBoundsCheck, mir.OpBoundsNarrow, mir.OpField:
			t.Errorf("loop header kept a %v after hoisting", ins.Op)
		}
	}

	vOn, dynOn, repOn := runWithStats(t, on)
	vOff, dynOff, repOff := runWithStats(t, off)
	if repOn.Total() != 0 || repOff.Total() != 0 {
		t.Fatalf("clean loop reported errors: on=%d off=%d", repOn.Total(), repOff.Total())
	}
	if vOn != vOff {
		t.Fatalf("results differ: on=%d off=%d (motion changed semantics)", vOn, vOff)
	}
	// 8 iterations: the header runs 9 times, so the no-motion run pays 8
	// more dynamic bounds checks (and narrows) than the hoisted one.
	if want := dynOn.BoundsChecks + 8; dynOff.BoundsChecks != want {
		t.Errorf("dynamic bounds checks: on=%d off=%d, want a gap of exactly 8 (one per extra header run)",
			dynOn.BoundsChecks, dynOff.BoundsChecks)
	}
	if dynOn.BoundsNarrows >= dynOff.BoundsNarrows {
		t.Errorf("dynamic narrows: on=%d off=%d, want strictly fewer with motion",
			dynOn.BoundsNarrows, dynOff.BoundsNarrows)
	}
}

// TestMotionSpeculationFree: on a ZERO-trip loop the header still runs
// once, so the hoisted check runs exactly as often as the original did —
// motion must never execute a check on a path that would not have.
func TestMotionSpeculationFree(t *testing.T) {
	build := func(tb *ctypes.Table) *mir.Program { return buildInvariantHeaderLoop(tb, 0) }
	on, off, stOn, _ := motionOnOff(build, Options{Variant: Full, NoStaticElision: true})
	if stOn.HoistedChecks != 1 {
		t.Fatalf("HoistedChecks = %d, want 1 (zero-trip is a runtime property)", stOn.HoistedChecks)
	}
	vOn, dynOn, repOn := runWithStats(t, on)
	vOff, dynOff, repOff := runWithStats(t, off)
	if repOn.Total() != 0 || repOff.Total() != 0 || vOn != vOff {
		t.Fatalf("zero-trip parity broken: on=(%d,%d reports) off=(%d,%d reports)",
			vOn, repOn.Total(), vOff, repOff.Total())
	}
	if dynOn.BoundsChecks != dynOff.BoundsChecks || dynOn.TypeChecks != dynOff.TypeChecks {
		t.Errorf("zero-trip dynamic checks: on=(%d,%d) off=(%d,%d), want identical — hoisting speculated",
			dynOn.TypeChecks, dynOn.BoundsChecks, dynOff.TypeChecks, dynOff.BoundsChecks)
	}
}

// buildCastHeaderLoop builds a loop whose header downcasts a long
// pointer and reads a field through it every iteration; with barrier, a
// may-free call sits in the body.
func buildCastHeaderLoop(tb *ctypes.Table, barrier bool) *mir.Program {
	rec := tb.MustParse("struct pair { long a; long b; }")
	recPtr := tb.PointerTo(rec)
	longPtr := tb.PointerTo(ctypes.Long)
	p := mir.NewProgram(tb)
	if barrier {
		nop := mir.NewFunc(p, "nop", nil)
		nop.RetVoid()
	}
	b := mir.NewFunc(p, "main", ctypes.Long)
	pair := b.MallocN(rec, 1)
	b.Store(ctypes.Long, b.Field(rec, pair, "a"), b.Const(ctypes.Long, 5))
	lp := b.Cast(longPtr, recPtr, pair)
	lim := b.Const(ctypes.Long, 4)
	one := b.Const(ctypes.Long, 1)
	zero := b.Const(ctypes.Long, 0)
	i, acc := b.Reg(), b.Reg()
	b.MovTo(i, zero)
	b.MovTo(acc, zero)
	head, body, exit := b.Reserve("head"), b.Reserve("body"), b.Reserve("exit")
	b.Jmp(head)
	b.SetBlock(head)
	t0 := b.Cast(recPtr, longPtr, lp) // checked downcast, every iteration
	v := b.Load(ctypes.Long, b.Field(rec, t0, "a"))
	b.Br(b.Cmp(mir.CmpLt, ctypes.Long, i, lim), body, exit)
	b.SetBlock(body)
	if barrier {
		b.CallV("nop")
	}
	b.BinTo(acc, mir.BinAdd, ctypes.Long, acc, v)
	b.BinTo(i, mir.BinAdd, ctypes.Long, i, one)
	b.Jmp(head)
	b.SetBlock(exit)
	b.Ret(acc)
	return p
}

// TestHoistRefusals is the refusal table: shapes where some or all
// candidates must stay in place.
func TestHoistRefusals(t *testing.T) {
	cases := []struct {
		name        string
		opts        Options
		build       func(tb *ctypes.Table) *mir.Program
		wantHoisted int
	}{
		{
			// The pointer advances every iteration (multi-def): nothing
			// about its check is invariant.
			name: "variant-pointer",
			opts: Options{Variant: Full, NoStaticElision: true},
			build: func(tb *ctypes.Table) *mir.Program {
				p := mir.NewProgram(tb)
				b := mir.NewFunc(p, "main", ctypes.Long)
				arr := b.MallocN(ctypes.Long, 8)
				lim := b.Const(ctypes.Long, 4)
				one := b.Const(ctypes.Long, 1)
				zero := b.Const(ctypes.Long, 0)
				q, i, acc := b.Reg(), b.Reg(), b.Reg()
				b.MovTo(q, arr)
				b.MovTo(i, zero)
				b.MovTo(acc, zero)
				head, body, exit := b.Reserve("head"), b.Reserve("body"), b.Reserve("exit")
				b.Jmp(head)
				b.SetBlock(head)
				v := b.Load(ctypes.Long, q) // q changes every iteration
				b.Br(b.Cmp(mir.CmpLt, ctypes.Long, i, lim), body, exit)
				b.SetBlock(body)
				b.BinTo(acc, mir.BinAdd, ctypes.Long, acc, v)
				b.MovTo(q, b.Index(ctypes.Long, q, one))
				b.BinTo(i, mir.BinAdd, ctypes.Long, i, one)
				b.Jmp(head)
				b.SetBlock(exit)
				b.Ret(acc)
				return p
			},
			wantHoisted: 0,
		},
		{
			// The check sits on a conditional arm inside the loop: its
			// block dominates neither the latch nor the exit, so moving
			// it would check on iterations that skipped the arm.
			name: "non-dominating-arm",
			opts: Options{Variant: Full, NoStaticElision: true},
			build: func(tb *ctypes.Table) *mir.Program {
				p := mir.NewProgram(tb)
				b := mir.NewFunc(p, "main", ctypes.Long)
				arr := b.MallocN(ctypes.Long, 4)
				lim := b.Const(ctypes.Long, 4)
				one := b.Const(ctypes.Long, 1)
				zero := b.Const(ctypes.Long, 0)
				two := b.Const(ctypes.Long, 2)
				i, acc := b.Reg(), b.Reg()
				b.MovTo(i, zero)
				b.MovTo(acc, zero)
				head, arm, latch, exit := b.Reserve("head"), b.Reserve("arm"), b.Reserve("latch"), b.Reserve("exit")
				b.Jmp(head)
				b.SetBlock(head)
				b.Br(b.Cmp(mir.CmpLt, ctypes.Long, i, two), arm, latch)
				b.SetBlock(arm)
				v := b.Load(ctypes.Long, arr) // only on early iterations
				b.BinTo(acc, mir.BinAdd, ctypes.Long, acc, v)
				b.Jmp(latch)
				b.SetBlock(latch)
				b.BinTo(i, mir.BinAdd, ctypes.Long, i, one)
				b.Br(b.Cmp(mir.CmpLt, ctypes.Long, i, lim), head, exit)
				b.SetBlock(exit)
				b.Ret(acc)
				return p
			},
			wantHoisted: 0,
		},
		{
			// A may-free call in the body: an in-loop free could change
			// what the per-iteration type check reports, so the
			// metadata-consulting checks are pinned — and the bounds
			// check's chain, entangled with the pinned check's bounds
			// write, is pinned with them. The no-barrier twin below
			// hoists both.
			name: "barrier-in-loop",
			opts: Options{Variant: Full, NoStaticElision: true},
			build: func(tb *ctypes.Table) *mir.Program {
				return buildCastHeaderLoop(tb, true)
			},
			wantHoisted: 0,
		},
		{
			// The same shape without the barrier: the cast's type check
			// hoists first, unblocking the field chain's bounds check in
			// the same per-loop fixpoint.
			name: "no-barrier-twin",
			opts: Options{Variant: Full, NoStaticElision: true},
			build: func(tb *ctypes.Table) *mir.Program {
				return buildCastHeaderLoop(tb, false)
			},
			wantHoisted: 2,
		},
		{
			// The body re-checks the same pointer (naive mode): an
			// unmoved in-loop bounds writer remains for the register the
			// candidate uses, so the header's checks stay too.
			name: "bounds-writer-remains",
			opts: Options{Variant: Full, NoStaticElision: true, Naive: true},
			build: func(tb *ctypes.Table) *mir.Program {
				p := mir.NewProgram(tb)
				b := mir.NewFunc(p, "main", ctypes.Long)
				arr := b.MallocN(ctypes.Long, 4)
				lim := b.Const(ctypes.Long, 4)
				one := b.Const(ctypes.Long, 1)
				zero := b.Const(ctypes.Long, 0)
				i, acc := b.Reg(), b.Reg()
				b.MovTo(i, zero)
				b.MovTo(acc, zero)
				head, body, exit := b.Reserve("head"), b.Reserve("body"), b.Reserve("exit")
				b.Jmp(head)
				b.SetBlock(head)
				v := b.Load(ctypes.Long, arr)
				b.Br(b.Cmp(mir.CmpLt, ctypes.Long, i, lim), body, exit)
				b.SetBlock(body)
				w := b.Load(ctypes.Long, arr) // naive: body re-type-checks arr
				b.BinTo(acc, mir.BinAdd, ctypes.Long, acc, v)
				b.BinTo(acc, mir.BinAdd, ctypes.Long, acc, w)
				b.BinTo(i, mir.BinAdd, ctypes.Long, i, one)
				b.Jmp(head)
				b.SetBlock(exit)
				b.Ret(acc)
				return p
			},
			wantHoisted: 0,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			on, off, stOn, _ := motionOnOff(tc.build, tc.opts)
			if stOn.HoistedChecks != tc.wantHoisted {
				t.Errorf("HoistedChecks = %d, want %d", stOn.HoistedChecks, tc.wantHoisted)
			}
			vOn, dynOn, repOn := runWithStats(t, on)
			vOff, dynOff, repOff := runWithStats(t, off)
			if vOn != vOff || repOn.Total() != repOff.Total() {
				t.Fatalf("motion parity broken: on=(%d,%d reports) off=(%d,%d reports)",
					vOn, repOn.Total(), vOff, repOff.Total())
			}
			total := func(s core.StatsSnapshot) uint64 { return s.TypeChecks + s.BoundsChecks }
			if total(dynOn) > total(dynOff) {
				t.Errorf("motion executed MORE checks: on=%d off=%d", total(dynOn), total(dynOff))
			}
		})
	}
}

// TestHoistRefusesIrreducible: a two-entry loop-like region has no
// natural loops; motion must leave the function untouched while the
// elision dataflow still removes every redundant check (the same six as
// TestElisionCFGEdgeCases pins).
func TestHoistRefusesIrreducible(t *testing.T) {
	build := func(tb *ctypes.Table) *mir.Program {
		p := mir.NewProgram(tb)
		b := mir.NewFunc(p, "main", ctypes.Long)
		arr := b.MallocN(ctypes.Long, 4)
		v0 := b.Load(ctypes.Long, arr)
		ba, bb, exit := b.Reserve("a"), b.Reserve("b"), b.Reserve("exit")
		c := b.Const(ctypes.Int, 0)
		b.Br(c, ba, bb)
		b.SetBlock(ba)
		v1 := b.Load(ctypes.Long, arr)
		b.Jmp(bb)
		b.SetBlock(bb)
		v2 := b.Load(ctypes.Long, arr)
		b.Br(c, ba, exit)
		b.SetBlock(exit)
		v3 := b.Load(ctypes.Long, arr)
		s := b.Bin(mir.BinAdd, ctypes.Long, v0, v1)
		s = b.Bin(mir.BinAdd, ctypes.Long, s, v2)
		s = b.Bin(mir.BinAdd, ctypes.Long, s, v3)
		b.Ret(s)
		return p
	}
	on, off, stOn, stOff := motionOnOff(build, Options{Variant: Full, NoStaticElision: true, Naive: true})
	if stOn.HoistedChecks != 0 || stOn.PREInsertions != 0 {
		t.Errorf("motion fired on an irreducible CFG: %+v", stOn)
	}
	// Elision is untouched by the refusal: the dataflow still elides all
	// six redundant checks, motion on or off.
	if stOn.ElidedPathSensitive != 6 || stOff.ElidedPathSensitive != 6 {
		t.Errorf("irreducible elision wins: on=%d off=%d, want 6 each",
			stOn.ElidedPathSensitive, stOff.ElidedPathSensitive)
	}
	vOn, _, repOn := runWithStats(t, on)
	vOff, _, repOff := runWithStats(t, off)
	if vOn != vOff || repOn.Total() != 0 || repOff.Total() != 0 {
		t.Fatalf("irreducible parity broken: on=(%d,%d) off=(%d,%d)",
			vOn, repOn.Total(), vOff, repOff.Total())
	}
}

// preSkeleton builds the PRE shape directly (the frontend emits checks
// adjacent to defs, so the header-check-of-an-earlier-register shape
// only arises in hand-built IR): a counted loop over a pointer
// parameter whose HEADER type-checks it, fed by an entry edge that has
// not checked it. A `withEntryCheck` variant puts the fact on the entry
// edge instead (then the BACK edge is the failing one).
func preSkeleton(tb *ctypes.Table, withEntryCheck, bodyBarrier bool) (*mir.Program, int) {
	p := mir.NewProgram(tb)
	if bodyBarrier {
		nop := mir.NewFunc(p, "nop", nil)
		nop.RetVoid()
	}
	longPtr := tb.PointerTo(ctypes.Long)
	b := mir.NewFunc(p, "f", ctypes.Long,
		mir.Param{Name: "p", Type: longPtr}, mir.Param{Name: "n", Type: ctypes.Long})
	pr, n := b.Param(0), b.Param(1)
	one := b.Const(ctypes.Long, 1)
	zero := b.Const(ctypes.Long, 0)
	i, acc := b.Reg(), b.Reg()
	b.MovTo(i, zero)
	b.MovTo(acc, zero)
	head, body, exit := b.Reserve("head"), b.Reserve("body"), b.Reserve("exit")
	b.Jmp(head)
	b.SetBlock(head)
	v := b.Load(ctypes.Long, pr)
	b.Br(b.Cmp(mir.CmpLt, ctypes.Long, i, n), body, exit)
	b.SetBlock(body)
	if bodyBarrier {
		b.CallV("nop")
	}
	b.BinTo(acc, mir.BinAdd, ctypes.Long, acc, v)
	b.BinTo(i, mir.BinAdd, ctypes.Long, i, one)
	b.Jmp(head)
	b.SetBlock(exit)
	b.Ret(acc)

	check := mir.Instr{Op: mir.OpTypeCheck, Dst: -1, A: pr, B: -1, C: -1,
		Type: ctypes.Long, Site: "f:check"}
	f := p.Funcs["f"]
	hb := f.Blocks[head]
	hb.Instrs = append([]mir.Instr{check}, hb.Instrs...)
	if withEntryCheck {
		eb := f.Blocks[0]
		eb.Instrs = append(eb.Instrs[:len(eb.Instrs)-1],
			check, eb.Instrs[len(eb.Instrs)-1])
	}
	return p, head
}

// TestPREInsertsOnLoopEntryEdge: the header's check is available on the
// back edge (it ran last iteration) but not on the entry edge; PRE
// copies it onto the entry edge and elision then deletes the header's —
// the hot loop re-checks nothing, the cold entry pays once.
func TestPREInsertsOnLoopEntryEdge(t *testing.T) {
	tb := ctypes.NewTable()
	p, head := preSkeleton(tb, false, false)
	f := p.Funcs["f"]

	var st Stats
	opts := Options{Variant: Full, NoStaticElision: true}
	preInsertChecks(f, opts, &st)
	if st.PREInsertions != 1 {
		t.Fatalf("PREInsertions = %d, want 1", st.PREInsertions)
	}
	elidePathSensitive(f, opts, &st)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	if got := countOps(f, mir.OpTypeCheck); got != 1 {
		t.Fatalf("%d type checks survive, want 1 (the entry-edge copy)", got)
	}
	for _, ins := range f.Blocks[head].Instrs {
		if ins.Op == mir.OpTypeCheck {
			t.Error("header kept its type check despite the PRE copy")
		}
	}
	inEntry := false
	for _, ins := range f.Blocks[0].Instrs {
		if ins.Op == mir.OpTypeCheck {
			inEntry = true
		}
	}
	if !inEntry {
		t.Error("PRE copy not placed on the entry edge (single-successor predecessor)")
	}

	// Execution parity against elision-only, plus the dynamic win: the
	// PRE'd function checks once per call, the original once per
	// header execution.
	p2, _ := preSkeleton(ctypes.NewTable(), false, false)
	var st2 Stats
	elidePathSensitive(p2.Funcs["f"], opts, &st2)
	addPREMain(p)
	addPREMain(p2)
	vOn, dynOn, repOn := runWithStats(t, p)
	vOff, dynOff, repOff := runWithStats(t, p2)
	if vOn != vOff || repOn.Total() != 0 || repOff.Total() != 0 {
		t.Fatalf("PRE parity broken: on=(%d,%d) off=(%d,%d)",
			vOn, repOn.Total(), vOff, repOff.Total())
	}
	if dynOn.TypeChecks >= dynOff.TypeChecks {
		t.Errorf("dynamic type checks: PRE=%d plain=%d, want strictly fewer", dynOn.TypeChecks, dynOff.TypeChecks)
	}
}

// addPREMain appends a main that allocates, seeds and walks a 4-long
// array through f (three iterations).
func addPREMain(p *mir.Program) {
	b := mir.NewFunc(p, "main", ctypes.Long)
	arr := b.MallocN(ctypes.Long, 4)
	b.Store(ctypes.Long, arr, b.Const(ctypes.Long, 5))
	b.Ret(b.Call("f", arr, b.Const(ctypes.Long, 3)))
}

// TestPRERefusesHotEdges: the two shapes PRE must NOT touch — a plain
// diamond join (inserting on an arm runs the check as often as the
// join), and a loop header whose FAILING edge is the back edge (a
// barrier in the body kills the fact; inserting there would re-check
// every iteration AND lift a check past a deallocation point).
func TestPRERefusesHotEdges(t *testing.T) {
	t.Run("diamond-join", func(t *testing.T) {
		tb := ctypes.NewTable()
		p := mir.NewProgram(tb)
		longPtr := tb.PointerTo(ctypes.Long)
		b := mir.NewFunc(p, "f", ctypes.Long,
			mir.Param{Name: "p", Type: longPtr}, mir.Param{Name: "c", Type: ctypes.Long})
		pr := b.Param(0)
		left, right, join := b.Reserve("left"), b.Reserve("right"), b.Reserve("join")
		b.Br(b.Param(1), left, right)
		b.SetBlock(left)
		v1 := b.Load(ctypes.Long, pr)
		b.Jmp(join)
		b.SetBlock(right)
		v2 := b.Load(ctypes.Long, pr)
		b.Jmp(join)
		b.SetBlock(join)
		b.Ret(b.Bin(mir.BinAdd, ctypes.Long, v1, v2))
		f := p.Funcs["f"]
		check := mir.Instr{Op: mir.OpTypeCheck, Dst: -1, A: pr, B: -1, C: -1,
			Type: ctypes.Long, Site: "f:check"}
		// Fact on the left arm only; the join re-checks.
		f.Blocks[left].Instrs = append([]mir.Instr{check}, f.Blocks[left].Instrs...)
		f.Blocks[join].Instrs = append([]mir.Instr{check}, f.Blocks[join].Instrs...)

		var st Stats
		preInsertChecks(f, Options{Variant: Full, NoStaticElision: true}, &st)
		if st.PREInsertions != 0 {
			t.Errorf("PRE fired on a non-header join: %d insertions", st.PREInsertions)
		}
	})

	t.Run("failing-back-edge", func(t *testing.T) {
		p, _ := preSkeleton(ctypes.NewTable(), true, true)
		f := p.Funcs["f"]
		var st Stats
		preInsertChecks(f, Options{Variant: Full, NoStaticElision: true}, &st)
		if st.PREInsertions != 0 {
			t.Errorf("PRE inserted on a back edge: %d insertions", st.PREInsertions)
		}
	})
}

// buildTempRecompute builds the value-numbering shape: a helper that
// downcasts the same long* parameter into FOUR fresh temporaries — once
// up front, once on each diamond arm, once at the join. Every cast is
// checked dynamically (long* -> struct pair* is no upcast), but all four
// temporaries carry one value, so one check suffices.
func buildTempRecompute(tb *ctypes.Table) *mir.Program {
	rec := tb.MustParse("struct pair { long a; long b; }")
	recPtr := tb.PointerTo(rec)
	longPtr := tb.PointerTo(ctypes.Long)
	p := mir.NewProgram(tb)

	b := mir.NewFunc(p, "walk", ctypes.Long,
		mir.Param{Name: "p", Type: longPtr}, mir.Param{Name: "c", Type: ctypes.Long})
	pr := b.Param(0)
	t0 := b.Cast(recPtr, longPtr, pr)
	v0 := b.Load(ctypes.Long, b.Field(rec, t0, "a"))
	left, right, join := b.Reserve("left"), b.Reserve("right"), b.Reserve("join")
	b.Br(b.Param(1), left, right)
	b.SetBlock(left)
	t1 := b.Cast(recPtr, longPtr, pr) // same value, fresh register
	v1 := b.Load(ctypes.Long, b.Field(rec, t1, "a"))
	b.Jmp(join)
	b.SetBlock(right)
	t2 := b.Cast(recPtr, longPtr, pr)
	v2 := b.Load(ctypes.Long, b.Field(rec, t2, "b"))
	b.Jmp(join)
	b.SetBlock(join)
	t3 := b.Cast(recPtr, longPtr, pr)
	v3 := b.Load(ctypes.Long, b.Field(rec, t3, "a"))
	s := b.Bin(mir.BinAdd, ctypes.Long, v0, v1)
	s = b.Bin(mir.BinAdd, ctypes.Long, s, v2)
	s = b.Bin(mir.BinAdd, ctypes.Long, s, v3)
	b.Ret(s)

	b = mir.NewFunc(p, "main", ctypes.Long)
	pair := b.MallocN(rec, 1)
	b.Store(ctypes.Long, b.Field(rec, pair, "a"), b.Const(ctypes.Long, 3))
	b.Store(ctypes.Long, b.Field(rec, pair, "b"), b.Const(ctypes.Long, 4))
	lp := b.Cast(longPtr, recPtr, pair)
	b.Ret(b.Call("walk", lp, b.Const(ctypes.Long, 1)))
	return p
}

// TestValueNumberedElision: with motion on, the three recomputed
// downcasts elide against the first via value-numbered provenance — a
// bounds-register copy replaces each check — charged to
// ValueNumberedElisions only. Register-keyed elision (the no-motion
// ablation) keeps all four. Detection and results agree.
func TestValueNumberedElision(t *testing.T) {
	on, off, stOn, stOff := motionOnOff(buildTempRecompute, Options{Variant: Full, NoStaticElision: true})

	if stOn.ValueNumberedElisions != 3 {
		t.Errorf("ValueNumberedElisions = %d, want 3 (arm, arm, join)", stOn.ValueNumberedElisions)
	}
	if stOff.ValueNumberedElisions != 0 {
		t.Errorf("no-motion ablation claimed %d VN elisions", stOff.ValueNumberedElisions)
	}
	walkOn, walkOff := on.Funcs["walk"], off.Funcs["walk"]
	// On: only t0's cast check survives (the parameter itself is never
	// dereferenced, so it gets no entry check); the other three casts
	// become bounds moves from t0.
	if got := countOps(walkOn, mir.OpTypeCheck); got != 1 {
		t.Errorf("motion-on walk has %d type checks, want 1", got)
	}
	if got := countOps(walkOn, mir.OpBoundsMov); got != 3 {
		t.Errorf("motion-on walk has %d bounds moves, want 3", got)
	}
	if got := countOps(walkOff, mir.OpTypeCheck); got != 4 {
		t.Errorf("register-keyed walk has %d type checks, want 4 (no VN, all casts re-check)", got)
	}
	if got := countOps(walkOff, mir.OpBoundsMov); got != 0 {
		t.Errorf("register-keyed walk emitted %d bounds moves", got)
	}

	vOn, dynOn, repOn := runWithStats(t, on)
	vOff, dynOff, repOff := runWithStats(t, off)
	if repOn.Total() != 0 || repOff.Total() != 0 {
		t.Fatalf("legal downcasts reported: on=%d off=%d\non:\n%s\noff:\n%s",
			repOn.Total(), repOff.Total(), repOn.Log(), repOff.Log())
	}
	if vOn != vOff {
		t.Fatalf("results differ: on=%d off=%d", vOn, vOff)
	}
	if dynOn.TypeChecks >= dynOff.TypeChecks {
		t.Errorf("dynamic type checks: on=%d off=%d, want strictly fewer via VN", dynOn.TypeChecks, dynOff.TypeChecks)
	}
}

// TestMotionStatPartition: the motion counters and the elision counters
// never double-charge — a VN elision is NOT an ElidedRecheck and NOT an
// ElidedPathSensitive, and under every motion-off configuration all
// three motion counters stay zero.
func TestMotionStatPartition(t *testing.T) {
	_, stVN := Instrument(buildTempRecompute(ctypes.NewTable()), Options{Variant: Full, NoStaticElision: true})
	if stVN.ValueNumberedElisions != 3 || stVN.ElidedRechecks != 0 {
		t.Errorf("VN elisions leaked into ElidedRechecks: %+v", stVN)
	}
	if stVN.ElidedPathSensitive != 0 {
		t.Errorf("VN elisions charged to ElidedPathSensitive: %d", stVN.ElidedPathSensitive)
	}

	for name, mod := range map[string]func(o *Options){
		"nomotion": func(o *Options) { o.NoCheckMotion = true },
		"noopt":    func(o *Options) { o.NoOptimize = true },
	} {
		opts := Options{Variant: Full, NoStaticElision: true}
		mod(&opts)
		for _, build := range []func(tb *ctypes.Table) *mir.Program{
			buildTempRecompute,
			func(tb *ctypes.Table) *mir.Program { return buildInvariantHeaderLoop(tb, 8) },
		} {
			_, st := Instrument(build(ctypes.NewTable()), opts)
			if st.HoistedChecks != 0 || st.PREInsertions != 0 || st.ValueNumberedElisions != 0 {
				t.Errorf("%s: motion counters moved: %+v", name, st)
			}
		}
	}
}
