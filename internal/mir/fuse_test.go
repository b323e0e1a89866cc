package mir

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctypes"
)

// fusedRun is everything a Run can show: its value, error, step count,
// report log and runtime counters.
type fusedRun struct {
	v, steps uint64
	err      string
	log      string
	stats    core.StatsSnapshot
}

// pairInterp builds f over a fresh EffectiveSan runtime, fused or not,
// with step limit max (0: 2^20).
func pairInterp(t *testing.T, p *Program, fuse bool, max uint64) (*Interp, *core.Runtime) {
	t.Helper()
	rt := core.NewRuntime(core.Options{Types: p.Types})
	if max == 0 {
		max = 1 << 20 // a broken fusion fails fast rather than at the default limit
	}
	in, err := New(p, Options{Env: NewEffEnv(rt), MaxSteps: max})
	if err != nil {
		t.Fatal(err)
	}
	if !fuse {
		Unfuse(in)
	}
	return in, rt
}

// runPair runs f(obj, args...) fused and unfused, each over its own
// runtime, where obj is a fresh 8-long heap array (the same address in
// both, as the runtimes allocate alike) holding 10, 11, ..., 17 and
// followed by the word 99, or the null pointer if null. It returns both runs and the fused ops f's
// decoded code holds.
func runPair(t *testing.T, p *Program, null bool, max uint64, args ...uint64) (fused, unfused fusedRun, ops []xop) {
	t.Helper()
	for _, fuse := range []bool{true, false} {
		in, rt := pairInterp(t, p, fuse, max)
		obj := uint64(0)
		if !null {
			obj = in.env.Malloc(ctypes.Long, 8*8, core.HeapAlloc, "obj")
			for i := uint64(0); i < 8; i++ {
				in.mem.Store(obj+8*i, 8, 10+i)
			}
			in.mem.Store(obj+64, 8, 99)
		}
		v, steps, err := in.RunSteps("f", append([]uint64{obj}, args...)...)
		r := fusedRun{v: v, steps: steps, log: rt.Reporter.Log(), stats: rt.Stats()}
		if err != nil {
			r.err = err.Error()
		}
		if fuse {
			fused = r
			for _, d := range in.funcs["f"].code {
				if d.op >= xCheckLoadU {
					ops = append(ops, d.op)
				}
			}
		} else {
			unfused = r
		}
	}
	return fused, unfused, ops
}

// pairProg returns a program whose f(long *p, long i, long j) runs body
// and returns its result.
func pairProg(body func(b *FuncBuilder) int) *Program {
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	b := NewFunc(p, "f", ctypes.Long,
		Param{"p", tb.PointerTo(ctypes.Long)}, Param{"i", ctypes.Long}, Param{"j", ctypes.Long})
	b.Ret(body(b))
	return p
}

func boundsGet(b *FuncBuilder, a int) {
	b.emit(Instr{Op: OpBoundsGet, Dst: -1, A: a, B: -1, C: -1})
}

func boundsCheck(b *FuncBuilder, a int, t *ctypes.Type) {
	b.emit(Instr{Op: OpBoundsCheck, Dst: -1, A: a, B: -1, C: -1, Aux: t.Size(), Type: t})
}

func boundsNarrow(b *FuncBuilder, a int, size int64) {
	b.emit(Instr{Op: OpBoundsNarrow, Dst: -1, A: a, B: -1, C: -1, Aux: size})
}

// checkedLoad emits p[i] as instrumentation leaves it: index, check,
// load — the check fusing with the load, not the index.
func checkedLoad(b *FuncBuilder, t *ctypes.Type, p, i int) int {
	q := b.Index(t, p, i)
	boundsCheck(b, q, t)
	return b.Load(t, q)
}

// loopProg returns a program whose f counts r from i up to j (signed,
// by steps of 2, the body adding p[0] + 3), then back down to i, so the
// loop exercises the compare-branch, const-add, const-sub, add-mov and
// mov-jmp fusions, and an add-mov that yields to a hotter mov-jmp.
func loopProg() *Program {
	return pairProg(func(b *FuncBuilder) int {
		long := ctypes.Long
		r, acc, two := b.Mov(1), b.Const(long, 0), b.Const(long, 2)
		head, body, down, dbody, exit := b.Reserve("head"), b.Reserve("body"), b.Reserve("down"), b.Reserve("dbody"), b.Reserve("exit")
		b.Jmp(head)
		b.SetBlock(head)
		b.Br(b.Cmp(CmpLt, long, r, 2), body, down)
		b.SetBlock(body)
		b.MovTo(r, b.Bin(BinAdd, long, r, two))
		b.BinTo(acc, BinAdd, long, acc, b.Load(long, 0))
		b.MovTo(acc, b.Bin(BinAdd, long, b.Const(long, 3), acc))
		b.Jmp(head)
		b.SetBlock(down)
		b.Br(b.Cmp(CmpGt, long, r, 1), dbody, exit)
		b.SetBlock(dbody)
		b.BinTo(r, BinSub, long, r, b.Const(long, 1))
		b.MovTo(acc, b.Bin(BinAdd, long, acc, r))
		b.Jmp(down)
		b.SetBlock(exit)
		return b.Bin(BinXor, long, acc, r)
	})
}

// checkedAccessPair emits p[i] as checkedLoad does, but with a constant
// between the index and the check, so the check fuses with the load and
// the index stays alone. The constant, 7, is added to the result.
func checkedAccessPair(b *FuncBuilder, t *ctypes.Type, p, i int) int {
	q := b.Index(t, p, i)
	k := b.Const(ctypes.Long, 7)
	boundsCheck(b, q, t)
	return b.Bin(BinAdd, ctypes.Long, b.Load(t, q), k)
}

// TestFusedOpsMatchUnfused runs a program per fused pair and chain in
// both decoded forms and requires the same value, error, step count,
// report log and runtime counters, over in-bounds and out-of-bounds
// indices. Each program's second op reads the first op's destination,
// and some write a register the first op reads.
func TestFusedOpsMatchUnfused(t *testing.T) {
	long, int_ := ctypes.Long, ctypes.Int
	cases := []struct {
		name string
		prog *Program
		want []xop
	}{
		{"check-load", pairProg(func(b *FuncBuilder) int {
			boundsGet(b, 0)
			v := checkedLoad(b, long, 0, 1)
			return b.Bin(BinXor, long, v, checkedAccessPair(b, long, 0, 2))
		}), []xop{xIndexCheckLoadU, xCheckLoadU, xCheckLoadU}},
		{"check-load-signed", pairProg(func(b *FuncBuilder) int {
			boundsGet(b, 0)
			q := b.Cast(b.P.Types.PointerTo(int_), b.P.Types.PointerTo(long), 0)
			v := checkedLoad(b, int_, q, 1)
			return b.Bin(BinXor, long, v, checkedAccessPair(b, int_, q, 2))
		}), []xop{xIndexCheckLoadS, xCheckLoadS, xCheckLoadS}},
		{"check-store", pairProg(func(b *FuncBuilder) int {
			boundsGet(b, 0)
			q := b.Index(long, 0, 1)
			boundsCheck(b, q, long)
			b.Store(long, q, 2)
			// The store's value is the index it stores through.
			r := b.Index(long, 0, 2)
			k := b.Const(long, 3)
			boundsCheck(b, r, long)
			b.Store(long, r, r)
			return b.Bin(BinAdd, long, b.Load(long, 0), k)
		}), []xop{xIndexCheckStore, xCheckStore, xCheckStore}},
		{"index-check", pairProg(func(b *FuncBuilder) int {
			boundsGet(b, 0)
			q := b.Index(long, 0, 1)
			boundsCheck(b, q, long)
			// The index overwrites its own base, which the check then
			// reads back through the index's bounds.
			b.emit(Instr{Op: OpIndex, Dst: 0, A: 0, B: 2, C: -1, Type: long})
			boundsCheck(b, 0, long)
			return b.Bin(BinAdd, long, q, 0)
		}), []xop{xIndexCheck, xIndexCheck}},
		{"field-narrow", pairProg(func(b *FuncBuilder) int {
			boundsGet(b, 0)
			f := b.FieldAt(long, 0, 16)
			boundsNarrow(b, f, 16)
			return checkedLoad(b, long, f, 1)
		}), []xop{xFieldNarrow, xIndexCheckLoadU, xCheckLoadU}},
		{"index-field-narrow", pairProg(func(b *FuncBuilder) int {
			boundsGet(b, 0)
			// p[i].f, the field at 8 bytes into a 16-byte element: the
			// narrow gives the field's bounds, its check then passes or
			// fails with the index.
			q := b.Index(long, 0, 1)
			f := b.FieldAt(long, q, 8)
			boundsNarrow(b, f, 8)
			boundsCheck(b, f, long)
			v := b.Load(long, f)
			// The field overwrites the index's base.
			r := b.Index(long, 0, 2)
			b.emit(Instr{Op: OpField, Dst: 0, A: r, B: -1, C: -1, Aux: 0, Type: long})
			boundsNarrow(b, 0, 8)
			return b.Bin(BinAdd, long, v, 0)
		}), []xop{xIndexFieldNarrow, xFieldNarrow, xCheckLoadU, xIndexFieldNarrow, xFieldNarrow}},
		{"const-add-sub", pairProg(func(b *FuncBuilder) int {
			k := b.Const(long, 5)
			s := b.Bin(BinAdd, long, k, 1)
			// The const overwrites the add's result, the sub reads it.
			b.emit(Instr{Op: OpConst, Dst: s, A: -1, B: -1, C: -1, Imm: -3, Type: long})
			b.BinTo(s, BinSub, long, s, 2)
			return b.Bin(BinMul, long, s, k)
		}), []xop{xConstAdd, xConstSub}},
		{"loop", loopProg(), []xop{xLtSBr, xAddMov, xConstAdd, xMovJmp, xGtSBr, xConstSub, xMovJmp}},
	}
	seen := map[xop]bool{}
	for _, c := range cases {
		for _, args := range [][2]uint64{{0, 0}, {3, 7}, {7, 1}, {8, 2}, {9, ^uint64(0)}, {1 << 40, 5}} {
			fused, unfused, ops := runPair(t, c.prog, false, 0, args[0], args[1])
			if fused != unfused {
				t.Errorf("%s%v: fused %+v, unfused %+v", c.name, args, fused, unfused)
			}
			if !slices.Equal(ops, c.want) {
				t.Fatalf("%s: fused ops %v, want %v", c.name, ops, c.want)
			}
			for _, op := range ops {
				seen[op] = true
			}
		}
	}
	for op := xCheckLoadU; op <= xIndexFieldNarrow; op++ {
		if !seen[op] {
			t.Errorf("fused op %d not covered", op)
		}
	}
}

// TestFusedCheckFailureLogs runs an out-of-bounds p[i] whose check and
// load fuse: the check reports once, at the check's own site, and the
// load still runs (logging semantics), in both decoded forms.
func TestFusedCheckFailureLogs(t *testing.T) {
	p := pairProg(func(b *FuncBuilder) int {
		boundsGet(b, 0)
		return checkedLoad(b, ctypes.Long, 0, 1)
	})
	fused, unfused, _ := runPair(t, p, false, 0, 8, 0)
	if fused != unfused {
		t.Fatalf("fused %+v, unfused %+v", fused, unfused)
	}
	if fused.err != "" {
		t.Fatal(fused.err)
	}
	if n := strings.Count(fused.log, "\n"); n != 1 || !strings.Contains(fused.log, "f:entry:2") {
		t.Fatalf("want one report at the check's site f:entry:2, got %d:\n%s", n, fused.log)
	}
	// The load ran: it read the word just past the array.
	if fused.v != 99 || fused.stats.BoundsChecks != 1 {
		t.Fatalf("value %d, %d bounds checks; want 99, 1", fused.v, fused.stats.BoundsChecks)
	}
}

// TestFusedNullTrap dereferences a null pointer through a passing check
// fused with its load or store, as a pair and as the tail of an index
// chain: the trap names the access's site, not the check's or the
// index's.
func TestFusedNullTrap(t *testing.T) {
	for _, store := range []bool{false, true} {
		for _, chain := range []bool{false, true} {
			p := pairProg(func(b *FuncBuilder) int {
				q := b.Index(ctypes.Long, 0, 1)
				if !chain {
					b.Const(ctypes.Long, 0)
				}
				boundsCheck(b, q, ctypes.Long)
				if store {
					b.Store(ctypes.Long, q, 2)
					return 1
				}
				return b.Load(ctypes.Long, q)
			})
			fused, unfused, ops := runPair(t, p, true, 0, 1, 0)
			if fused != unfused {
				t.Fatalf("store=%v chain=%v: fused %+v, unfused %+v", store, chain, fused, unfused)
			}
			want, site := []xop{xCheckLoadU}, "f:entry:3"
			if store {
				want = []xop{xCheckStore}
			}
			if chain {
				want, site = append([]xop{chainOp(want[0])}, want...), "f:entry:2"
			}
			if !slices.Equal(ops, want) {
				t.Fatalf("store=%v chain=%v: fused ops %v, want %v", store, chain, ops, want)
			}
			if want := site + ": null-page access"; !strings.Contains(fused.err, want) {
				t.Fatalf("store=%v chain=%v: error %q, want %q", store, chain, fused.err, want)
			}
		}
	}
}

// TestFusedMaxSteps runs the fused loop under every step limit up to its
// full length: both forms stop with the same error after the same count.
func TestFusedMaxSteps(t *testing.T) {
	p := loopProg()
	full, _, _ := runPair(t, p, false, 0, 0, 9)
	if full.err != "" || full.steps < 20 {
		t.Fatalf("unlimited run: %+v", full)
	}
	for max := uint64(1); max <= full.steps; max++ {
		fused, unfused, _ := runPair(t, p, false, max, 0, 9)
		if fused != unfused {
			t.Fatalf("MaxSteps %d: fused %+v, unfused %+v", max, fused, unfused)
		}
		if tripped := fused.err != ""; tripped != (max < full.steps) {
			t.Fatalf("MaxSteps %d of %d: error %q", max, full.steps, fused.err)
		}
	}
}

// TestHooksDisableFusion pins the rule that a hooked interpreter runs
// every op on its own, so each hook sees every op.
func TestHooksDisableFusion(t *testing.T) {
	p := loopProg()
	in, err := New(p, Options{Env: NewPlainEnv(nil), Hooks: nopHooks{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range in.funcs["f"].code {
		if d.op >= xCheckLoadU {
			t.Fatalf("hooked interpreter fused op %d", d.op)
		}
	}
}

type nopHooks struct{}

func (nopHooks) Access(addr, size uint64, write bool, t *ctypes.Type, site string) {}
func (nopHooks) PtrLoad(addr, v uint64, site string)                               {}
func (nopHooks) PtrStore(addr, v uint64, site string)                              {}
func (nopHooks) Cast(p uint64, from, to *ctypes.Type, site string)                 {}
func (nopHooks) Derive(p, base uint64, field bool, lo, hi uint64, site string)     {}
