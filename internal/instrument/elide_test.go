package instrument

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/mir"
)

// countChecks totals the dynamic-check instructions left in a program.
func countChecks(p *mir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		n += countOps(f, mir.OpTypeCheck) + countOps(f, mir.OpBoundsCheck)
	}
	return n
}

// withNaiveChecks inserts a type check of the address before every load
// and store of p, in place, and returns p: the check-every-dereference
// strawman the schema's check minimisation is measured against. It
// gives the elision pass redundant type checks to remove.
func withNaiveChecks(p *mir.Program) *mir.Program {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			out := make([]mir.Instr, 0, 2*len(b.Instrs))
			for _, ins := range b.Instrs {
				if ins.Op == mir.OpLoad || ins.Op == mir.OpStore {
					out = append(out, mir.Instr{Op: mir.OpTypeCheck, Dst: -1,
						A: ins.A, B: -1, C: -1, Type: ins.Type, Site: ins.Site})
				}
				out = append(out, ins)
			}
			b.Instrs = out
		}
	}
	return p
}

// Counts recorded from the two elision passes the dataflow pass
// replaced: the dominator-tree walk (a block inherits only its immediate
// dominator's facts) and the block-local pass (no fact crosses a block
// boundary). They were measured at commit d72a461, the last revision
// that had both passes, with Options{Variant: Full, NoStaticElision:
// true} and the type checks withNaiveChecks inserts; the tests below pin
// the dataflow pass against them so the precision gap stays visible
// without the passes.
const (
	// buildBranchy: the entry check dominates both arms and the join.
	branchyDomTreeChecks     = 2 // checks left by the dominator walk
	branchyDomTreeCrossBlock = 6 // its cross-block elisions
	branchyPerBlockChecks    = 8 // checks left by the block-local pass
	branchyPerBlockRechecks  = 0 // its type-check reuses
	// buildDiamondJoin: both arms check, no dominating block does.
	diamondDomTreeChecks     = 6
	diamondDomTreeCrossBlock = 0
	// The irreducible loop of TestElisionCFGEdgeCases: the dominator
	// tree describes none of it, so the walk elided nothing.
	irreducibleDomTreeChecks = 8
	// buildDiamondChain(2000): the walk elided every post-entry check,
	// 3*depth rechecks and 3*depth subsumed bounds checks, all of them
	// cross-block — the same as the dataflow pass.
	deepDomTreeCrossBlock = 12000
)

// runUnoptimized instruments p with every optimisation off and runs it
// — the reference an elided program must agree with.
func runUnoptimized(t *testing.T, p *mir.Program, opts Options) (uint64, *core.Reporter) {
	t.Helper()
	opts.NoOptimize = true
	ip, _ := Instrument(p, opts)
	return runPass(t, ip)
}

// runPass executes a program under a fresh runtime and returns the
// result value and the reporter.
func runPass(t *testing.T, ip *mir.Program) (uint64, *core.Reporter) {
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
	return v, rt.Reporter
}

// buildDiamondJoin builds the diamond-join precision-gap program: the
// pointer is NOT dereferenced before the branch, both arms check it,
// and the join checks it again.
//
//	entry: arr = malloc long[4]; br c -> left, right
//	left:  load arr; jmp join
//	right: load arr; jmp join
//	join:  load arr; ret
//
// The join's checks are redundant — every incoming path just performed
// them — but no dominating block did, so a dominator-tree walk keeps
// them while the available-check dataflow elides them.
func buildDiamondJoin(tb *ctypes.Table) *mir.Program {
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Long)
	arr := b.MallocN(ctypes.Long, 4)
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
	s := b.Bin(mir.BinAdd, ctypes.Long, v1, v2)
	s = b.Bin(mir.BinAdd, ctypes.Long, s, v3)
	b.Ret(s)
	return p
}

// TestPathSensitiveClosesDiamondJoinGap: on a diamond whose arms both
// re-check, the dataflow pass elides the join's type and bounds checks
// (available on every incoming path), which the dominator-tree walk
// could not (no dominating block holds the fact). Behaviour is
// identical to the unoptimised program.
func TestPathSensitiveClosesDiamondJoinGap(t *testing.T) {
	opts := Options{Variant: Full, NoStaticElision: true}
	p := withNaiveChecks(buildDiamondJoin(ctypes.NewTable()))
	ip, st := Instrument(p, opts)

	if got := countChecks(ip); got >= diamondDomTreeChecks {
		t.Fatalf("dataflow left %d checks, the dominator walk left %d: want strictly fewer",
			got, diamondDomTreeChecks)
	}
	// The join's naive type check and its bounds check are exactly the
	// path-sensitive wins; the dominator walk found fewer.
	if st.ElidedPathSensitive != 2 || st.ElidedPathSensitive <= diamondDomTreeCrossBlock {
		t.Errorf("ElidedPathSensitive = %d, want 2 (the dominator walk: %d)",
			st.ElidedPathSensitive, diamondDomTreeCrossBlock)
	}

	v, rep := runPass(t, ip)
	if rep.Total() != 0 {
		t.Fatalf("clean program reported errors:\n%s", rep.Log())
	}
	if want, _ := runUnoptimized(t, p, opts); v != want {
		t.Fatalf("result %d, want %d", v, want)
	}
}

// TestElisionAttributionPartition pins the stat-partition contract:
// ElidedPathSensitive attributes a subset of the per-kind elisions, so
// it never exceeds their total, with and without the static safety pass
// in front.
func TestElisionAttributionPartition(t *testing.T) {
	builders := map[string]func(tb *ctypes.Table) *mir.Program{
		"branchy":     buildBranchy,
		"diamondjoin": buildDiamondJoin,
		"fig4":        buildFig4,
	}
	for bname, build := range builders {
		for _, naive := range []bool{false, true} {
			for _, noStatic := range []bool{false, true} {
				p := build(ctypes.NewTable())
				if naive {
					withNaiveChecks(p)
				}
				_, st := Instrument(p, Options{Variant: Full, NoStaticElision: noStatic})
				total := st.ElidedSubsume + st.ElidedNarrows + st.ElidedRechecks
				if st.ElidedPathSensitive > total {
					t.Errorf("%s naive=%v nostatic=%v: path %d exceeds total elisions %d (double count)",
						bname, naive, noStatic, st.ElidedPathSensitive, total)
				}
			}
		}
	}
}

// TestElisionCFGEdgeCases is the table-driven edge-case suite: shapes
// where the CFG itself (not the straight-line facts) decides whether a
// check may go — irreducible loops, unreachable blocks, and diamonds
// whose arms each contain exactly one barrier.
func TestElisionCFGEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		build func(tb *ctypes.Table) *mir.Program
		// assertions on the instrumentation stats
		assert func(t *testing.T, ip *mir.Program, st Stats)
		// expected issue kinds when executed (identical without elision)
		wantKinds map[core.ErrorKind]int
	}{
		{
			// entry: malloc; load arr; br -> {a, b}; a: load; jmp b;
			// b: load; br -> {a, exit}; exit: load; ret.
			// The {a, b} loop has two entries — irreducible, so the
			// dominator tree describes none of it (the dominator walk
			// elided nothing), but every path into a, b and exit has
			// checked arr with no kills: the dataflow elides all six
			// checks.
			name: "irreducible-loop",
			build: func(tb *ctypes.Table) *mir.Program {
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
			},
			assert: func(t *testing.T, ip *mir.Program, st Stats) {
				if st.ElidedRechecks != 3 || st.ElidedSubsume != 3 || st.ElidedPathSensitive != 6 {
					t.Errorf("irreducible loop: %+v, want 3 rechecks + 3 subsumed, all path-sensitive", st)
				}
				if got := countChecks(ip); got >= irreducibleDomTreeChecks {
					t.Errorf("%d checks left, the dominator walk left %d: want strictly fewer",
						got, irreducibleDomTreeChecks)
				}
			},
			wantKinds: map[core.ErrorKind]int{},
		},
		{
			// A block no path reaches, holding a redundant re-check:
			// no facts may be inherited into it (there is no incoming
			// path), but elision still applies inside it — and the
			// cross-block counter does not move. The dominator walk
			// gave the same counts.
			name: "unreachable-block",
			build: func(tb *ctypes.Table) *mir.Program {
				p := mir.NewProgram(tb)
				b := mir.NewFunc(p, "main", ctypes.Long)
				arr := b.MallocN(ctypes.Long, 4)
				v0 := b.Load(ctypes.Long, arr)
				dead := b.Reserve("dead")
				b.Ret(v0)
				b.SetBlock(dead)
				d1 := b.Load(ctypes.Long, arr)
				d2 := b.Load(ctypes.Long, arr)
				b.Ret(b.Bin(mir.BinAdd, ctypes.Long, d1, d2))
				return p
			},
			assert: func(t *testing.T, ip *mir.Program, st Stats) {
				// The dead block's first check is kept (no path in,
				// no facts in); its second is a block-local win.
				if st.ElidedRechecks != 1 || st.ElidedPathSensitive != 0 {
					t.Errorf("unreachable block: %+v, want 1 local recheck, no cross-block attribution", st)
				}
			},
			wantKinds: map[core.ErrorKind]int{},
		},
		{
			// Diamond whose arms contain exactly one barrier each — a
			// free on one, a may-free call on the other. The lastType
			// fact dies at the join on BOTH paths, so the join's type
			// check must survive: it is the check that reports the
			// use-after-free when the freeing arm ran. And because that
			// kept type check re-establishes the bounds register, it
			// conservatively invalidates the inherited bounds fact too
			// — nothing at the join may be elided (nor was it under the
			// dominator walk).
			name: "diamond-barrier-each-arm",
			build: func(tb *ctypes.Table) *mir.Program {
				p := mir.NewProgram(tb)
				nop := mir.NewFunc(p, "nop", nil)
				nop.RetVoid()
				b := mir.NewFunc(p, "main", ctypes.Long)
				arr := b.MallocN(ctypes.Long, 4)
				v0 := b.Load(ctypes.Long, arr)
				fr, cl, join := b.Reserve("fr"), b.Reserve("cl"), b.Reserve("join")
				c := b.Const(ctypes.Int, 1)
				b.Br(c, fr, cl)
				b.SetBlock(fr)
				b.Free(arr)
				b.Jmp(join)
				b.SetBlock(cl)
				b.CallV("nop")
				b.Jmp(join)
				b.SetBlock(join)
				v1 := b.Load(ctypes.Long, arr) // UAF when the fr arm ran
				b.Ret(b.Bin(mir.BinAdd, ctypes.Long, v0, v1))
				return p
			},
			assert: func(t *testing.T, ip *mir.Program, st Stats) {
				if st.ElidedRechecks != 0 || st.ElidedSubsume != 0 || st.ElidedPathSensitive != 0 {
					t.Errorf("fact crossed barrier arms: %+v", st)
				}
			},
			wantKinds: map[core.ErrorKind]int{core.UseAfterFree: 1},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Variant: Full, NoStaticElision: true}
			p := withNaiveChecks(tc.build(ctypes.NewTable()))
			ip, st := Instrument(p, opts)
			tc.assert(t, ip, st)
			v, rep := runPass(t, ip)
			wantVal, wantRep := runUnoptimized(t, p, opts)
			for name, r := range map[string]*core.Reporter{"elided": rep, "unoptimised": wantRep} {
				kinds := r.IssuesByKind()
				if len(kinds) != len(tc.wantKinds) {
					t.Fatalf("%s: issue kinds %v, want %v\n%s", name, kinds, tc.wantKinds, r.Log())
				}
				for k, n := range tc.wantKinds {
					if kinds[k] != n {
						t.Fatalf("%s: %v reported %d times, want %d", name, k, kinds[k], n)
					}
				}
			}
			if v != wantVal {
				t.Fatalf("result %d, want %d (elision changed semantics)", v, wantVal)
			}
		})
	}
}

// buildDiamondChain builds main with `depth` diamonds in sequence, each
// re-dereferencing the same pointer on both arms and at the join. The
// dominator tree of the result is `depth` levels deep — the shape that
// made the recursive walk a stack-depth hazard — and every check after
// the entry's is redundant.
func buildDiamondChain(tb *ctypes.Table, depth int) *mir.Program {
	p := mir.NewProgram(tb)
	b := mir.NewFunc(p, "main", ctypes.Long)
	arr := b.MallocN(ctypes.Long, 4)
	s := b.Load(ctypes.Long, arr)
	c := b.Const(ctypes.Int, 1)
	for i := 0; i < depth; i++ {
		left, right, join := b.Reserve("l"), b.Reserve("r"), b.Reserve("j")
		b.Br(c, left, right)
		b.SetBlock(left)
		vl := b.Load(ctypes.Long, arr)
		b.Jmp(join)
		b.SetBlock(right)
		vr := b.Load(ctypes.Long, arr)
		b.Jmp(join)
		b.SetBlock(join)
		vj := b.Load(ctypes.Long, arr)
		s = b.Bin(mir.BinAdd, ctypes.Long, s, vl)
		s = b.Bin(mir.BinAdd, ctypes.Long, s, vr)
		s = b.Bin(mir.BinAdd, ctypes.Long, s, vj)
	}
	b.Ret(s)
	return p
}

// TestElisionDeepCFG: the dataflow pass must survive a pathologically
// deep dominator tree and still elide every post-entry check, as the
// dominator walk did on this reducible shape.
func TestElisionDeepCFG(t *testing.T) {
	const depth = 2000
	opts := Options{Variant: Full, NoStaticElision: true}
	ip, st := Instrument(withNaiveChecks(buildDiamondChain(ctypes.NewTable(), depth)), opts)
	// Entry's type+bounds check survive; all 3*depth re-derefs lose
	// both their checks.
	if got := countChecks(ip); got != 2 {
		t.Fatalf("%d checks survive a %d-deep diamond chain, want 2", got, depth)
	}
	wantElided := 3 * depth
	if st.ElidedRechecks != wantElided || st.ElidedSubsume != wantElided {
		t.Fatalf("elided %d rechecks / %d subsumed, want %d each",
			st.ElidedRechecks, st.ElidedSubsume, wantElided)
	}
	if st.ElidedPathSensitive != deepDomTreeCrossBlock {
		t.Fatalf("%d cross-block attributions, want %d", st.ElidedPathSensitive, deepDomTreeCrossBlock)
	}
}

// Instrumentation-time benchmark over a deep diamond chain, the shape
// with the deepest dominator tree per block.
func benchmarkElide(b *testing.B, depth int, opts Options) {
	p := withNaiveChecks(buildDiamondChain(ctypes.NewTable(), depth))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip, st := Instrument(p, opts)
		if st.ElidedRechecks == 0 {
			b.Fatal("elision inert")
		}
		_ = ip
	}
}

func BenchmarkElidePathSensitiveDeep(b *testing.B) {
	for _, depth := range []int{50, 400} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchmarkElide(b, depth, Options{Variant: Full, NoStaticElision: true})
		})
	}
}
