package mir

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ctypes"
)

// availProblem is a toy available-expressions instance for exercising
// the solver: the fact set is the set of block indices guaranteed to
// have executed on EVERY path to the current point; each block's
// transfer adds its own index; the meet is set intersection.
func availProblem() ForwardProblem[map[int]bool] {
	return ForwardProblem[map[int]bool]{
		Entry: func() map[int]bool { return map[int]bool{} },
		Transfer: func(b int, in map[int]bool) map[int]bool {
			out := make(map[int]bool, len(in)+1)
			for k := range in {
				out[k] = true
			}
			out[b] = true
			return out
		},
		Meet: func(a, b map[int]bool) map[int]bool {
			out := map[int]bool{}
			for k := range a {
				if b[k] {
					out[k] = true
				}
			}
			return out
		},
		Equal: func(a, b map[int]bool) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
	}
}

func wantSet(t *testing.T, name string, got map[int]bool, want ...int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestSolveForwardDiamond: the join's in-state is the intersection of
// the arm out-states — only the entry is on every path.
func TestSolveForwardDiamond(t *testing.T) {
	f := buildDiamond(t)
	in, solved := SolveForward(NewCFG(f), availProblem())
	for b := 0; b < 4; b++ {
		if !solved[b] {
			t.Fatalf("block %d unsolved", b)
		}
	}
	wantSet(t, "in[entry]", in[0])
	wantSet(t, "in[left]", in[1], 0)
	wantSet(t, "in[right]", in[2], 0)
	wantSet(t, "in[join]", in[3], 0) // arms intersect away: {0,1} ∩ {0,2}
}

// TestSolveForwardLoop: the back edge refines the header's in-state to
// the greatest fixpoint — facts from the body survive only if on every
// path, which the entry edge denies.
func TestSolveForwardLoop(t *testing.T) {
	f := buildLoop(t) // entry(0) -> head(1); head -> {body(2), exit(3)}; body -> head
	in, solved := SolveForward(NewCFG(f), availProblem())
	for b := 0; b < 4; b++ {
		if !solved[b] {
			t.Fatalf("block %d unsolved", b)
		}
	}
	wantSet(t, "in[head]", in[1], 0) // {0} ∩ {0,1,2} from the back edge
	wantSet(t, "in[body]", in[2], 0, 1)
	wantSet(t, "in[exit]", in[3], 0, 1)
}

// TestSolveForwardUnreachable: blocks unreachable from the entry are
// reported unsolved, not given a fabricated state.
func TestSolveForwardUnreachable(t *testing.T) {
	f, dead := buildUnreachable(t)
	in, solved := SolveForward(NewCFG(f), availProblem())
	if !solved[0] || solved[dead] {
		t.Fatalf("solved = %v, want entry only", solved)
	}
	if in[dead] != nil {
		t.Fatalf("unreachable block got state %v", in[dead])
	}
}

// buildIrreducible builds a CFG with no single loop header:
//
//	entry(0) -> {a(1), b(2)}; a -> b; b -> {a, exit(3)}
//
// a and b form a loop enterable at either node — irreducible, so no
// dominator-based interval analysis applies, but the worklist solver
// must still converge to the meet-over-paths solution.
func buildIrreducible(t *testing.T) *Func {
	t.Helper()
	tb := ctypes.NewTable()
	p := NewProgram(tb)
	fb := NewFunc(p, "irr", ctypes.Int, Param{Name: "c", Type: ctypes.Int})
	a, b, exit := fb.Reserve("a"), fb.Reserve("b"), fb.Reserve("exit")
	fb.Br(fb.Param(0), a, b)
	fb.SetBlock(a)
	fb.Jmp(b)
	fb.SetBlock(b)
	fb.Br(fb.Param(0), a, exit)
	fb.SetBlock(exit)
	fb.Ret(fb.Const(ctypes.Int, 0))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return fb.F
}

// TestSolveForwardIrreducible: convergence and precision on a CFG the
// dominator tree cannot describe — both loop entries see only the
// entry block as guaranteed.
func TestSolveForwardIrreducible(t *testing.T) {
	f := buildIrreducible(t)
	in, solved := SolveForward(NewCFG(f), availProblem())
	for b := 0; b < 4; b++ {
		if !solved[b] {
			t.Fatalf("block %d unsolved", b)
		}
	}
	// a's preds: entry {0} and b {0,2,...} — intersection {0}.
	wantSet(t, "in[a]", in[1], 0)
	// b's preds: entry {0} and a {0,1} — intersection {0}.
	wantSet(t, "in[b]", in[2], 0)
	wantSet(t, "in[exit]", in[3], 0, 2)
}

// ---------------------------------------------------------------------
// Infinite-height lattices: widening and the non-monotone backstop.

// TestWidenItvTable pins the interval widening operator the abstract
// interpretation (absint.go) hands to SolveForward: stable ends are
// kept exactly, moving ends jump straight to ±∞ — so every widening
// chain stabilises in at most two steps per end, which is what makes
// the solver terminate over the infinite-height interval lattice.
func TestWidenItvTable(t *testing.T) {
	cases := []struct {
		name       string
		prev, next itv
		want       itv
	}{
		{"stable", itv{0, 5}, itv{0, 5}, itv{0, 5}},
		{"shrinking keeps prev", itv{0, 5}, itv{1, 4}, itv{0, 5}},
		{"hi moving jumps to +inf", itv{0, 0}, itv{0, 1}, itv{0, posInf}},
		{"lo moving jumps to -inf", itv{0, 0}, itv{-1, 0}, itv{negInf, 0}},
		{"both moving jumps to top", itv{0, 0}, itv{-1, 1}, topItv()},
		{"inf ends already stable", itv{0, posInf}, itv{0, posInf}, itv{0, posInf}},
		{"top absorbs everything", topItv(), itv{-99, 99}, topItv()},
	}
	for _, c := range cases {
		if got := widenItv(c.prev, c.next); got != c.want {
			t.Errorf("%s: widen(%v, %v) = %v, want %v", c.name, c.prev, c.next, got, c.want)
		}
		// The operator contract: an upper bound of both arguments...
		w := widenItv(c.prev, c.next)
		if joinItv(joinItv(c.prev, c.next), w) != w {
			t.Errorf("%s: widen(%v, %v) = %v is not an upper bound", c.name, c.prev, c.next, w)
		}
		// ...that the next widening step leaves fixed for any larger
		// state: moved ends sit at ±∞ (nothing is beyond them), kept
		// ends were stable by definition. Two steps is the ceiling.
		grown := joinItv(w, itv{w.lo, satAdd(w.hi, 1)})
		grown = joinItv(grown, itv{satAdd(w.lo, -1), w.hi})
		w2 := widenItv(w, grown)
		if w3 := widenItv(w2, joinItv(w2, grown)); w3 != w2 {
			t.Errorf("%s: widening chain did not stabilise: %v -> %v -> %v", c.name, w, w2, w3)
		}
	}
}

// counterProblem is the canonical infinite-ascending-chain instance: an
// interval abstract counter over buildLoop's CFG (entry(0) -> head(1);
// head -> {body(2), exit(3)}; body -> head) where the body increments
// the interval — without widening the head's in-state grows by one
// forever; with widenItv it must reach [0, +inf] and stop.
func counterProblem(widen bool) ForwardProblem[itv] {
	p := ForwardProblem[itv]{
		Entry: func() itv { return itv{0, 0} },
		Transfer: func(b int, in itv) itv {
			if b == 2 { // body: i = i + 1
				return addItv(in, itv{1, 1})
			}
			return in
		},
		Meet:  joinItv,
		Equal: func(a, b itv) bool { return a == b },
		// Fail fast instead of looping for 10000 visits when the widening
		// under test is broken (or absent, in the panic test).
		MaxVisits: 64,
	}
	if widen {
		p.Widen = widenItv
	}
	return p
}

// TestSolveForwardWideningTerminates proves termination on the
// infinite-height interval lattice: the widened counter loop converges
// well inside the tight MaxVisits budget, to the sound head state
// [0, +inf] (the counter never goes below its entry value, and the
// widening gave up on the moving upper end).
func TestSolveForwardWideningTerminates(t *testing.T) {
	f := buildLoop(t)
	in, solved := SolveForward(NewCFG(f), counterProblem(true))
	for b := 0; b < 4; b++ {
		if !solved[b] {
			t.Fatalf("block %d unsolved", b)
		}
	}
	if want := (itv{0, posInf}); in[1] != want {
		t.Errorf("in[head] = %v, want %v", in[1], want)
	}
	if in[2].lo != 0 || in[3].lo != 0 {
		t.Errorf("counter lower bound lost: body %v, exit %v", in[2], in[3])
	}
}

// TestSolveForwardUnwidenedPanics is the regression companion: the SAME
// problem without its Widen operator must be caught by the MaxVisits
// backstop — a loud panic, not an infinite loop (the ascending chain
// 0..1, 0..2, ... never stabilises on its own).
func TestSolveForwardUnwidenedPanics(t *testing.T) {
	f := buildLoop(t)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unwidened infinite-height problem did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "MaxVisits") {
			t.Fatalf("panic = %v, want the MaxVisits diagnostic", r)
		}
	}()
	SolveForward(NewCFG(f), counterProblem(false))
}

// TestSolveForwardNonMonotonePanics: a transfer function that
// oscillates between two states (non-monotone — a larger input maps to
// an incomparable output) can never converge; the solver must detect
// the livelock via MaxVisits and panic rather than spin.
func TestSolveForwardNonMonotonePanics(t *testing.T) {
	f := buildLoop(t)
	flip := 0
	p := ForwardProblem[itv]{
		Entry: func() itv { return itv{0, 0} },
		Transfer: func(b int, in itv) itv {
			if b == 2 {
				flip++
				if flip%2 == 0 {
					return itv{1, 1}
				}
				return itv{2, 2}
			}
			return in
		},
		Meet:      joinItv,
		Equal:     func(a, b itv) bool { return a == b },
		MaxVisits: 64,
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("non-monotone transfer did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "non-monotone") {
			t.Fatalf("panic = %v, want the non-monotone diagnostic", r)
		}
	}()
	SolveForward(NewCFG(f), p)
}

// TestSolveForwardEdgeTransfer: EdgeTransfer refines one specific CFG
// edge's contribution before the meet — the mechanism branch-condition
// refinement rides on. On the diamond, each arm sees its own clamped
// copy of the entry's out-state, and the join recovers the full range.
func TestSolveForwardEdgeTransfer(t *testing.T) {
	f := buildDiamond(t) // entry(0) -> {left(1), right(2)} -> join(3)
	p := ForwardProblem[itv]{
		Entry:    func() itv { return itv{0, 10} },
		Transfer: func(b int, in itv) itv { return in },
		Meet:     joinItv,
		Equal:    func(a, b itv) bool { return a == b },
		EdgeTransfer: func(from, to int, out itv) itv {
			if from == 0 && to == 1 && out.hi > 4 {
				out.hi = 4 // then-edge: value < 5
			}
			if from == 0 && to == 2 && out.lo < 5 {
				out.lo = 5 // else-edge: value >= 5
			}
			return out
		},
	}
	in, solved := SolveForward(NewCFG(f), p)
	for b := 0; b < 4; b++ {
		if !solved[b] {
			t.Fatalf("block %d unsolved", b)
		}
	}
	if want := (itv{0, 4}); in[1] != want {
		t.Errorf("in[left] = %v, want %v", in[1], want)
	}
	if want := (itv{5, 10}); in[2] != want {
		t.Errorf("in[right] = %v, want %v", in[2], want)
	}
	if want := (itv{0, 10}); in[3] != want {
		t.Errorf("in[join] = %v, want %v", in[3], want)
	}
}

// ---------------------------------------------------------------------
// Iteration order.

// buildChainedLoops builds k loops that run one after the other, the
// shape of a function made of sequential counting loops:
//
//	entry(0) -> h1; hj -> {bj, h(j+1)}; bj -> hj; hk -> {bk, exit}
//
// with hj = 2j-1, bj = 2j and exit = 2k+1.
func buildChainedLoops(tb testing.TB, k int) *Func {
	tb.Helper()
	p := NewProgram(ctypes.NewTable())
	fb := NewFunc(p, "chain", ctypes.Int, Param{Name: "c", Type: ctypes.Int})
	heads := make([]int, k)
	for j := range heads {
		heads[j] = fb.Reserve(fmt.Sprintf("h%d", j+1))
		fb.Reserve(fmt.Sprintf("b%d", j+1))
	}
	exit := fb.Reserve("exit")
	fb.Jmp(heads[0])
	for j, h := range heads {
		next := exit
		if j+1 < k {
			next = heads[j+1]
		}
		fb.SetBlock(h)
		fb.Br(fb.Param(0), h+1, next)
		fb.SetBlock(h + 1)
		fb.Jmp(h)
	}
	fb.SetBlock(exit)
	fb.Ret(fb.Const(ctypes.Int, 0))
	if err := p.Validate(); err != nil {
		tb.Fatal(err)
	}
	return fb.F
}

// chainedCounters is an interval problem over buildChainedLoops(k): the
// state holds one counter per loop, and loop j's body increments
// counter j. Each loop's exit state grows until its counter widens to
// [0, +inf], and every later loop sees each of those states. *transfers
// counts Transfer calls.
func chainedCounters(k int, transfers *int) ForwardProblem[[]itv] {
	return ForwardProblem[[]itv]{
		Entry: func() []itv { return make([]itv, k) },
		Transfer: func(b int, in []itv) []itv {
			*transfers++
			if b == 0 || b%2 == 1 || b > 2*k {
				return in // entry, heads and exit only pass the state on
			}
			out := append([]itv(nil), in...)
			out[b/2-1] = addItv(out[b/2-1], itv{1, 1})
			return out
		},
		Meet: func(a, b []itv) []itv {
			out := make([]itv, k)
			for i := range out {
				out[i] = joinItv(a[i], b[i])
			}
			return out
		},
		Equal: func(a, b []itv) bool {
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		},
		Widen: func(prev, next []itv) []itv {
			out := make([]itv, k)
			for i := range out {
				out[i] = widenItv(prev[i], next[i])
			}
			return out
		},
	}
}

// TestSolveForwardEntryLoop solves a loop headed by the entry block,
// x = 0; do x++ while x < 10, on buildEntryLoop: the back edge, refined
// by its EdgeTransfer, reaches the entry block's in-state, so the loop
// head sees every iteration's x and the exit sees x = 10. Seeing only
// Entry(), the head would hold x = 0 and the exit an empty interval.
func TestSolveForwardEntryLoop(t *testing.T) {
	f := buildEntryLoop(t) // entry(0) -> {entry, exit(1)}
	p := ForwardProblem[itv]{
		Entry: func() itv { return itv{0, 0} },
		Transfer: func(b int, in itv) itv {
			if b == 0 {
				return itv{in.lo + 1, in.hi + 1}
			}
			return in
		},
		Meet:  joinItv,
		Equal: func(a, b itv) bool { return a == b },
		EdgeTransfer: func(from, to int, out itv) itv {
			if to == 0 {
				out.hi = min(out.hi, 9) // stays in the loop: x < 10
			} else {
				out.lo = max(out.lo, 10) // leaves it: x >= 10
			}
			return out
		},
	}
	in, solved := SolveForward(NewCFG(f), p)
	if !solved[0] || !solved[1] {
		t.Fatalf("solved = %v", solved)
	}
	if want := (itv{0, 9}); in[0] != want {
		t.Errorf("in[entry] = %v, want %v", in[0], want)
	}
	if want := (itv{10, 10}); in[1] != want {
		t.Errorf("in[exit] = %v, want %v", in[1], want)
	}
}

// TestSolveForwardChainedLoopsLinear bounds the solver's work on a chain
// of loops: each loop must stabilise once, before its exit is visited,
// so the Transfer calls grow linearly with the block count. A FIFO
// worklist re-runs every later loop each time an earlier loop's exit
// state grows: it needs 5.3, 12.2 and 22.1 transfers per block at
// k = 5, 20 and 40, so it fails the bound at k = 20 and 40, where this
// order needs 4.75, 5.29 and 5.39 (11 per loop, plus entry and exit).
func TestSolveForwardChainedLoopsLinear(t *testing.T) {
	const perBlock = 6
	for _, k := range []int{5, 20, 40} {
		f := buildChainedLoops(t, k)
		transfers := 0
		in, solved := SolveForward(NewCFG(f), chainedCounters(k, &transfers))
		blocks := len(f.Blocks)
		if transfers > perBlock*blocks {
			t.Errorf("k=%d: %d transfers over %d blocks, want at most %d per block",
				k, transfers, blocks, perBlock)
		}
		exit := 2*k + 1
		if !solved[exit] {
			t.Fatalf("k=%d: exit unsolved", k)
		}
		for j, c := range in[exit] {
			if want := (itv{0, posInf}); c != want {
				t.Errorf("k=%d: counter %d at exit = %v, want %v", k, j, c, want)
			}
		}
	}
}

// TestWTOProperties checks the weak topological order on every CFG
// shape of the solver and loop tests: it is a permutation of the
// reachable blocks starting at the entry; each natural loop's body is
// contiguous with its header first; and on reducible CFGs every edge
// runs forward in the order or back to the header of a natural loop
// containing its source, so a loop's exits come after all of it.
func TestWTOProperties(t *testing.T) {
	nested, _, _ := buildNestedLoops(t)
	shared, _, _, _ := buildSharedHeader(t)
	self, _ := buildSelfLoop(t)
	unreachable, _ := buildUnreachable(t)
	for _, tc := range []struct {
		name string
		f    *Func
	}{
		{"diamond", buildDiamond(t)},
		{"loop", buildLoop(t)},
		{"nested", nested},
		{"shared-header", shared},
		{"irreducible", buildIrreducible(t)},
		{"unreachable", unreachable},
		{"self-loop", self},
		{"entry-loop", buildEntryLoop(t)},
		{"chained", buildChainedLoops(t, 5)},
	} {
		c := NewCFG(tc.f)
		if len(c.wto) != len(c.RPO) || len(c.wto) == 0 || c.wto[0] != 0 {
			t.Errorf("%s: wto = %v, want the %d reachable blocks from the entry", tc.name, c.wto, len(c.RPO))
			continue
		}
		for b := range tc.f.Blocks {
			reachable := c.rpoPos[b] != -1
			if pos := c.wtoPos[b]; reachable != (pos != -1) || (reachable && c.wto[pos] != b) {
				t.Errorf("%s: block %d has wto position %d (wto %v)", tc.name, b, pos, c.wto)
			}
		}
		li := FindLoops(c)
		for _, l := range li.Loops {
			h := c.wtoPos[l.Header]
			for _, b := range l.Body {
				if p := c.wtoPos[b]; p < h || p >= h+len(l.Body) {
					t.Errorf("%s: loop headed %d: body block %d at position %d, outside [%d, %d)",
						tc.name, l.Header, b, p, h, h+len(l.Body))
				}
			}
		}
		if li.Irreducible {
			continue
		}
		for u, ss := range c.Succs {
			if c.wtoPos[u] == -1 {
				continue
			}
			for _, v := range ss {
				if c.wtoPos[v] > c.wtoPos[u] {
					continue
				}
				back := false
				for _, l := range li.Loops {
					back = back || (l.Header == v && l.Contains(u))
				}
				if !back {
					t.Errorf("%s: edge %d->%d runs backwards in wto %v but is no loop back edge", tc.name, u, v, c.wto)
				}
			}
		}
	}
}

// BenchmarkSolveChainedLoops solves the 40-loop chain; transfers/op is
// the solver's visit count, which the iteration order sets.
func BenchmarkSolveChainedLoops(b *testing.B) {
	const k = 40
	c := NewCFG(buildChainedLoops(b, k))
	transfers := 0
	p := chainedCounters(k, &transfers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveForward(c, p)
	}
	b.ReportMetric(float64(transfers)/float64(b.N), "transfers/op")
}
