package mir

// This file provides a small generic forward dataflow framework over
// CFG. It exists for the §5.3 check-elision pass's available-check
// analysis (package instrument), but is deliberately problem-agnostic:
// a client supplies the lattice (Meet/Equal), the entry boundary value
// and the per-block transfer function, and SolveForward iterates to the
// greatest fixpoint, always taking the pending block that comes first
// in the CFG's weak topological order.
//
// The framework is optimistic: a block whose out-state has not been
// computed yet is treated as ⊤ (the identity of Meet), which is what
// makes the solution the GREATEST fixpoint — the precise form of
// available-expressions analysis. ⊤ never needs to be represented: a
// predecessor with no out-state is simply skipped during the meet, and
// every reachable non-entry block has at least one predecessor earlier
// in the weak topological order (its DFS-tree parent), so the first
// visit always has at least one computed input.

// ForwardProblem describes a forward dataflow problem over the blocks
// of one CFG. F is the fact-set (lattice element) type.
//
// Contract:
//
//   - Entry returns the state on the function-entry edge (the boundary
//     condition; for available-check analysis, the empty fact set). The
//     entry block's in-state is Entry() met with its incoming CFG edges,
//     if any: a loop may be headed by the entry block.
//   - Transfer returns the out-state of block b given its in-state. It
//     must not mutate in (copy first) and must be monotone: a larger
//     in-state may not produce a smaller out-state.
//   - Meet combines two predecessor out-states into one in-state (set
//     intersection for available-expressions). It must not mutate
//     either argument.
//   - Equal reports lattice-element equality; it gates re-queueing, so
//     it must be reflexive and agree with Meet (Equal(a, Meet(a, a))).
//
// Termination requires the usual conditions: Transfer monotone and the
// lattice of reachable values of finite height — or, for infinite-height
// lattices (intervals), a Widen operator.
type ForwardProblem[F any] struct {
	Entry    func() F
	Transfer func(b int, in F) F
	Meet     func(a, b F) F
	Equal    func(a, b F) bool

	// EdgeTransfer, when non-nil, refines a predecessor's out-state for
	// one specific CFG edge before it is merged by Meet. It receives the
	// edge (from, to) and from's out-state and must return a state no
	// larger than its input (it may only ADD facts / narrow values —
	// e.g. branch-condition refinement on the two sides of an OpBr). It
	// must not mutate out.
	EdgeTransfer func(from, to int, out F) F

	// Widen, when non-nil, is applied to a block's in-state after the
	// block has been visited WidenAfter times: in' = Widen(prev, next)
	// where prev is the last solved in-state. Widen must return an upper
	// bound of both arguments and must guarantee stabilisation: every
	// chain prev, Widen(prev, next1), Widen(..., next2), ... reaches a
	// fixed element in finitely many steps (for intervals, by jumping
	// unstable ends to ±∞). When next ⊑ prev it should return prev, so
	// an already-stable state is left untouched.
	Widen func(prev, next F) F
	// WidenAfter is the per-block visit count after which Widen kicks
	// in; 0 means a default of 4. Ignored when Widen is nil.
	WidenAfter int

	// MaxVisits caps how many times a single block may be processed; 0
	// means a default of 10000. Exceeding the cap panics: with a correct
	// (monotone, widened) problem the solver converges in far fewer
	// visits, so hitting the cap means a buggy transfer function, and a
	// loud stop beats an infinite loop.
	MaxVisits int
}

// SolveForward iterates the problem to fixpoint over the blocks
// reachable from the entry and returns the solved in-state of every
// block. solved[b] reports whether block b was reached; unreachable
// blocks keep the zero F and must be handled by the caller (the elision
// pass falls back to block-local analysis for them).
//
// Iteration order. Every reachable block starts pending, and the solver
// always takes the pending block with the lowest position in the CFG's
// weak topological order (Bourdoncle 1993). In that order a loop's
// blocks are contiguous with its head first and its exits after it, so
// each loop stabilises before anything downstream is visited: an
// acyclic CFG solves in one sweep, and a chain of k sequential loops
// costs the sum of the loops' own iterations, not a re-run of every
// later loop each time an earlier one's exit state grows (which a FIFO
// worklist does, for O(k²) visits).
func SolveForward[F any](c *CFG, p ForwardProblem[F]) (in []F, solved []bool) {
	n := len(c.f.Blocks)
	in = make([]F, n)
	solved = make([]bool, n)
	out := make([]F, n)
	hasOut := make([]bool, n)
	visits := make([]int, n)

	widenAfter := p.WidenAfter
	if widenAfter <= 0 {
		widenAfter = 4
	}
	maxVisits := p.MaxVisits
	if maxVisits <= 0 {
		maxVisits = 10000
	}

	// pending holds wto positions; every position below lo is clear.
	pending := newBits(len(c.wto))
	for pos := range c.wto {
		pending.set(pos)
	}
	for lo := 0; ; {
		pos := pending.next(lo)
		if pos < 0 {
			break
		}
		pending.clear(pos)
		lo = pos + 1
		b := c.wto[pos]

		// The entry block's in-state is Entry() met with its incoming
		// edges: it may head a loop, whose back edge must reach it.
		var newIn F
		first := true
		if b == 0 {
			newIn, first = p.Entry(), false
		}
		for _, pr := range c.Preds[b] {
			if !hasOut[pr] {
				continue // ⊤: identity of Meet
			}
			o := out[pr]
			if p.EdgeTransfer != nil {
				o = p.EdgeTransfer(pr, b, o)
			}
			if first {
				newIn = o
				first = false
			} else {
				newIn = p.Meet(newIn, o)
			}
		}
		if first {
			// Every predecessor is still ⊤. Cannot happen for a
			// reachable non-entry block (the DFS-tree parent precedes it
			// in the order and started pending); skip.
			continue
		}
		visits[b]++
		if visits[b] > maxVisits {
			panic("mir: SolveForward: block revisited beyond MaxVisits; " +
				"transfer function is non-monotone or the lattice needs a Widen operator")
		}
		if p.Widen != nil && solved[b] && visits[b] > widenAfter {
			newIn = p.Widen(in[b], newIn)
		}
		in[b] = newIn
		solved[b] = true

		newOut := p.Transfer(b, newIn)
		if hasOut[b] && p.Equal(out[b], newOut) {
			continue
		}
		out[b] = newOut
		hasOut[b] = true
		for _, s := range c.Succs[b] {
			q := c.wtoPos[s]
			pending.set(q)
			if q < lo {
				lo = q
			}
		}
	}
	return in, solved
}
