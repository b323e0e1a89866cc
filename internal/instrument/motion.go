package instrument

import (
	"sort"

	"repro/internal/mir"
)

// The §5.3 check-MOTION passes. Where elide.go REMOVES checks that are
// redundant where they stand, this file MOVES checks to cheaper places:
//
//   - hoistChecks lifts loop-invariant checks (and the pure
//     single-def instruction chains computing their operands) into the
//     loop preheader, so a check executed once per iteration executes
//     once per loop entry;
//   - preInsertChecks performs a restricted partial-redundancy
//     elimination: when a check at a join is available on every
//     incoming edge but one, a copy is inserted on that edge, making
//     the join's check fully redundant — the elision pass then deletes
//     it from the (hot) join block.
//
// Both transformations are SPECULATION-FREE: they never execute a check
// on a program path that would not have executed it before. Hoisting
// only moves a check whose block dominates every loop exit and every
// latch (so any entry into the loop that completes an iteration or
// leaves it ran the check already); PRE only copies a check onto an
// edge whose every continuation runs the original (the join executes it
// unconditionally before its terminator). Since checks are
// side-effect-free apart from reporting, and reports bucket by (kind,
// static type, dynamic type, offset) independent of how often they
// fire, moving a check preserves the set of reported issues exactly.
//
// Both passes refuse functions with irreducible control flow — there
// are no natural loops to hoist from, and edge-oriented reasoning loses
// its footing — leaving elision (which never assumed loop structure) to
// do the §5.3 work alone.

// motionEnabled reports whether the check-motion suite (hoisting, PRE,
// and value-numbered provenance in the elision lattice) runs.
func motionEnabled(opts Options) bool {
	return !opts.NoOptimize && !opts.NoCheckMotion
}

// hoistable ops for operand chains: pure, non-trapping instructions
// whose only effect is their destination register. Division and
// remainder are excluded (they trap on zero), as is everything touching
// memory or allocator state.
func hoistableDef(ins *mir.Instr) bool {
	switch ins.Op {
	case mir.OpConst, mir.OpMov, mir.OpNot, mir.OpCast, mir.OpCmp,
		mir.OpField, mir.OpIndex, mir.OpGlobal:
		return true
	case mir.OpBin:
		k := mir.BinKind(ins.Aux)
		return k != mir.BinDiv && k != mir.BinRem
	}
	return false
}

// hoistChecks runs loop-invariant check hoisting over one function:
// innermost loops first, so a check can migrate outward one nesting
// level at a time, with a per-loop fixpoint so a check unblocked by an
// earlier move (its last in-loop bounds writer left) is caught in the
// same pass.
func hoistChecks(f *mir.Func, st *Stats) {
	cfg := mir.NewCFG(f)
	li := mir.FindLoops(cfg)
	if li.Irreducible || len(li.Loops) == 0 {
		return
	}
	// Give every loop a preheader to hoist into, then recompute the
	// analyses once (preheader insertion retargets terminators).
	added := false
	for _, l := range li.Loops {
		if l.Preheader == -1 && mir.AddPreheader(f, cfg, l) != -1 {
			added = true
		}
	}
	if added {
		cfg = mir.NewCFG(f)
		li = mir.FindLoops(cfg)
		if li.Irreducible {
			return
		}
	}
	defCount := staticDefCounts(f)
	moved := 0
	for _, l := range li.InnermostFirst() {
		if l.Preheader == -1 {
			continue
		}
		moved += hoistLoop(f, cfg, l, defCount, st)
	}
	if moved == 0 {
		return
	}
	// Moves leave OpNop in the vacated slots (so positions stay stable
	// during the pass); drop them now.
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for _, ins := range b.Instrs {
			if ins.Op != mir.OpNop {
				out = append(out, ins)
			}
		}
		b.Instrs = out
	}
}

// staticDefCounts counts textual definitions per register (parameters
// carry an implicit entry definition). A register with exactly one is
// safe to compute early: no other write can overtake the moved def.
func staticDefCounts(f *mir.Func) []int {
	n := make([]int, f.NumRegs)
	for i := range f.Params {
		n[i]++
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			_, defs := b.Instrs[i].Regs()
			for _, d := range defs {
				if d >= 0 {
					n[d]++
				}
			}
		}
	}
	return n
}

type instrPos struct{ b, i int }

// hoistLoop hoists what it can from one loop into its preheader and
// returns the number of instructions moved. Candidate checks are
// OpTypeCheck, OpBoundsGet and constant-size OpBoundsCheck; a candidate
// moves when
//
//   - its block dominates every loop exit block and every latch
//     (speculation-free: every entry that completes an iteration or
//     leaves the loop ran the check), with a non-empty exit set;
//   - every register it transitively uses is loop-invariant — defined
//     outside the loop, or defined inside by a pure single-def chain
//     that moves along with it;
//   - no in-loop instruction outside the moved set rewrites the bounds
//     register of anything the moved set uses (the check must see the
//     same bounds at the preheader as it did in place); and
//   - for the metadata-consulting kinds (OpTypeCheck, OpBoundsGet), the
//     loop contains no deallocation barrier — an in-loop free could
//     change what a per-iteration check reports, so those checks must
//     stay put.
//
// An OpBoundsNarrow attached directly after a moved instruction that
// (bounds-)defines its register moves with it, keeping the
// def-then-narrow instrumentation pairing intact.
func hoistLoop(f *mir.Func, cfg *mir.CFG, l *mir.Loop, defCount []int, st *Stats) int {
	inLoop := make(map[int]bool, len(l.Body))
	for _, b := range l.Body {
		inLoop[b] = true
	}
	var exits []int
	for _, b := range l.Body {
		for _, s := range cfg.Succs[b] {
			if !inLoop[s] {
				exits = append(exits, b)
				break
			}
		}
	}
	if len(exits) == 0 {
		return 0 // no exit: cannot prove a hoisted check would have run
	}
	guardOK := func(b int) bool {
		for _, e := range exits {
			if !cfg.Dominates(b, e) {
				return false
			}
		}
		for _, la := range l.Latches {
			if !cfg.Dominates(b, la) {
				return false
			}
		}
		return true
	}
	rpoPos := make(map[int]int, len(cfg.RPO))
	for i, b := range cfg.RPO {
		rpoPos[b] = i
	}

	totalMoved := 0
	for {
		// Per-iteration view of the loop: unmoved defs, bounds writers
		// and barriers (vacated slots are OpNop and drop out naturally).
		defsIn := map[int][]instrPos{}
		boundsW := map[int][]instrPos{}
		barriers := 0
		for _, bi := range l.Body {
			for i := range f.Blocks[bi].Instrs {
				ins := &f.Blocks[bi].Instrs[i]
				switch ins.Op {
				case mir.OpFree, mir.OpRealloc, mir.OpCall:
					barriers++
				case mir.OpTypeCheck, mir.OpBoundsGet, mir.OpBoundsNarrow, mir.OpBoundsMov:
					boundsW[ins.A] = append(boundsW[ins.A], instrPos{bi, i})
				}
				_, defs := ins.Regs()
				for _, d := range defs {
					if d >= 0 {
						defsIn[d] = append(defsIn[d], instrPos{bi, i})
					}
				}
			}
		}

		movedThisRound := 0
		for _, bi := range l.Body {
			if !guardOK(bi) {
				continue
			}
			for i := range f.Blocks[bi].Instrs {
				ins := &f.Blocks[bi].Instrs[i]
				switch ins.Op {
				case mir.OpTypeCheck, mir.OpBoundsGet:
					if barriers > 0 {
						continue
					}
				case mir.OpBoundsCheck:
					if ins.B != -1 {
						continue
					}
				default:
					continue
				}
				set := planHoist(f, l, instrPos{bi, i}, defCount, defsIn, boundsW)
				if set == nil {
					continue
				}
				positions := make([]instrPos, 0, len(set))
				for p := range set {
					positions = append(positions, p)
				}
				sort.Slice(positions, func(a, b int) bool {
					pa, pb := positions[a], positions[b]
					if pa.b != pb.b {
						return rpoPos[pa.b] < rpoPos[pb.b]
					}
					return pa.i < pb.i
				})
				ph := f.Blocks[l.Preheader]
				body := make([]mir.Instr, 0, len(ph.Instrs)+len(positions))
				body = append(body, ph.Instrs[:len(ph.Instrs)-1]...)
				for _, p := range positions {
					body = append(body, f.Blocks[p.b].Instrs[p.i])
					f.Blocks[p.b].Instrs[p.i] = mir.Instr{Op: mir.OpNop, Dst: -1, A: -1, B: -1, C: -1}
				}
				body = append(body, ph.Instrs[len(ph.Instrs)-1])
				ph.Instrs = body
				st.HoistedChecks++
				movedThisRound += len(positions)
			}
		}
		totalMoved += movedThisRound
		if movedThisRound == 0 {
			return totalMoved
		}
	}
}

// planHoist computes the closed set of instruction positions that must
// move together for the candidate check at pos to hoist, or nil when
// the candidate is not hoistable. The set is the candidate, the in-loop
// pure single-def chains computing its operands, and the attached
// bounds narrows of everything moved.
func planHoist(f *mir.Func, l *mir.Loop, pos instrPos, defCount []int,
	defsIn map[int][]instrPos, boundsW map[int][]instrPos) map[instrPos]bool {
	set := map[instrPos]bool{}
	visiting := map[int]bool{} // cycle guard over registers
	usedRegs := map[int]bool{}

	var needReg func(r int) bool
	var include func(p instrPos) bool

	needReg = func(r int) bool {
		if r < 0 || usedRegs[r] {
			return true
		}
		if visiting[r] {
			return false // cyclic def chain: refuse
		}
		usedRegs[r] = true
		defs := defsIn[r]
		if len(defs) == 0 {
			return true // loop-invariant: no in-loop definition left
		}
		// Defined in the loop: hoistable only as a pure chain with a
		// single static def anywhere in the function.
		if len(defs) > 1 || defCount[r] != 1 {
			return false
		}
		d := &f.Blocks[defs[0].b].Instrs[defs[0].i]
		if !hoistableDef(d) {
			return false
		}
		visiting[r] = true
		ok := include(defs[0])
		visiting[r] = false
		return ok
	}

	include = func(p instrPos) bool {
		if set[p] {
			return true
		}
		set[p] = true
		ins := &f.Blocks[p.b].Instrs[p.i]
		uses, defs := ins.Regs()
		for _, u := range uses {
			if !needReg(u) {
				return false
			}
		}
		// Attach the immediately-following narrows of what this
		// instruction (bounds-)defines: the emit schema pairs a derived
		// pointer with its narrow, and the pair must not split.
		target := -1
		switch ins.Op {
		case mir.OpTypeCheck, mir.OpBoundsGet:
			target = ins.A
		default:
			for _, d := range defs {
				if d >= 0 {
					target = d
				}
			}
		}
		if target >= 0 {
			for ni := p.i + 1; ni < len(f.Blocks[p.b].Instrs); ni++ {
				nx := &f.Blocks[p.b].Instrs[ni]
				if nx.Op != mir.OpBoundsNarrow || nx.A != target {
					break
				}
				set[instrPos{p.b, ni}] = true
			}
		}
		return true
	}

	if !include(pos) {
		return nil
	}
	// The moved code must observe the same bounds registers at the
	// preheader as in place: no in-loop bounds writer may remain for
	// anything it uses, apart from the moved instructions themselves.
	for r := range usedRegs {
		for _, w := range boundsW[r] {
			if !set[w] {
				return nil
			}
		}
	}
	return set
}

// preInsertChecks is the partial-redundancy pass: a type check at a
// LOOP HEADER that is available on every solved incoming edge except
// one loop-ENTRY edge gets a copy inserted on that edge (splitting it
// when the predecessor has other successors), so the header's own check
// becomes fully redundant and the elision pass removes it: the cold
// entry edge pays the check once and the hot loop body stops
// re-checking every iteration.
//
// The restriction to loop-entry edges is deliberate. Inserting on a
// back edge or a diamond arm is never a win (those edges run at least
// as often as the join), and keeping the check AT the join on any path
// that passed a deallocation is the contract the elision tests pin —
// the entry edge, by contrast, is the one place a copy strictly reduces
// dynamic checks.
//
// Down-safety needs no analysis: the copied check sits on an edge whose
// every continuation executed the original (the join runs it before its
// terminator), so no path gains a check it did not already run.
//
// The decision uses the same availability dataflow — same transfer
// function, same value-number keying — the elision pass will run
// afterwards, so an inserted copy is removed-at-the-join by
// construction rather than by luck. One round; plans are computed
// against one solution, then applied together.
func preInsertChecks(f *mir.Func, opts Options, st *Stats) {
	cfg := mir.NewCFG(f)
	li := mir.FindLoops(cfg)
	if li.Irreducible {
		return
	}
	headerLoop := map[int]*mir.Loop{}
	for _, l := range li.Loops {
		headerLoop[l.Header] = l
	}
	ctx := elideContext(f, opts)
	in, solved := solveAvailability(cfg, f, ctx)
	out := make([]*elideState, len(f.Blocks))
	for bi := range f.Blocks {
		if !solved[bi] {
			continue
		}
		s := in[bi].clone()
		for i := range f.Blocks[bi].Instrs {
			s.step(ctx, &f.Blocks[bi].Instrs[i])
		}
		out[bi] = s
	}

	type plan struct {
		pred, join int
		ins        mir.Instr
	}
	var plans []plan
	for j := 1; j < len(f.Blocks); j++ { // entry block: implicit entry edge cannot be split
		l := headerLoop[j]
		if l == nil || !solved[j] || len(cfg.Preds[j]) < 2 {
			continue
		}
		instrs := f.Blocks[j].Instrs
		for i := range instrs {
			c := &instrs[i]
			if c.Op != mir.OpTypeCheck || !prefixClean(instrs[:i], c.A) {
				continue
			}
			k := ctx.key(c.A)
			failing, ok, solvedPreds := -1, true, 0
			for _, p := range cfg.Preds[j] {
				if out[p] == nil {
					continue // unreachable predecessor: edge never taken
				}
				solvedPreds++
				if ft, has := out[p].lastType[k]; has && ft.t == c.Type && ft.holder == c.A {
					continue // available on this edge
				}
				if failing != -1 || l.Contains(p) {
					ok = false // second failing edge, or a hot in-loop edge
					break
				}
				failing = p
			}
			if ok && failing != -1 && solvedPreds >= 2 {
				plans = append(plans, plan{pred: failing, join: j, ins: *c})
			}
		}
	}

	inserted := map[[2]int]int{} // (pred, join) -> block receiving the copies
	for _, pl := range plans {
		key := [2]int{pl.pred, pl.join}
		tb, ok := inserted[key]
		if !ok {
			if len(cfg.Succs[pl.pred]) == 1 {
				tb = pl.pred // the edge IS the predecessor's fallthrough
			} else {
				tb = mir.SplitEdge(f, pl.pred, pl.join)
			}
			inserted[key] = tb
		}
		blk := f.Blocks[tb]
		n := len(blk.Instrs)
		blk.Instrs = append(blk.Instrs[:n-1], pl.ins, blk.Instrs[n-1])
		st.PREInsertions++
	}
}

// prefixClean reports whether nothing in the join block before the
// candidate touches register a — no redefinition, no bounds write, no
// deallocation barrier, and no other check of a whose elision outcome
// the insertion could disturb — so the fact on each incoming edge still
// describes a at the candidate.
func prefixClean(prefix []mir.Instr, a int) bool {
	for i := range prefix {
		ins := &prefix[i]
		switch ins.Op {
		case mir.OpFree, mir.OpRealloc, mir.OpCall:
			return false
		case mir.OpTypeCheck, mir.OpBoundsGet, mir.OpBoundsNarrow,
			mir.OpBoundsMov, mir.OpBoundsCheck:
			if ins.A == a {
				return false
			}
		}
		_, defs := ins.Regs()
		for _, d := range defs {
			if d == a {
				return false
			}
		}
	}
	return true
}
