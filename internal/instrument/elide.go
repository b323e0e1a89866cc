package instrument

import (
	"sort"

	"repro/internal/ctypes"
	"repro/internal/intrinsics"
	"repro/internal/mir"
)

// The §5.3 check-elision pass. The paper's optimiser runs on LLVM IR
// with full CFG visibility; this file gives the MIR pass the same view:
// a PATH-SENSITIVE, per-fact available-check dataflow over mir.CFG
// (mir.SolveForward) driven by one fact engine (elideState.step). A
// check is elided when the same fact is available on EVERY incoming
// path, so a diamond whose arms both establish a fact keeps it at the
// join.
//
// Three kinds of facts are tracked, each keyed by register:
//
//   - checkedBy: the largest constant size a bounds check of the
//     register has verified (subsumes later, smaller checks);
//   - lastNarrow: the extent the register's bounds were last narrowed to
//     (a repeat narrow to the same extent is a no-op);
//   - lastType: the static type the register was last type-checked
//     against (re-checking the same provenance against the same type
//     recomputes the same bounds — §5.3's redundant-check removal).
//
// Soundness around deallocation: free, realloc and calls (which may
// free) can rebind an object's metadata to FREE, changing what a type
// check would report — so they are barriers that clear every lastType
// fact. Bounds facts survive barriers because bounds_check never
// consults metadata: it compares the pointer against the bounds register
// file, which deallocation does not rewrite. A kill or barrier on any
// path into a block invalidates the fact there, so a use-after-free on
// one arm of a branch is still re-checked and reported at the join.

// sizeFact and typeFact carry a fact plus whether it was inherited from
// another block (inherited elisions are the cross-block wins a
// block-local pass cannot see, counted in Stats.ElidedPathSensitive).
// The inherited flag is attribution metadata only: the dataflow meet
// and equality ignore it.
type sizeFact struct {
	v         int64
	inherited bool
}

type typeFact struct {
	t         *ctypes.Type
	inherited bool
}

// elideState is the fact set at one program point.
type elideState struct {
	checkedBy  map[int]sizeFact // reg -> largest bounds-checked size
	lastNarrow map[int]sizeFact // reg -> last narrow extent
	lastType   map[int]typeFact // reg -> last checked type
}

func newElideState() *elideState {
	return &elideState{
		checkedBy:  map[int]sizeFact{},
		lastNarrow: map[int]sizeFact{},
		lastType:   map[int]typeFact{},
	}
}

// clone deep-copies the state, preserving inheritance flags.
func (s *elideState) clone() *elideState {
	n := newElideState()
	for r, f := range s.checkedBy {
		n.checkedBy[r] = f
	}
	for r, f := range s.lastNarrow {
		n.lastNarrow[r] = f
	}
	for k, f := range s.lastType {
		n.lastType[k] = f
	}
	return n
}

// inherit deep-copies the state, marking every fact as inherited — it
// now describes another block rather than the current one.
func (s *elideState) inherit() *elideState {
	n := newElideState()
	for r, f := range s.checkedBy {
		f.inherited = true
		n.checkedBy[r] = f
	}
	for r, f := range s.lastNarrow {
		f.inherited = true
		n.lastNarrow[r] = f
	}
	for k, f := range s.lastType {
		f.inherited = true
		n.lastType[k] = f
	}
	return n
}

// invalidate forgets everything about a redefined register.
func (s *elideState) invalidate(reg int) {
	delete(s.checkedBy, reg)
	delete(s.lastNarrow, reg)
	delete(s.lastType, reg)
}

// propagate carries the check state from src to dst when the value and
// its bounds register both copy (mov, pointer-identity cast).
func (s *elideState) propagate(dst, src int) {
	s.invalidate(dst)
	if f, ok := s.checkedBy[src]; ok {
		s.checkedBy[dst] = f
	}
	if f, ok := s.lastNarrow[src]; ok {
		s.lastNarrow[dst] = f
	}
	if f, ok := s.lastType[src]; ok {
		s.lastType[dst] = f
	}
}

// meetStates intersects two fact states — the join-point lattice
// operation of the available-check dataflow. A fact survives only when
// both paths guarantee it: bounds-checked sizes meet to the smaller
// size, and narrow extents and checked types must agree exactly.
// Neither input is mutated (mir.ForwardProblem contract).
func meetStates(a, b *elideState) *elideState {
	n := newElideState()
	for r, fa := range a.checkedBy {
		if fb, ok := b.checkedBy[r]; ok {
			if fb.v < fa.v {
				fa.v = fb.v
			}
			fa.inherited = fa.inherited || fb.inherited
			n.checkedBy[r] = fa
		}
	}
	for r, fa := range a.lastNarrow {
		if fb, ok := b.lastNarrow[r]; ok && fb.v == fa.v {
			fa.inherited = fa.inherited || fb.inherited
			n.lastNarrow[r] = fa
		}
	}
	for k, fa := range a.lastType {
		if fb, ok := b.lastType[k]; ok && fb.t == fa.t {
			fa.inherited = fa.inherited || fb.inherited
			n.lastType[k] = fa
		}
	}
	return n
}

// statesEqual compares the fact content of two states, ignoring the
// inheritance flags (they are attribution metadata, not lattice
// values, and are uniformly unset while the dataflow iterates).
func statesEqual(a, b *elideState) bool {
	if len(a.checkedBy) != len(b.checkedBy) ||
		len(a.lastNarrow) != len(b.lastNarrow) ||
		len(a.lastType) != len(b.lastType) {
		return false
	}
	for r, f := range a.checkedBy {
		if g, ok := b.checkedBy[r]; !ok || g.v != f.v {
			return false
		}
	}
	for r, f := range a.lastNarrow {
		if g, ok := b.lastNarrow[r]; !ok || g.v != f.v {
			return false
		}
	}
	for k, f := range a.lastType {
		if g, ok := b.lastType[k]; !ok || g.t != f.t {
			return false
		}
	}
	return true
}

// elisionKind classifies what a removed check was (which Stats counter
// it belongs to); elideNone means the instruction must be kept.
type elisionKind uint8

const (
	elideNone elisionKind = iota
	elideSubsume
	elideNarrow
	elideRecheck
)

// step advances the state over one instruction and returns the elision
// decision for it: the counter the removed check belongs to (elideNone
// when it must be kept) and whether the justifying fact was inherited
// from another block. The state is updated to reflect the decision: an
// elided check leaves the facts untouched (it will not execute), a kept
// one applies its own. This single function is the transfer semantics
// shared by the rewrite and the dataflow fixpoint, so a rewrite can
// never disagree with the solution it came from.
func (s *elideState) step(ins *mir.Instr) (elisionKind, bool) {
	switch ins.Op {
	case mir.OpBoundsCheck:
		if ins.B == -1 {
			if f, ok := s.checkedBy[ins.A]; ok && f.v >= ins.Aux {
				return elideSubsume, f.inherited
			}
			s.checkedBy[ins.A] = sizeFact{v: ins.Aux}
		}
	case mir.OpBoundsNarrow:
		if f, ok := s.lastNarrow[ins.A]; ok && f.v == ins.Aux {
			return elideNarrow, f.inherited
		}
		s.lastNarrow[ins.A] = sizeFact{v: ins.Aux}
		delete(s.checkedBy, ins.A) // narrower bounds: recheck
		delete(s.lastType, ins.A)  // narrowed bounds differ from a fresh check's
	case mir.OpTypeCheck:
		if f, ok := s.lastType[ins.A]; ok && f.t == ins.Type {
			return elideRecheck, f.inherited
		}
		s.invalidate(ins.A)
		s.lastType[ins.A] = typeFact{t: ins.Type}
	case mir.OpBoundsGet:
		s.invalidate(ins.A)
	case mir.OpMov:
		s.propagate(ins.Dst, ins.A)
	case mir.OpCast:
		if ins.Type.Kind == ctypes.KindPointer && ins.CastFrom != nil &&
			ins.CastFrom.Kind == ctypes.KindPointer && ins.CastFrom.Elem == ins.Type.Elem {
			s.propagate(ins.Dst, ins.A)
		} else {
			s.invalidate(ins.Dst)
		}
	case mir.OpFree, mir.OpRealloc, mir.OpCall:
		// Deallocation (or a call that may deallocate) can rebind
		// metadata to FREE: forget every remembered type check.
		clear(s.lastType)
		_, defs := ins.Regs()
		for _, d := range defs {
			if d >= 0 {
				s.invalidate(d)
			}
		}
	default:
		_, defs := ins.Regs()
		for _, d := range defs {
			if d >= 0 {
				s.invalidate(d)
			}
		}
	}
	return elideNone, false
}

// elideBlock rewrites one block's instructions against the incoming
// fact state, mutating state to the block's end-of-block facts.
// Elisions justified by inherited facts are also charged to
// Stats.ElidedPathSensitive.
func elideBlock(instrs []mir.Instr, s *elideState, st *Stats) []mir.Instr {
	var out []mir.Instr
	for i := range instrs {
		kind, inherited := s.step(&instrs[i])
		switch kind {
		case elideNone:
			out = append(out, instrs[i])
			continue
		case elideSubsume:
			st.ElidedSubsume++
		case elideNarrow:
			st.ElidedNarrows++
		case elideRecheck:
			st.ElidedRechecks++
		}
		if inherited {
			st.ElidedPathSensitive++
		}
	}
	return out
}

// elidePathSensitive is the §5.3 elision pass: a per-fact
// available-check dataflow over the CFG. The lattice element is the
// (provenance, fact) set of elideState; the meet is set intersection
// over predecessors (meetStates); the transfer function replays step
// over the block. SolveForward iterates to the greatest fixpoint in
// weak topological order, then every block is rewritten against its
// solved in-state: a check is elided exactly when the same fact is available
// on every incoming path. A fact established on both arms of a branch
// (but not before it) survives the meet and elides the join's re-check,
// which a walk over the dominator tree cannot see.
//
// The transfer function models post-elision runtime behaviour: a check
// that will be elided does not execute, so it neither kills nor
// re-establishes facts. That is monotone (more facts in never yields
// fewer facts out), and because the rewrite phase replays the identical
// step function against the fixpoint in-states, the removed checks are
// exactly the ones the solution says will not execute.
func elidePathSensitive(f *mir.Func, st *Stats) {
	in, solved := mir.SolveForward(mir.NewCFG(f), mir.ForwardProblem[*elideState]{
		Entry: newElideState,
		Transfer: func(b int, s *elideState) *elideState {
			n := s.clone()
			instrs := f.Blocks[b].Instrs
			for i := range instrs {
				n.step(&instrs[i])
			}
			return n
		},
		Meet:  meetStates,
		Equal: statesEqual,
	})
	for bi, b := range f.Blocks {
		var s *elideState
		if solved[bi] {
			// In-state facts are cross-block by construction (the entry
			// boundary state is empty, so anything available on entry to
			// a block was established elsewhere).
			s = in[bi].inherit()
		} else {
			// Blocks unreachable from the entry start from no facts.
			s = newElideState()
		}
		b.Instrs = elideBlock(b.Instrs, s, st)
	}
}

// assignSiteIDs numbers every OpTypeCheck in the instrumented program
// with a stable 1-based site ID (stored in Instr.Aux), in sorted
// function name, block, instruction order — after elision, so the IDs
// are dense over the checks that will actually execute. The runtime's
// per-site inline caches are indexed by these IDs.
//
// Checked libc intrinsic calls (Full and BoundsOnly)
// draw from the same counter: each reserves one consecutive ID per
// pointer argument, with the base stored in the OpCall's Aux — so each
// argument's type-check-through-the-cascade gets its own per-site
// inline-cache slot, exactly like a standalone OpTypeCheck would.
// Aux stays 0 on unchecked calls, which the interpreter runs bare.
func assignSiteIDs(p *mir.Program, opts Options, st *Stats) {
	checkIntrinsics := opts.Variant == Full || opts.Variant == BoundsOnly
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	id := int64(0)
	for _, name := range names {
		for _, b := range p.Funcs[name].Blocks {
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				switch ins.Op {
				case mir.OpTypeCheck:
					id++
					ins.Aux = id
					st.CheckSites++
				case mir.OpCall:
					if !checkIntrinsics || p.Funcs[ins.Callee] != nil {
						continue
					}
					d := intrinsics.Lookup(ins.Callee)
					if d == nil {
						continue
					}
					if n := d.NumSites(); n > 0 {
						ins.Aux = id + 1
						id += n
						st.IntrinsicSites += int(n)
					}
				}
			}
		}
	}
}
