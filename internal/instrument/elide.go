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
// Three kinds of facts are tracked:
//
//   - checkedBy: the largest constant size a bounds check of the
//     register has verified (subsumes later, smaller checks);
//   - lastNarrow: the extent the register's bounds were last narrowed to
//     (a repeat narrow to the same extent is a no-op);
//   - lastType: the static type a VALUE was last type-checked against
//     (re-checking the same provenance against the same type recomputes
//     the same bounds — §5.3's redundant-check removal). With check
//     motion enabled this map is keyed by VALUE NUMBER
//     (mir.ValueTable) where one exists, so `(T*)buf` recomputed into a
//     fresh temporary elides against the first computation's check; the
//     fact then records its HOLDER — the register whose bounds register
//     holds the check result — and eliding a check of a different
//     register rewrites it to a cheap OpBoundsMov from the holder
//     instead of deleting it outright.
//
// checkedBy and lastNarrow stay REGISTER-keyed even under value
// numbering: their outcomes depend on the content of the bounds
// register, which two same-valued registers need not share (one may
// carry narrowed bounds, the other fresh ones).
//
// Soundness around deallocation: free, realloc and calls (which may
// free) can rebind an object's metadata to FREE, changing what a type
// check would report — so they are barriers that clear every lastType
// fact. Bounds facts survive barriers because bounds_check never
// consults metadata: it compares the pointer against the bounds register
// file, which deallocation does not rewrite. A kill or barrier on any
// path into a block invalidates the fact there, so a use-after-free on
// one arm of a branch is still re-checked and reported at the join.

// vnKeyBase offsets value-number fact keys so they can never collide
// with register-indexed keys (registers are bounded by NumRegs, far
// below 2^32).
const vnKeyBase = int64(1) << 32

// elideCtx carries the per-function configuration the fact engine needs:
// with check motion enabled, the value-number table that keys lastType
// facts on values.
type elideCtx struct {
	vals *mir.ValueTable // nil: key lastType on registers
}

// key returns the lastType fact key for a register: its value number
// (offset by vnKeyBase) when the register is stable and numbered, the
// register index itself otherwise. A value-numbered key never needs
// invalidation on redefinition — numbered registers are single-def by
// construction, so the keyed value can never change; only the holder's
// bounds can die.
func (c *elideCtx) key(r int) int64 {
	if c.vals != nil {
		if v := c.vals.VN(r); v >= 0 {
			return vnKeyBase + int64(v)
		}
	}
	return int64(r)
}

// sameValue reports whether two registers provably hold the same value.
func (c *elideCtx) sameValue(a, b int) bool {
	return c.vals != nil && c.vals.SameValue(a, b)
}

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
	t *ctypes.Type
	// holder is the register whose bounds register holds the check's
	// result. Any rewrite of the holder's bounds (a new check, a narrow,
	// a value redefinition) kills the fact.
	holder    int
	inherited bool
}

// elideState is the fact set at one program point.
type elideState struct {
	checkedBy  map[int]sizeFact   // reg -> largest bounds-checked size
	lastNarrow map[int]sizeFact   // reg -> last narrow extent
	lastType   map[int64]typeFact // fact key (reg or VN) -> last checked type
}

func newElideState() *elideState {
	return &elideState{
		checkedBy:  map[int]sizeFact{},
		lastNarrow: map[int]sizeFact{},
		lastType:   map[int64]typeFact{},
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

// killHolder drops every lastType fact whose result lives in reg's
// bounds register — called whenever bounds[reg] is rewritten.
func (s *elideState) killHolder(reg int) {
	for k, f := range s.lastType {
		if f.holder == reg {
			delete(s.lastType, k)
		}
	}
}

// invalidate forgets everything about a redefined register: its
// register-keyed facts and every fact whose bounds it was holding.
// Value-number-keyed facts about OTHER holders survive — a numbered
// register is single-def, so the def establishing it cannot change the
// keyed value.
func (s *elideState) invalidate(reg int) {
	delete(s.checkedBy, reg)
	delete(s.lastNarrow, reg)
	delete(s.lastType, int64(reg))
	s.killHolder(reg)
}

// propagate carries the check state from src to dst when the value and
// its bounds register both copy (mov, pointer-identity cast). A
// lastType fact held by src itself transfers its holdership to dst —
// dst's bounds register now holds the same result — keeping the
// same-register fast path (plain elision, no OpBoundsMov) intact for
// copy chains.
func (s *elideState) propagate(ctx *elideCtx, dst, src int) {
	s.invalidate(dst)
	if f, ok := s.checkedBy[src]; ok {
		s.checkedBy[dst] = f
	}
	if f, ok := s.lastNarrow[src]; ok {
		s.lastNarrow[dst] = f
	}
	if f, ok := s.lastType[ctx.key(src)]; ok {
		if f.holder == src {
			f.holder = dst
		}
		s.lastType[ctx.key(dst)] = f
	}
}

// applyBoundsMov models bounds[dst] = bounds[src]: dst's bounds-content
// facts die (and anything dst's bounds were holding), then mirror src's
// — but only when the two registers provably hold the same VALUE, since
// checkedBy/lastNarrow describe a (value, bounds) pair.
func (s *elideState) applyBoundsMov(ctx *elideCtx, dst, src int) {
	delete(s.checkedBy, dst)
	delete(s.lastNarrow, dst)
	s.killHolder(dst)
	if ctx.sameValue(dst, src) {
		if f, ok := s.checkedBy[src]; ok {
			s.checkedBy[dst] = f
		}
		if f, ok := s.lastNarrow[src]; ok {
			s.lastNarrow[dst] = f
		}
	}
}

// meetStates intersects two fact states — the join-point lattice
// operation of the available-check dataflow. A fact survives only when
// both paths guarantee it: bounds-checked sizes meet to the smaller
// size, narrow extents and checked types must agree exactly, and a
// lastType fact must agree on its HOLDER — two paths that checked the
// same value into different bounds registers offer no single register
// to copy bounds from, so the fact is dropped. Neither input is mutated
// (mir.ForwardProblem contract).
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
		if fb, ok := b.lastType[k]; ok && fb.t == fa.t && fb.holder == fa.holder {
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
		if g, ok := b.lastType[k]; !ok || g.t != f.t || g.holder != f.holder {
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
	// elideVN removes a type check whose VALUE was already checked into
	// a DIFFERENT register's bounds: the check is replaced by an
	// OpBoundsMov from the holder, so the bounds still arrive.
	elideVN
)

// step advances the state over one instruction and returns the elision
// decision for it: the counter the removed check belongs to (elideNone
// when it must be kept), whether the justifying fact was inherited from
// another block, and — for elideVN — the holder register the rewritten
// OpBoundsMov must copy bounds from (-1 otherwise). The state is
// updated to reflect the decision: an elided check leaves the facts
// untouched (it will not execute), an elideVN one applies the
// replacement bounds-copy's effects, a kept one applies its own. This
// single function is the transfer semantics shared by the rewrite, the
// dataflow fixpoint AND the PRE edge-replay, so a rewrite can never
// disagree with the solution it came from.
func (s *elideState) step(ctx *elideCtx, ins *mir.Instr) (elisionKind, bool, int) {
	switch ins.Op {
	case mir.OpBoundsCheck:
		if ins.B == -1 {
			if f, ok := s.checkedBy[ins.A]; ok && f.v >= ins.Aux {
				return elideSubsume, f.inherited, -1
			}
			s.checkedBy[ins.A] = sizeFact{v: ins.Aux}
		}
	case mir.OpBoundsNarrow:
		if f, ok := s.lastNarrow[ins.A]; ok && f.v == ins.Aux {
			return elideNarrow, f.inherited, -1
		}
		s.lastNarrow[ins.A] = sizeFact{v: ins.Aux}
		delete(s.checkedBy, ins.A)       // narrower bounds: recheck
		delete(s.lastType, int64(ins.A)) // narrowed bounds differ from a fresh check's
		s.killHolder(ins.A)              // bounds[A] rewritten: facts living there die
	case mir.OpTypeCheck:
		if f, ok := s.lastType[ctx.key(ins.A)]; ok && f.t == ins.Type {
			if f.holder == ins.A {
				return elideRecheck, f.inherited, -1
			}
			// Same value, different register: the check would
			// recompute bounds already sitting in the holder's
			// bounds register — copy them instead.
			s.applyBoundsMov(ctx, ins.A, f.holder)
			return elideVN, f.inherited, f.holder
		}
		s.invalidate(ins.A)
		s.lastType[ctx.key(ins.A)] = typeFact{t: ins.Type, holder: ins.A}
	case mir.OpBoundsGet:
		s.invalidate(ins.A)
	case mir.OpBoundsMov:
		s.applyBoundsMov(ctx, ins.A, ins.B)
	case mir.OpMov:
		s.propagate(ctx, ins.Dst, ins.A)
	case mir.OpCast:
		if ins.Type.Kind == ctypes.KindPointer && ins.CastFrom != nil &&
			ins.CastFrom.Kind == ctypes.KindPointer && ins.CastFrom.Elem == ins.Type.Elem {
			s.propagate(ctx, ins.Dst, ins.A)
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
	return elideNone, false, -1
}

// elideBlock rewrites one block's instructions against the incoming
// fact state, mutating state to the block's end-of-block facts.
// Elisions justified by inherited facts are also charged to
// Stats.ElidedPathSensitive. Value-numbered elisions are charged to
// ValueNumberedElisions ONLY — they partition from both the per-kind
// and the cross-block counters.
func elideBlock(instrs []mir.Instr, ctx *elideCtx, s *elideState, st *Stats) []mir.Instr {
	var out []mir.Instr
	for i := range instrs {
		kind, inherited, holder := s.step(ctx, &instrs[i])
		if kind == elideNone {
			out = append(out, instrs[i])
			continue
		}
		switch kind {
		case elideSubsume:
			st.ElidedSubsume++
		case elideNarrow:
			st.ElidedNarrows++
		case elideRecheck:
			st.ElidedRechecks++
		case elideVN:
			st.ValueNumberedElisions++
			out = append(out, mir.Instr{Op: mir.OpBoundsMov, Dst: -1,
				A: instrs[i].A, B: holder, C: -1, Site: instrs[i].Site})
			continue // attribution is ValueNumberedElisions alone
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
// With check motion enabled the lastType facts are additionally keyed
// by VALUE NUMBER, so a pointer recomputed into a fresh temporary
// reuses the original's check through an OpBoundsMov rewrite.
//
// The transfer function models post-elision runtime behaviour: a check
// that will be elided does not execute, so it neither kills nor
// re-establishes facts (a VN-elided one applies its replacement
// bounds-copy instead). That is monotone (more facts in never yields
// fewer facts out), and because the rewrite phase replays the identical
// step function against the fixpoint in-states, the removed checks are
// exactly the ones the solution says will not execute.
func elidePathSensitive(f *mir.Func, opts Options, st *Stats) {
	ctx := elideContext(f, opts)
	cfg := mir.NewCFG(f)
	in, solved := solveAvailability(cfg, f, ctx)
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
		b.Instrs = elideBlock(b.Instrs, ctx, s, st)
	}
}

// elideContext builds the fact-engine configuration for one function:
// the value-number table exactly when the check-motion suite is active
// (motion and value-keyed provenance ship as one §5.3 feature set,
// ablated together by NoCheckMotion).
func elideContext(f *mir.Func, opts Options) *elideCtx {
	ctx := &elideCtx{}
	if motionEnabled(opts) {
		ctx.vals = mir.NewValueTable(f)
	}
	return ctx
}

// solveAvailability runs the available-check dataflow and returns the
// solved in-states — shared by the elision rewrite and the PRE
// planner (motion.go).
func solveAvailability(cfg *mir.CFG, f *mir.Func, ctx *elideCtx) ([]*elideState, []bool) {
	return mir.SolveForward(cfg, mir.ForwardProblem[*elideState]{
		Entry: newElideState,
		Transfer: func(b int, s *elideState) *elideState {
			n := s.clone()
			instrs := f.Blocks[b].Instrs
			for i := range instrs {
				n.step(ctx, &instrs[i])
			}
			return n
		},
		Meet:  meetStates,
		Equal: statesEqual,
	})
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
