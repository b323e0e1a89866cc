package mir

// This file implements the interprocedural abstract interpretation
// behind the static safety analysis (instrument/staticsafe.go). It
// classifies every check pseudo-op in an instrumented program as
//
//   - SAFE:    the check provably cannot fail (report an error) on any
//              execution — the instrumenter may delete it outright;
//   - UNSAFE:  the check provably reports an error whenever it is
//              reached — kept, but surfaced as a compile-time
//              diagnostic;
//   - UNKNOWN: neither provable — kept.
//
// The abstract domain combines three ingredients:
//
//   - integer value ranges: signed-int64 intervals with ±∞ sentinels,
//     widened on revisits (SolveForward's Widen hook) and refined
//     along branch edges (EdgeTransfer on the OpCmp feeding an OpBr),
//     so provably-bounded loop counters stay finite;
//   - allocation-site provenance: which OpGlobal/OpAlloca/OpMalloc
//     site each pointer may reference (a small sorted site set), with
//     the site's element type and constant extent when known, plus a
//     byte-offset-from-base interval tracked through OpField/OpIndex
//     arithmetic;
//   - abstract bounds registers: what the shadow bounds register of
//     each value register holds — definitely Wide (the interpreter's
//     initial and post-allocation state), a definite site-relative
//     [lo, hi) range established by a provably-successful check, or
//     unknown.
//
// Interprocedural precision is context-insensitive: every function gets
// one entry fact (the join of the abstract arguments over all observed
// call sites, from the analysis roots down the OpCall graph, including
// qsort→comparator edges) and one return summary, iterated to a global
// fixpoint. Intrinsic calls are modelled by the transfer summaries
// exported from package intrinsics (Desc.Abs).
//
// Soundness notes, tied to the interpreter's exact semantics:
//
//   - A bounds fact for register r is *conditional on r holding a
//     tracked site pointer*: "if r points into site s at offset o, the
//     bounds register holds Wide (mayWide) or [s.base+lo, s.base+hi)".
//     The may-null case is excluded from the fact, so checks on
//     possibly-null values only classify against definite-Wide facts.
//   - Temporal safety of a type check is flow-insensitive: a site is
//     "immortal" when no execution can free it before any check
//     (globals always — the runtime refuses to free them; allocas and
//     mallocs only until their provenance leaks into memory, reaches
//     OpFree/OpRealloc/an intrinsic free, escapes through an
//     untracked join, or — for allocas — returns from the defining
//     function, whose frame pop frees them).
//   - Abstract ⊤ pointers can only alias leaked sites (every
//     provenance-losing operation marks its sites leaked), so
//     free(⊤) need only mark leaked sites freed.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/ctypes"
	"repro/internal/intrinsics"
)

// Verdict is the classification of one check site.
type Verdict uint8

// The three check classifications.
const (
	// VerdictUnknown means neither safety nor failure is provable.
	VerdictUnknown Verdict = iota
	// VerdictSafe means the check can never fail on any execution.
	VerdictSafe
	// VerdictUnsafe means the check reports an error whenever reached.
	VerdictUnsafe
)

func (v Verdict) String() string {
	switch v {
	case VerdictSafe:
		return "STATIC-SAFE"
	case VerdictUnsafe:
		return "STATIC-UNSAFE"
	}
	return "UNKNOWN"
}

// CheckVerdict is the classification of the check instruction at
// Blocks[Block].Instrs[Index] of its function, valid for the exact
// program AnalyzeSafety ran on.
type CheckVerdict struct {
	Block, Index int
	Verdict      Verdict
	// Reason is a human-readable justification (used verbatim in the
	// -warn-static compile-time diagnostics for UNSAFE sites).
	Reason string
}

// SafetyResult maps function names to the non-UNKNOWN check verdicts
// found in them. Functions unreachable from the analysis roots have no
// entry and keep all their checks.
type SafetyResult struct {
	Verdicts map[string][]CheckVerdict
}

// AnalyzeSafety runs the interprocedural analysis over p. roots names
// the entry functions (unknown names are ignored); with no valid root
// every function is analysed under unknown (⊤) arguments, which is
// sound but blind to parameter provenance.
func AnalyzeSafety(p *Program, roots []string) *SafetyResult {
	a := newAnalysis(p)
	a.solve(roots)
	return a.classify()
}

// solve iterates the interprocedural fixpoint from roots: entries,
// return summaries and site flags converge, no verdict is recorded.
func (a *analysis) solve(roots []string) {
	var queue []string
	seed := func(name string) {
		f := a.funcs[name]
		if f == nil || f.seeded {
			return
		}
		f.seeded = true
		f.entry = make([]absVal, len(f.f.Params))
		for i := range f.entry {
			f.entry[i] = topVal()
		}
		queue = append(queue, name)
	}
	valid := 0
	for _, r := range roots {
		if a.funcs[r] != nil {
			valid++
		}
	}
	if valid == 0 {
		for name := range a.funcs {
			seed(name)
		}
	} else {
		for _, r := range roots {
			seed(r)
		}
	}
	sort.Strings(queue)
	a.queue = queue

	for len(a.queue) > 0 {
		name := a.queue[0]
		a.queue = a.queue[1:]
		fa := a.funcs[name]
		fa.queued = false
		a.analyze(fa, nil)
	}
}

// classify is the classification replay: every reachable function gets
// one more solve with the converged entries, summaries and site flags,
// and a final in-order walk records the verdicts. The replay may still
// set site flags, but never one that changes a site's immortal() or
// extent (TestReplayKeepsSiteFacts), so the verdicts do not depend on
// the map order the functions are replayed in.
func (a *analysis) classify() *SafetyResult {
	res := &SafetyResult{Verdicts: map[string][]CheckVerdict{}}
	for name, fa := range a.funcs {
		if !fa.seeded {
			continue
		}
		var vs []CheckVerdict
		a.analyze(fa, func(bi, ii int, v Verdict, reason string) {
			if v != VerdictUnknown {
				vs = append(vs, CheckVerdict{Block: bi, Index: ii, Verdict: v, Reason: reason})
			}
		})
		if len(vs) > 0 {
			sort.Slice(vs, func(i, j int) bool {
				if vs[i].Block != vs[j].Block {
					return vs[i].Block < vs[j].Block
				}
				return vs[i].Index < vs[j].Index
			})
			res.Verdicts[name] = vs
		}
	}
	return res
}

// ---------------------------------------------------------------------
// Intervals.

const (
	negInf = math.MinInt64
	posInf = math.MaxInt64
	// bigMag bounds the magnitude interval arithmetic treats as exact:
	// register arithmetic is 64-bit wrapping, so claiming a finite
	// result near the int64 edge could be wrong by 2^64. Anything that
	// would leave ±bigMag degrades to ⊤ instead.
	bigMag = int64(1) << 40
)

type itv struct{ lo, hi int64 }

func topItv() itv          { return itv{negInf, posInf} }
func constItv(c int64) itv { return itv{c, c} }

func (x itv) isConst() bool { return x.lo == x.hi && x.lo != negInf && x.lo != posInf }

// small reports that both ends are either the ±∞ sentinels (which
// arithmetic absorbs) or comfortably below the wrap-risk magnitude.
func (x itv) small() bool {
	okLo := x.lo == negInf || (x.lo >= -bigMag && x.lo <= bigMag)
	okHi := x.hi == posInf || (x.hi >= -bigMag && x.hi <= bigMag)
	return okLo && okHi
}

func (x itv) String() string {
	s := func(v int64) string {
		switch v {
		case negInf:
			return "-inf"
		case posInf:
			return "+inf"
		}
		return fmt.Sprintf("%d", v)
	}
	return s(x.lo) + ".." + s(x.hi)
}

func joinItv(x, y itv) itv {
	if y.lo < x.lo {
		x.lo = y.lo
	}
	if y.hi > x.hi {
		x.hi = y.hi
	}
	return x
}

// widenItv jumps ends that are still moving to ±∞ and keeps stable ones.
func widenItv(prev, next itv) itv {
	w := prev
	if next.lo < prev.lo {
		w.lo = negInf
	}
	if next.hi > prev.hi {
		w.hi = posInf
	}
	return w
}

// satAdd adds with ±∞ absorption and overflow saturation. The -∞
// sentinel dominates +∞, which is the right bias for lower ends; upper
// ends never mix the two in practice (intervals are normalised).
func satAdd(a, b int64) int64 {
	if a == negInf || b == negInf {
		return negInf
	}
	if a == posInf || b == posInf {
		return posInf
	}
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		if a > 0 {
			return posInf
		}
		return negInf
	}
	return s
}

func satNeg(a int64) int64 {
	switch a {
	case negInf:
		return posInf
	case posInf:
		return negInf
	}
	return -a
}

func addItv(x, y itv) itv {
	if !x.small() || !y.small() {
		return topItv()
	}
	return itv{satAdd(x.lo, y.lo), satAdd(x.hi, y.hi)}
}

func subItv(x, y itv) itv {
	return addItv(x, itv{satNeg(y.hi), satNeg(y.lo)})
}

// satMul scales one interval end by a small finite constant, with
// sentinel absorption and overflow saturation.
func satMul(a, c int64) int64 {
	if c == 0 {
		return 0
	}
	if a == negInf || a == posInf {
		if c < 0 {
			return satNeg(a)
		}
		return a
	}
	p := a * c
	if a != 0 && p/c != a {
		if (a > 0) == (c > 0) {
			return posInf
		}
		return negInf
	}
	return p
}

func mulItv(x, y itv) itv {
	if !x.small() || !y.small() {
		return topItv()
	}
	switch {
	case y.isConst():
		return mulConst(x, y.lo)
	case x.isConst():
		return mulConst(y, x.lo)
	}
	// Both ends finite and small: exact corner min/max.
	if x.lo == negInf || x.hi == posInf || y.lo == negInf || y.hi == posInf {
		return topItv()
	}
	lo, hi := int64(posInf), int64(negInf)
	for _, a := range [2]int64{x.lo, x.hi} {
		for _, b := range [2]int64{y.lo, y.hi} {
			p := a * b
			if p < lo {
				lo = p
			}
			if p > hi {
				hi = p
			}
		}
	}
	return itv{lo, hi}
}

// mulConst scales x by a constant c (sign-aware end swap).
func mulConst(x itv, c int64) itv {
	if !x.small() || c < -bigMag || c > bigMag {
		return topItv()
	}
	a, b := satMul(x.lo, c), satMul(x.hi, c)
	if c < 0 {
		a, b = b, a
	}
	return itv{a, b}
}

// itvMax / itvMin are the pointwise interval lift of max/min (both are
// monotone in each argument, so [max(lo,lo'), max(hi,hi')] is exact).
func itvMax(x, y itv) itv {
	r := x
	if y.lo > r.lo {
		r.lo = y.lo
	}
	if y.hi > r.hi {
		r.hi = y.hi
	}
	return r
}

func itvMin(x, y itv) itv {
	r := x
	if y.lo < r.lo {
		r.lo = y.lo
	}
	if y.hi < r.hi {
		r.hi = y.hi
	}
	return r
}

// ---------------------------------------------------------------------
// Abstract values and bounds facts.

// maxSites caps the provenance site set; joins that would exceed it
// mark every involved site leaked and degrade to ⊤.
const maxSites = 4

// siteSet is a sorted set of at most maxSites allocation-site ids, held
// inline so abstract values carry no pointers. Entries past n are zero,
// so == on two sets is set equality.
type siteSet struct {
	n   uint8
	ids [maxSites]int32
}

func oneSite(id int) siteSet { return siteSet{n: 1, ids: [maxSites]int32{int32(id)}} }

// union returns the sorted union of s and t; ok is false when it would
// exceed maxSites.
func (s siteSet) union(t siteSet) (u siteSet, ok bool) {
	i, j := 0, 0
	for i < int(s.n) || j < int(t.n) {
		var id int32
		switch {
		case j == int(t.n) || (i < int(s.n) && s.ids[i] < t.ids[j]):
			id = s.ids[i]
			i++
		case i == int(s.n) || t.ids[j] < s.ids[i]:
			id = t.ids[j]
			j++
		default:
			id = s.ids[i]
			i++
			j++
		}
		if u.n == maxSites {
			return siteSet{}, false
		}
		u.ids[u.n] = id
		u.n++
	}
	return u, true
}

// absVal is the abstract value of one register: either an integer range
// (no sites) or a tracked pointer into one of a small set of allocation
// sites at a byte offset in off (optionally also null).
//
// The stepper keeps values in a normal form the join short-circuits
// rely on: a tracked value's num is ⊤, an untracked value's off is zero
// and mayNull false.
type absVal struct {
	num     itv
	off     itv
	sites   siteSet
	mayNull bool
}

func topVal() absVal           { return absVal{num: topItv()} }
func numVal(x itv) absVal      { return absVal{num: x} }
func (v absVal) tracked() bool { return v.sites.n > 0 }
func (v absVal) isNullConst() bool {
	return !v.tracked() && v.num.lo == 0 && v.num.hi == 0
}

// Abstract bounds-register lattice.
const (
	bndTop   uint8 = iota // unknown contents
	bndWide               // definitely core.Wide
	bndRange              // site-relative [lo, hi), possibly also Wide
)

type absBnd struct {
	kind    uint8
	mayWide bool // bndRange: runtime value may also be Wide
	lo, hi  itv  // bndRange: offsets of Bounds.Lo/Hi from the site base
}

func wideBnd() absBnd { return absBnd{kind: bndWide} }
func topBnd() absBnd  { return absBnd{kind: bndTop} }

func bndsEqual(a, b absBnd) bool {
	if a.kind != b.kind {
		return false
	}
	if a.kind != bndRange {
		return true
	}
	return a.mayWide == b.mayWide && a.lo == b.lo && a.hi == b.hi
}

func joinBnd(a, b absBnd) absBnd {
	if a.kind == bndTop || b.kind == bndTop {
		return topBnd()
	}
	if a.kind == bndWide && b.kind == bndWide {
		return wideBnd()
	}
	if a.kind == bndWide {
		b.mayWide = true
		return b
	}
	if b.kind == bndWide {
		a.mayWide = true
		return a
	}
	return absBnd{kind: bndRange, mayWide: a.mayWide || b.mayWide,
		lo: joinItv(a.lo, b.lo), hi: joinItv(a.hi, b.hi)}
}

func widenBnd(prev, next absBnd) absBnd {
	j := joinBnd(prev, next)
	if j.kind != bndRange || prev.kind != bndRange {
		return j
	}
	j.lo = widenItv(prev.lo, j.lo)
	j.hi = widenItv(prev.hi, j.hi)
	return j
}

// chunkRegs is the number of registers per copy-on-write chunk.
const chunkRegs = 8

// regChunk holds the facts of chunkRegs consecutive registers. It holds
// no pointers, so the GC never scans abstract states.
type regChunk struct {
	vals [chunkRegs]absVal
	bnds [chunkRegs]absBnd
}

// chunkRef is one chunk of a state; own says the state may write the
// chunk in place because no other state refers to it.
type chunkRef struct {
	c   *regChunk
	own bool
}

// absState is the per-program-point fact: one value and one bounds fact
// per register, stored as copy-on-write chunks shared between the
// states derived from one another. Registers past NumRegs in the last
// chunk stay zero.
type absState struct {
	chunks []chunkRef
}

func newAbsState(numRegs int) *absState {
	st := &absState{chunks: make([]chunkRef, (numRegs+chunkRegs-1)/chunkRegs)}
	for i := range st.chunks {
		st.chunks[i] = chunkRef{c: new(regChunk), own: true}
	}
	return st
}

// clone shares every chunk with st and revokes st's ownership, so the
// first write through either state copies the chunk.
func (st *absState) clone() *absState {
	c := &absState{chunks: make([]chunkRef, len(st.chunks))}
	for i := range st.chunks {
		st.chunks[i].own = false
		c.chunks[i].c = st.chunks[i].c
	}
	return c
}

func (st *absState) val(r int) absVal { return st.chunks[r/chunkRegs].c.vals[r%chunkRegs] }
func (st *absState) bnd(r int) absBnd { return st.chunks[r/chunkRegs].c.bnds[r%chunkRegs] }

// writable returns chunk i for writing, copying it first when shared.
func (st *absState) writable(i int) *regChunk {
	ref := &st.chunks[i]
	if !ref.own {
		c := new(regChunk)
		*c = *ref.c
		ref.c, ref.own = c, true
	}
	return ref.c
}

func (st *absState) setVal(r int, v absVal) { st.writable(r / chunkRegs).vals[r%chunkRegs] = v }
func (st *absState) setBnd(r int, b absBnd) { st.writable(r / chunkRegs).bnds[r%chunkRegs] = b }

// ---------------------------------------------------------------------
// Allocation sites.

type siteKind uint8

const (
	siteGlobal siteKind = iota
	siteAlloca
	siteMalloc
)

type siteInfo struct {
	kind siteKind
	fn   string // defining function ("" for globals)
	name string // diagnostic label
	elem *ctypes.Type
	// extent is the allocation size in bytes; -1 when not a unique
	// compile-time constant.
	extent int64
	// Flags accumulated monotonically across the whole analysis.
	leaked   bool // provenance escaped tracking (stored, obscured, ...)
	freed    bool // may reach OpFree/OpRealloc/intrinsic free
	retOwner bool // alloca returned by its own function (frame pop frees it)
}

// immortal reports whether no successful check on the site can ever
// observe it deallocated.
func (s *siteInfo) immortal() bool {
	if s.kind == siteGlobal {
		return true // the runtime refuses to free globals
	}
	return !s.leaked && !s.freed && !s.retOwner
}

// ---------------------------------------------------------------------
// The analysis driver.

type funcAbs struct {
	f   *Func
	cfg *CFG

	seeded     bool
	entry      []absVal // joined abstract arguments
	entryJoins int
	queued     bool

	ret      absVal
	retSet   bool
	retJoins int

	callers map[string]bool
	// branch[b] describes the comparison feeding block b's terminating
	// OpBr, when refinable; nil otherwise.
	branch []*branchFact
}

type branchFact struct {
	kind    CmpKind
	ra, rb  int
	to, els int
}

type analysis struct {
	prog  *Program
	funcs map[string]*funcAbs

	sites      []*siteInfo
	globalSite []int            // prog.Globals index -> site id
	instrSite  map[instrPos]int // allocating instruction -> site id

	queue []string
}

// instrPos names the instruction Blocks[block].Instrs[index] of f.
type instrPos struct {
	f            *Func
	block, index int
}

func newAnalysis(p *Program) *analysis {
	a := &analysis{
		prog:      p,
		funcs:     map[string]*funcAbs{},
		instrSite: map[instrPos]int{},
	}
	a.globalSite = make([]int, len(p.Globals))
	for i, g := range p.Globals {
		a.globalSite[i] = len(a.sites)
		ext := int64(g.Count) * g.Type.Size()
		a.sites = append(a.sites, &siteInfo{
			kind: siteGlobal, name: "global '" + g.Name + "'",
			elem: g.Type, extent: ext,
		})
	}
	for name, f := range p.Funcs {
		fa := &funcAbs{f: f, cfg: NewCFG(f), callers: map[string]bool{}}
		fa.branch = findBranchFacts(f)
		a.funcs[name] = fa
	}
	return a
}

// siteFor interns the allocation site of the instruction at (f, bi, ii).
func (a *analysis) siteFor(k siteKind, f *Func, bi, ii int, elem *ctypes.Type, extent int64) int {
	key := instrPos{f, bi, ii}
	if id, ok := a.instrSite[key]; ok {
		s := a.sites[id]
		if extent != s.extent {
			s.extent = -1 // same site, differing sizes across contexts
		}
		return id
	}
	id := len(a.sites)
	a.instrSite[key] = id
	what := "alloca"
	if k == siteMalloc {
		what = "malloc"
	}
	a.sites = append(a.sites, &siteInfo{
		kind: k, fn: f.Name,
		name: fmt.Sprintf("%s in %s (block %d)", what, f.Name, bi),
		elem: elem, extent: extent,
	})
	return id
}

func (a *analysis) leakSites(s siteSet) {
	for i := 0; i < int(s.n); i++ {
		a.sites[s.ids[i]].leaked = true
	}
}

func (a *analysis) freeSites(s siteSet) {
	for i := 0; i < int(s.n); i++ {
		if site := a.sites[s.ids[i]]; site.kind != siteGlobal {
			site.freed = true
		}
	}
}

// freeUnknown models free/realloc of an untracked pointer: ⊤ values can
// only alias leaked sites, so only those can be freed.
func (a *analysis) freeUnknown() {
	for _, s := range a.sites {
		if s.leaked && s.kind != siteGlobal {
			s.freed = true
		}
	}
}

func (a *analysis) joinVal(x, y absVal) absVal {
	switch {
	case x.tracked() && y.tracked():
		u, ok := x.sites.union(y.sites)
		if !ok {
			a.leakSites(x.sites)
			a.leakSites(y.sites)
			return topVal()
		}
		return absVal{num: topItv(), sites: u, off: joinItv(x.off, y.off),
			mayNull: x.mayNull || y.mayNull}
	case x.tracked():
		if y.isNullConst() {
			x.mayNull = true
			return x
		}
		a.leakSites(x.sites)
		return topVal()
	case y.tracked():
		if x.isNullConst() {
			y.mayNull = true
			return y
		}
		a.leakSites(y.sites)
		return topVal()
	default:
		return numVal(joinItv(x.num, y.num))
	}
}

func (a *analysis) widenVal(prev, next absVal) absVal {
	j := a.joinVal(prev, next)
	if j.tracked() && prev.tracked() {
		j.off = widenItv(prev.off, j.off)
	} else if !j.tracked() && !prev.tracked() {
		j.num = widenItv(prev.num, j.num)
	}
	return j
}

// joinState, widenState and statesEq skip every chunk the two states
// share and every register whose value and bounds are equal, and the
// operators copy a chunk only to write a result that differs from the
// state they start from. The skip is exact: on equal normal-form
// operands joinVal/joinBnd and widenVal/widenBnd return the operand
// itself and leak or free no site, so the skipped work would neither
// change the result nor move a site flag.

func (a *analysis) joinState(x, y *absState) *absState {
	out := x.clone()
	for ci, yr := range y.chunks {
		xc, yc := x.chunks[ci].c, yr.c
		if xc == yc {
			continue
		}
		for k := range xc.vals {
			xv, yv := xc.vals[k], yc.vals[k]
			if xv == yv && xc.bnds[k] == yc.bnds[k] {
				continue
			}
			v := a.joinVal(xv, yv)
			b := topBnd()
			// A join that loses provenance invalidates the site-relative
			// bounds pairing; degrade to ⊤ rather than carry a range whose
			// base register no longer certainly points at the base site.
			if v.tracked() || !xv.tracked() || !yv.tracked() {
				b = joinBnd(xc.bnds[k], yc.bnds[k])
			}
			if v != xv || b != xc.bnds[k] {
				oc := out.writable(ci)
				oc.vals[k], oc.bnds[k] = v, b
			}
		}
	}
	return out
}

// widenState widens prev by next, register by register.
func (a *analysis) widenState(prev, next *absState) *absState {
	out := next.clone()
	for ci, nr := range next.chunks {
		pc, nc := prev.chunks[ci].c, nr.c
		if pc == nc {
			continue
		}
		for k := range pc.vals {
			if pc.vals[k] == nc.vals[k] && pc.bnds[k] == nc.bnds[k] {
				continue
			}
			v, b := a.widenVal(pc.vals[k], nc.vals[k]), widenBnd(pc.bnds[k], nc.bnds[k])
			if v != nc.vals[k] || b != nc.bnds[k] {
				oc := out.writable(ci)
				oc.vals[k], oc.bnds[k] = v, b
			}
		}
	}
	return out
}

func statesEq(x, y *absState) bool {
	for ci, xr := range x.chunks {
		xc, yc := xr.c, y.chunks[ci].c
		if xc == yc || *xc == *yc {
			continue
		}
		for k := range xc.vals {
			if xc.vals[k] != yc.vals[k] || !bndsEqual(xc.bnds[k], yc.bnds[k]) {
				return false
			}
		}
	}
	return true
}

// joinEntry merges call-site arguments into the callee's entry fact,
// returning whether it grew. Widening kicks in after repeated growth so
// recursive cycles terminate.
func (a *analysis) joinEntry(fa *funcAbs, args []absVal) bool {
	if !fa.seeded {
		fa.seeded = true
		fa.entry = make([]absVal, len(fa.f.Params))
		for i := range fa.entry {
			if i < len(args) {
				fa.entry[i] = args[i]
			} else {
				fa.entry[i] = topVal()
			}
		}
		return true
	}
	changed := false
	for i := range fa.entry {
		var arg absVal
		if i < len(args) {
			arg = args[i]
		} else {
			arg = topVal()
		}
		var next absVal
		if fa.entryJoins >= 8 {
			next = a.widenVal(fa.entry[i], arg)
		} else {
			next = a.joinVal(fa.entry[i], arg)
		}
		if fa.entry[i] != next {
			fa.entry[i] = next
			changed = true
		}
	}
	if changed {
		fa.entryJoins++
	}
	return changed
}

func (a *analysis) joinRet(fa *funcAbs, v absVal) bool {
	if !fa.retSet {
		fa.retSet = true
		fa.ret = v
		return true
	}
	var next absVal
	if fa.retJoins >= 8 {
		next = a.widenVal(fa.ret, v)
	} else {
		next = a.joinVal(fa.ret, v)
	}
	if fa.ret == next {
		return false
	}
	fa.ret = next
	fa.retJoins++
	return true
}

func (a *analysis) enqueue(name string) {
	fa := a.funcs[name]
	if fa == nil || fa.queued {
		return
	}
	fa.queued = true
	a.queue = append(a.queue, name)
}

// analyze solves one function intraprocedurally. Call-edge side effects
// (entry joins, summary joins, site flags) feed the interprocedural
// fixpoint; when classify is non-nil a final in-order sweep reports
// check verdicts from the solved states.
func (a *analysis) analyze(fa *funcAbs, classify func(bi, ii int, v Verdict, reason string)) {
	st := &stepper{a: a, fa: fa}
	prob := ForwardProblem[*absState]{
		Entry: st.entryState,
		Transfer: func(b int, in *absState) *absState {
			out := in.clone()
			for ii := range fa.f.Blocks[b].Instrs {
				st.step(out, b, ii, &fa.f.Blocks[b].Instrs[ii], nil)
			}
			return out
		},
		Meet:         a.joinState,
		Equal:        statesEq,
		EdgeTransfer: st.refineEdge,
		Widen:        a.widenState,
	}
	in, solved := SolveForward(fa.cfg, prob)
	if classify == nil {
		return
	}
	// Narrowing. The solver widens in[b] on every revisit past the
	// threshold, which erases the loop-guard edge refinement: the body's
	// i ∈ [0, n) re-widens to [0, +inf) the moment the back edge grows
	// it, and stays there. Two decreasing passes re-apply
	// Transfer+EdgeTransfer to the solved states; each pass maps a sound
	// over-approximation to a sound over-approximation (every transfer
	// over-approximates concrete execution), so the narrowed states stay
	// valid for classification while recovering the guard-bounded loop
	// indices that widening overshot.
	for pass := 0; pass < 2; pass++ {
		next := make([]*absState, len(in))
		for bi := range fa.f.Blocks {
			if !solved[bi] || bi == 0 {
				continue
			}
			var acc *absState
			for _, pr := range fa.cfg.Preds[bi] {
				if !solved[pr] {
					continue
				}
				o := prob.EdgeTransfer(pr, bi, prob.Transfer(pr, in[pr]))
				if acc == nil {
					acc = o
				} else {
					acc = prob.Meet(acc, o)
				}
			}
			next[bi] = acc
		}
		for bi, st := range next {
			if st != nil {
				in[bi] = st
			}
		}
	}
	for bi := range fa.f.Blocks {
		if !solved[bi] {
			continue
		}
		cur := in[bi].clone()
		for ii := range fa.f.Blocks[bi].Instrs {
			st.step(cur, bi, ii, &fa.f.Blocks[bi].Instrs[ii], classify)
		}
	}
}

// ---------------------------------------------------------------------
// The transfer function.

type stepper struct {
	a  *analysis
	fa *funcAbs
	// args is stepCall's scratch buffer for abstract call arguments.
	args []absVal
}

func (s *stepper) entryState() *absState {
	n := s.fa.f.NumRegs
	st := newAbsState(n)
	for i := 0; i < n; i++ {
		// Frame registers start zeroed; every bounds register starts
		// Wide (the interpreter's init state).
		st.setVal(i, numVal(constItv(0)))
		st.setBnd(i, wideBnd())
	}
	for i := range s.fa.f.Params {
		if i < len(s.fa.entry) {
			st.setVal(i, s.fa.entry[i])
		} else {
			st.setVal(i, topVal())
		}
	}
	return st
}

// leakUsed marks the provenance of every used register leaked — the
// default for instructions the stepper does not model.
func (s *stepper) leakUsed(st *absState, ins *Instr) {
	uses, _ := ins.Regs()
	for _, r := range uses {
		if r >= 0 {
			s.a.leakSites(st.val(r).sites)
		}
	}
}

func (s *stepper) setDef(st *absState, dst int, v absVal, b absBnd) {
	if dst < 0 {
		return
	}
	st.setVal(dst, v)
	st.setBnd(dst, b)
}

func (s *stepper) step(st *absState, bi, ii int, ins *Instr, classify func(int, int, Verdict, string)) {
	a := s.a
	switch ins.Op {
	case OpNop, OpPrint, OpPuts, OpJmp, OpBr:

	case OpConst:
		// The interpreter leaves the stale bounds register in place on
		// value-only defs; ⊤ is the sound abstraction of "stale".
		s.setDef(st, ins.Dst, numVal(constItv(ins.Imm)), topBnd())

	case OpMov:
		s.setDef(st, ins.Dst, st.val(ins.A), st.bnd(ins.A))

	case OpBin:
		s.setDef(st, ins.Dst, s.binVal(st, ins), topBnd())

	case OpCmp, OpNot:
		s.setDef(st, ins.Dst, numVal(itv{0, 1}), topBnd())

	case OpCast:
		v := st.val(ins.A)
		if v.tracked() && ins.Type != nil && scalarWidth(ins.Type) < 8 {
			// Truncation garbles the address; the bits may still let a
			// crafted program reach the site, so treat as a leak.
			a.leakSites(v.sites)
			v = topVal()
		} else if !v.tracked() {
			v = numVal(castItv(v.num, ins.Type))
		}
		// The interpreter propagates the bounds register on every cast.
		s.setDef(st, ins.Dst, v, st.bnd(ins.A))

	case OpGlobal:
		id := a.globalSite[ins.Aux]
		s.setDef(st, ins.Dst,
			absVal{num: topItv(), sites: oneSite(id), off: constItv(0)}, wideBnd())

	case OpAlloca:
		ext := ins.Aux * ins.Type.Size()
		id := a.siteFor(siteAlloca, s.fa.f, bi, ii, ins.Type, ext)
		s.setDef(st, ins.Dst,
			absVal{num: topItv(), sites: oneSite(id), off: constItv(0)}, wideBnd())

	case OpMalloc:
		if ins.Aux == MallocLegacy {
			s.setDef(st, ins.Dst, topVal(), wideBnd())
			return
		}
		ext := int64(-1)
		if sz := st.val(ins.A); !sz.tracked() && sz.num.isConst() && sz.num.lo >= 0 {
			ext = sz.num.lo
		}
		id := a.siteFor(siteMalloc, s.fa.f, bi, ii, ins.Type, ext)
		s.setDef(st, ins.Dst,
			absVal{num: topItv(), sites: oneSite(id), off: constItv(0)}, wideBnd())

	case OpFree:
		if v := st.val(ins.A); v.tracked() {
			a.freeSites(v.sites)
		} else {
			a.freeUnknown()
		}

	case OpRealloc:
		if v := st.val(ins.A); v.tracked() {
			a.freeSites(v.sites)
		} else {
			a.freeUnknown()
		}
		s.setDef(st, ins.Dst, topVal(), wideBnd())

	case OpLoad:
		s.setDef(st, ins.Dst, topVal(), wideBnd())

	case OpStore:
		if v := st.val(ins.B); v.tracked() {
			a.leakSites(v.sites)
		}

	case OpField:
		v := st.val(ins.A)
		if v.tracked() {
			v.off = addItv(v.off, constItv(ins.Aux))
		} else {
			v.num = addItv(v.num, constItv(ins.Aux))
		}
		s.setDef(st, ins.Dst, v, st.bnd(ins.A))

	case OpIndex:
		v := st.val(ins.A)
		idx := st.val(ins.B)
		scaled := topItv()
		if !idx.tracked() {
			scaled = mulConst(idx.num, ins.Type.Size())
		}
		if v.tracked() {
			v.off = addItv(v.off, scaled)
		} else {
			v.num = addItv(v.num, scaled)
		}
		s.setDef(st, ins.Dst, v, st.bnd(ins.A))

	case OpMemcpy, OpMemset:
		// Byte-level memory traffic; register provenance is unaffected
		// (pointer values inside the copied bytes were leaked when
		// stored).

	case OpCall:
		s.stepCall(st, ins)

	case OpRet:
		if ins.A >= 0 {
			v := st.val(ins.A)
			if v.tracked() {
				for i := 0; i < int(v.sites.n); i++ {
					site := a.sites[v.sites.ids[i]]
					if site.kind == siteAlloca && site.fn == s.fa.f.Name {
						site.retOwner = true
					}
				}
			}
			if a.joinRet(s.fa, v) {
				for c := range s.fa.callers {
					a.enqueue(c)
				}
			}
		}

	case OpTypeCheck:
		verdict, reason, nb := s.classifyTypeCheck(st, ins)
		if classify != nil {
			classify(bi, ii, verdict, reason)
		}
		st.setBnd(ins.A, nb)

	case OpBoundsGet:
		st.setBnd(ins.A, s.boundsGetFact(st.val(ins.A)))

	case OpBoundsNarrow:
		st.setBnd(ins.A, s.narrowFact(st.val(ins.A), st.bnd(ins.A), ins.Aux))

	case OpBoundsCheck:
		if classify != nil {
			v, reason := s.classifyBoundsCheck(st, ins)
			classify(bi, ii, v, reason)
		}

	case OpEscapeCheck:
		if classify != nil {
			v, reason := s.classifyEscapeCheck(st, ins)
			classify(bi, ii, v, reason)
		}

	case OpBoundsMov:
		// bounds[A] = bounds[B]: the copied range is relative to B's
		// value, which we cannot re-relate to A's provenance here.
		st.setBnd(ins.A, topBnd())

	default:
		// Unmodelled (record ops and future extensions): drop all
		// knowledge derivable from the instruction, soundly.
		s.leakUsed(st, ins)
		_, defs := ins.Regs()
		for _, d := range defs {
			if d >= 0 {
				s.setDef(st, d, topVal(), topBnd())
			}
		}
	}
}

func (s *stepper) binVal(st *absState, ins *Instr) absVal {
	if ins.Type != nil && ins.Type.IsFloat() {
		return topVal()
	}
	x, y := st.val(ins.A), st.val(ins.B)
	k := BinKind(ins.Aux)
	// Pointer ± integer keeps provenance; everything else involving a
	// tracked pointer obscures the address.
	if x.tracked() || y.tracked() {
		switch {
		case k == BinAdd && x.tracked() && !y.tracked():
			x.off = addItv(x.off, y.num)
			return x
		case k == BinAdd && y.tracked() && !x.tracked():
			y.off = addItv(y.off, x.num)
			return y
		case k == BinSub && x.tracked() && !y.tracked():
			x.off = subItv(x.off, y.num)
			return x
		default:
			if x.tracked() {
				s.a.leakSites(x.sites)
			}
			if y.tracked() {
				s.a.leakSites(y.sites)
			}
			return topVal()
		}
	}
	switch k {
	case BinAdd:
		return numVal(addItv(x.num, y.num))
	case BinSub:
		return numVal(subItv(x.num, y.num))
	case BinMul:
		return numVal(mulItv(x.num, y.num))
	case BinRem:
		// Non-negative dividend, positive constant divisor: [0, c-1].
		if y.num.isConst() && y.num.lo > 0 && x.num.lo >= 0 {
			return numVal(itv{0, y.num.lo - 1})
		}
	}
	return topVal()
}

func castItv(x itv, to *ctypes.Type) itv {
	if to == nil || to.IsFloat() {
		return topItv()
	}
	w := scalarWidth(to)
	if w >= 8 {
		return x // identity on the 64-bit register
	}
	if to.IsSigned() {
		min, max := -(int64(1) << (8*w - 1)), int64(1)<<(8*w-1)-1
		if x.lo >= min && x.hi <= max {
			return x
		}
		return itv{min, max}
	}
	max := int64(1)<<(8*w) - 1
	if x.lo >= 0 && x.hi <= max {
		return x
	}
	return itv{0, max}
}

// extents summarises the provenance sites of v: the least and greatest
// possible allocation extent, whether all extents are known constants,
// whether all sites are immortal, and the common element type (nil when
// the sites disagree).
func (s *stepper) extents(v absVal) (minE, maxE int64, known, immortal bool, elem *ctypes.Type) {
	known, immortal = true, true
	minE, maxE = posInf, negInf
	for i := 0; i < int(v.sites.n); i++ {
		site := s.a.sites[v.sites.ids[i]]
		if site.extent < 0 {
			known = false
		} else {
			if site.extent < minE {
				minE = site.extent
			}
			if site.extent > maxE {
				maxE = site.extent
			}
		}
		if !site.immortal() {
			immortal = false
		}
		if i == 0 {
			elem = site.elem
		} else if elem != site.elem {
			elem = nil
		}
	}
	return minE, maxE, known, immortal, elem
}

func (s *stepper) boundsGetFact(v absVal) absBnd {
	if !v.tracked() {
		return topBnd()
	}
	minE, maxE, known, immortal, _ := s.extents(v)
	if !known || !immortal {
		// Mortal sites get no extent fact: BoundsGet reads the *current*
		// metadata size word, and a freed slot reused by a smaller
		// same-class allocation returns narrower bounds than the original
		// extent — a stale-pointer access the narrower bounds would catch
		// must keep its check.
		return topBnd()
	}
	// BoundsGet never reports: allocation bounds for typed pointers,
	// Wide for null/legacy/unknown metadata.
	return absBnd{kind: bndRange, mayWide: v.mayNull,
		lo: constItv(0), hi: itv{minE, maxE}}
}

func (s *stepper) narrowFact(v absVal, b absBnd, extent int64) absBnd {
	if !v.tracked() || b.kind == bndTop {
		return topBnd()
	}
	span := constItv(extent)
	if b.kind == bndWide {
		// Intersect(Wide, [p, p+extent)) = [p, p+extent) exactly.
		return absBnd{kind: bndRange, lo: v.off, hi: addItv(v.off, span)}
	}
	lo := itvMax(b.lo, v.off)
	hi := itvMin(b.hi, addItv(v.off, span))
	if b.mayWide {
		// The Wide possibility narrows to exactly [p, p+extent).
		lo = joinItv(lo, v.off)
		hi = joinItv(hi, addItv(v.off, span))
	}
	// Empty intersections collapse to zero width at the later Lo.
	hi = itvMax(hi, lo)
	return absBnd{kind: bndRange, lo: lo, hi: hi}
}

// checkSize returns the access size interval of a bounds check (static
// Aux or dynamic register B).
func (s *stepper) checkSize(st *absState, ins *Instr) itv {
	if ins.B >= 0 {
		if v := st.val(ins.B); !v.tracked() {
			return v.num
		}
		return topItv()
	}
	return constItv(ins.Aux)
}

func (s *stepper) classifyBoundsCheck(st *absState, ins *Instr) (Verdict, string) {
	b := st.bnd(ins.A)
	if b.kind == bndWide {
		return VerdictSafe, "bounds register is provably wide"
	}
	v := st.val(ins.A)
	if b.kind != bndRange || !v.tracked() || v.mayNull {
		return VerdictUnknown, ""
	}
	sz := s.checkSize(st, ins)
	// SAFE: every possible offset/size fits every possible range (Wide
	// possibilities always pass).
	if v.off.lo != negInf && v.off.lo >= b.lo.hi &&
		satAdd(v.off.hi, sz.hi) <= b.hi.lo {
		return VerdictSafe, fmt.Sprintf(
			"access %s+%s always within bounds [%s,%s)", v.off, sz, b.lo, b.hi)
	}
	// UNSAFE: the range is definite and every offset/size escapes it.
	if !b.mayWide && v.sites.n == 1 &&
		(v.off.hi < b.lo.lo || v.off.hi != posInf && satAdd(v.off.lo, sz.lo) > b.hi.hi) {
		return VerdictUnsafe, fmt.Sprintf(
			"access at offset %s (size %s) always outside bounds [%s,%s) of %s",
			v.off, sz, b.lo, b.hi, s.a.sites[v.sites.ids[0]].name)
	}
	return VerdictUnknown, ""
}

func (s *stepper) classifyEscapeCheck(st *absState, ins *Instr) (Verdict, string) {
	b := st.bnd(ins.A)
	if b.kind == bndWide {
		return VerdictSafe, "bounds register is provably wide"
	}
	v := st.val(ins.A)
	if b.kind != bndRange || !v.tracked() || v.mayNull {
		return VerdictUnknown, ""
	}
	if v.off.lo != negInf && v.off.lo >= b.lo.hi &&
		v.off.hi != posInf && v.off.hi <= b.hi.lo {
		return VerdictSafe, fmt.Sprintf(
			"escaping pointer offset %s always within [%s,%s]", v.off, b.lo, b.hi)
	}
	if !b.mayWide && v.sites.n == 1 &&
		(v.off.hi < b.lo.lo || v.off.lo != negInf && v.off.lo > b.hi.hi) {
		return VerdictUnsafe, fmt.Sprintf(
			"escaping pointer offset %s always outside [%s,%s] of %s",
			v.off, b.lo, b.hi, s.a.sites[v.sites.ids[0]].name)
	}
	return VerdictUnknown, ""
}

// coercible reports whether a static check type succeeds against any
// dynamic type at any in-bounds offset (the runtime's char/void
// coercion rule).
func coercible(t *ctypes.Type) bool {
	switch t.Kind {
	case ctypes.KindChar, ctypes.KindSChar, ctypes.KindUChar, ctypes.KindVoid:
		return true
	}
	return false
}

func (s *stepper) classifyTypeCheck(st *absState, ins *Instr) (Verdict, string, absBnd) {
	v := st.val(ins.A)
	if !v.tracked() {
		return VerdictUnknown, "", topBnd()
	}
	minE, maxE, known, immortal, elem := s.extents(v)
	if !known {
		return VerdictUnknown, "", topBnd()
	}
	// UNSAFE: the pointer is always outside its (single, live-or-not)
	// allocation, so the trivial prefix reports on every execution
	// (below-base or beyond-extent, or use-after-free first — either
	// way a report).
	if v.sites.n == 1 && !v.mayNull {
		if v.off.hi < 0 {
			return VerdictUnsafe, fmt.Sprintf(
					"pointer always %s bytes before %s", v.off, s.a.sites[v.sites.ids[0]].name),
				wideBnd() // errors return Wide
		}
		if v.off.lo != negInf && v.off.lo > minE {
			return VerdictUnsafe, fmt.Sprintf(
				"pointer offset %s always beyond the %d-byte extent of %s",
				v.off, minE, s.a.sites[v.sites.ids[0]].name), wideBnd()
		}
	}
	if !immortal {
		return VerdictUnknown, "", topBnd()
	}
	// SAFE case 1: char/void coercion succeeds at any offset within
	// [0, extent] (one-past-the-end included by the runtime).
	if coercible(ins.Type) && v.off.lo >= 0 && v.off.hi != posInf && v.off.hi <= minE {
		return VerdictSafe,
			fmt.Sprintf("%s coercion at in-bounds offset %s", ins.Type, v.off),
			s.typeCheckOKBnd(v, minE, maxE)
	}
	// SAFE case 2: exact match — offset exactly 0 and the static type
	// is the sites' element type. Success is memo-independent, and so
	// are the resulting bounds: the memo-gated fast path returns the
	// allocation directly, and the layout cascade maps (t, t, 0) to the
	// unbounded containing-array entry, which clips to the same
	// allocation (core/runtime.go, typeCheckTrivial). The post-check
	// fact therefore spans the whole allocation.
	if v.off.lo == 0 && v.off.hi == 0 && elem != nil && elem == ins.Type {
		return VerdictSafe,
			fmt.Sprintf("monomorphic %s check at offset 0", ins.Type),
			s.typeCheckOKBnd(v, minE, maxE)
	}
	return VerdictUnknown, "", topBnd()
}

// typeCheckOKBnd is the bounds fact after a provably-successful type
// check: upper end somewhere in [hiMin, hiMax] (allocation vs element
// bounds), lower end 0, Wide when the value was null.
func (s *stepper) typeCheckOKBnd(v absVal, hiMin, hiMax int64) absBnd {
	return absBnd{kind: bndRange, mayWide: v.mayNull,
		lo: constItv(0), hi: itv{hiMin, hiMax}}
}

// stepCall models OpCall: program callees join the interprocedural
// entry/summary facts; intrinsics use their package intrinsics
// transfer summaries.
func (s *stepper) stepCall(st *absState, ins *Instr) {
	a := s.a
	if callee := a.funcs[ins.Callee]; callee != nil {
		s.args = s.args[:0]
		for _, r := range ins.Args {
			s.args = append(s.args, st.val(r))
		}
		callee.callers[s.fa.f.Name] = true
		if a.joinEntry(callee, s.args) {
			a.enqueue(ins.Callee)
		}
		// No return summary yet: either the callee never returns or the
		// fixpoint has not reached it. ⊥ would be precise at
		// convergence; ⊤ is sound either way.
		ret := topVal()
		if callee.retSet {
			ret = callee.ret
		}
		s.setDef(st, ins.Dst, ret, wideBnd())
		return
	}
	d := intrinsics.Lookup(ins.Callee)
	if d == nil {
		// Unknown callee: the interpreter would fault; nothing to model
		// beyond dropping knowledge about the arguments.
		for _, r := range ins.Args {
			a.leakSites(st.val(r).sites)
		}
		s.setDef(st, ins.Dst, topVal(), wideBnd())
		return
	}
	for _, idx := range d.Abs.FreesArgs {
		if idx < len(ins.Args) {
			if v := st.val(ins.Args[idx]); v.tracked() {
				a.freeSites(v.sites)
			} else {
				a.freeUnknown()
			}
		}
	}
	if d.NeedsCmp && ins.Str != "" {
		if cmp := a.funcs[ins.Str]; cmp != nil {
			// The comparator receives raw element pointers into the
			// base argument: same provenance, offset anywhere from the
			// base upward.
			elemArgs := make([]absVal, len(cmp.f.Params))
			base := topVal()
			if d.Abs.CmpElemArg < len(ins.Args) {
				base = st.val(ins.Args[d.Abs.CmpElemArg])
			}
			if base.tracked() {
				base.off = itv{base.off.lo, posInf}
				base.mayNull = false
			}
			for i := range elemArgs {
				elemArgs[i] = base
			}
			cmp.callers[s.fa.f.Name] = true
			if a.joinEntry(cmp, elemArgs) {
				a.enqueue(ins.Str)
			}
		}
	}
	ret := topVal()
	if d.Abs.RetNonNeg {
		ret = numVal(itv{0, posInf})
	}
	s.setDef(st, ins.Dst, ret, wideBnd())
}

// ---------------------------------------------------------------------
// Branch refinement.

// findBranchFacts extracts, per block, the signed-integer OpCmp feeding
// the block's terminating OpBr, provided neither the condition nor the
// compared registers are redefined between the compare and the branch.
func findBranchFacts(f *Func) []*branchFact {
	facts := make([]*branchFact, len(f.Blocks))
	for bi, b := range f.Blocks {
		n := len(b.Instrs)
		if n == 0 {
			continue
		}
		term := &b.Instrs[n-1]
		if term.Op != OpBr || term.To == term.Else {
			continue
		}
		lastDef := map[int]int{}
		for ii := range b.Instrs {
			_, defs := b.Instrs[ii].Regs()
			for _, d := range defs {
				if d >= 0 {
					lastDef[d] = ii
				}
			}
		}
		ci, ok := lastDef[term.A]
		if !ok {
			continue
		}
		cmp := &b.Instrs[ci]
		if cmp.Op != OpCmp || cmp.Type == nil ||
			!cmp.Type.IsInteger() || !cmp.Type.IsSigned() {
			continue
		}
		if lastDef[cmp.A] > ci || lastDef[cmp.B] > ci {
			continue
		}
		facts[bi] = &branchFact{kind: CmpKind(cmp.Aux), ra: cmp.A, rb: cmp.B,
			to: term.To, els: term.Else}
	}
	return facts
}

func negateCmp(k CmpKind) CmpKind {
	switch k {
	case CmpEq:
		return CmpNe
	case CmpNe:
		return CmpEq
	case CmpLt:
		return CmpGe
	case CmpLe:
		return CmpGt
	case CmpGt:
		return CmpLe
	case CmpGe:
		return CmpLt
	}
	return k
}

func (s *stepper) refineEdge(from, to int, out *absState) *absState {
	bf := s.fa.branch[from]
	if bf == nil {
		return out
	}
	k := bf.kind
	switch to {
	case bf.to:
	case bf.els:
		k = negateCmp(k)
	default:
		return out
	}
	va, vb := out.val(bf.ra), out.val(bf.rb)
	if va.tracked() || vb.tracked() {
		return out
	}
	na, nb := refineCmp(k, va.num, vb.num)
	if na == va.num && nb == vb.num {
		return out
	}
	ref := out.clone()
	ref.setVal(bf.ra, absVal{num: na, mayNull: va.mayNull})
	ref.setVal(bf.rb, absVal{num: nb, mayNull: vb.mayNull})
	return ref
}

// refineCmp narrows the operand intervals of "a <k> b" assuming it
// evaluated true. Empty results (unreachable edges) are left unshrunk —
// dropping the refinement is always sound.
func refineCmp(k CmpKind, a, b itv) (itv, itv) {
	clamp := func(x itv) (itv, bool) {
		if x.lo > x.hi {
			return x, false
		}
		return x, true
	}
	switch k {
	case CmpEq:
		m := itv{a.lo, a.hi}
		if b.lo > m.lo {
			m.lo = b.lo
		}
		if b.hi < m.hi {
			m.hi = b.hi
		}
		if m.lo <= m.hi {
			return m, m
		}
	case CmpNe:
		na, nb := a, b
		if b.isConst() {
			if na.lo == b.lo && na.lo != posInf {
				na.lo++
			}
			if na.hi == b.lo && na.hi != negInf {
				na.hi--
			}
		}
		if a.isConst() {
			if nb.lo == a.lo && nb.lo != posInf {
				nb.lo++
			}
			if nb.hi == a.lo && nb.hi != negInf {
				nb.hi--
			}
		}
		if na.lo <= na.hi && nb.lo <= nb.hi {
			return na, nb
		}
	case CmpLt:
		na := itv{a.lo, min64(a.hi, satAdd(b.hi, -1))}
		nb := itv{max64(b.lo, satAdd(a.lo, 1)), b.hi}
		if na, ok := clamp(na); ok {
			if nb, ok2 := clamp(nb); ok2 {
				return na, nb
			}
		}
	case CmpLe:
		na := itv{a.lo, min64(a.hi, b.hi)}
		nb := itv{max64(b.lo, a.lo), b.hi}
		if na, ok := clamp(na); ok {
			if nb, ok2 := clamp(nb); ok2 {
				return na, nb
			}
		}
	case CmpGt:
		nb, na := refineCmp(CmpLt, b, a)
		return na, nb
	case CmpGe:
		nb, na := refineCmp(CmpLe, b, a)
		return na, nb
	}
	return a, b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
