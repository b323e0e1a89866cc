package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ctypes"
)

// This file implements the EpochChecks execution mode (DoubleTake-style
// evidence-based checking): instead of resolving every type/bounds check
// synchronously (~the paper's full per-check cost), the hot path only
// appends compact evidence — a record-time snapshot of everything the
// check needs — into a per-view append-only log, and a batch validator
// replays the log at epoch boundaries (quarantine eviction, magazine
// flush, worker retirement, program exit, an event-count cap, or an
// explicit RequestEpoch).
//
// # Evidence handles
//
// A deferred type check must still produce "bounds" for downstream
// bounds/escape checks and narrows. It returns an evidence *handle*: a
// sentinel Bounds value whose Lo is an improbable tag and whose Hi is a
// 1-based index into the log's provenance-chain nodes. The interpreter
// and the intrinsics only ever *copy* bounds registers; every
// computation on Bounds happens inside Runtime methods, each of which
// recognises handles — so the handle flows through mov/field/index
// copies, the bounds register file and the intrinsics' Ctx.Bounds
// without any changes outside this package. A handle never equals Wide
// (its tag is nonzero), so wideness tests on the propagation paths keep
// working.
//
// # Snapshot completeness ⇒ detection parity
//
// Every mutable input of a check is captured at record time: the checked
// pointer, the static type, the container's dynamic type/id/base/size
// (one header load — cheap), and for bounds events the access pointer's
// own container (for the report's dynamic-type bucket). Validation is
// then a pure function of (evidence, immutable layout tables, type
// registry), so *when* an epoch fires cannot change what is detected:
// bucket kinds, counts and offsets are identical to precise mode by
// construction. Only report *location* coarsens — issues surface at the
// sweep, so first-seen ordering and FirstSite attribution may differ.
// That is the documented epoch contract, pinned by tests and by the
// difftest oracle (whose signatures already exclude ordering).
//
// # Chain nodes vs events
//
// The log is two arenas. `nodes` hold provenance chains (type-check
// snapshots and narrows); they are memoized on first resolution and
// persist across mid-run sweeps, because live registers may still hold
// handles into them — e.g. a check the §5.3 motion pass hoisted out of a
// loop whose body then forces an epoch. `events` are the pending checks
// themselves; each validates exactly once and the slice is cleared per
// sweep. EpochFlush — the end-of-run boundary, where no register can be
// live — also releases the nodes.

// epochTag marks a Bounds value as an evidence handle. Simulated
// addresses top out near the legacy region (≈2^41); the tag sits far
// above, and real bounds never reach it because every Lo is either 0 or
// an address.
const epochTag uint64 = 0xEF5E_C7ED << 32

// defaultEpochCap bounds pending events per view before a sweep is
// forced — the epoch mode's own boundary when the allocator is quiet.
const defaultEpochCap = 1 << 16

// epochMaxNodes bounds the provenance-chain arena per view. Nodes
// cannot be truncated mid-run (live handles may point into them), so
// past the cap checks fall back to synchronous precise resolution —
// same reports, only the deferral is lost (counted in EpochFallbacks).
const epochMaxNodes = 1 << 20

func epochHandle(idx int) Bounds { return Bounds{Lo: epochTag, Hi: uint64(idx)} }

// epochIndex decodes a handle, reporting false for real bounds.
func (b Bounds) epochIndex() (int, bool) {
	if b.Lo == epochTag {
		return int(b.Hi), true
	}
	return 0, false
}

// pendingReport is a resolved check failure not yet issued: the bucket
// fields of Reporter.Report minus the site, which lives on the event.
type pendingReport struct {
	kind    ErrorKind
	static  string
	dynamic string
	offset  int64
}

type evNodeKind uint8

const (
	nodeTypeCheck evNodeKind = iota
	nodeNarrow
)

// evNode is one provenance-chain node: a type-check snapshot or a
// narrow over a parent node. Resolution (the §5.3 cascade for type
// nodes, interval intersection for narrows) is memoized in b/rep.
type evNode struct {
	kind evNodeKind

	// Type-check snapshot (nodeTypeCheck): the checked pointer, static
	// type, site ID, and the container metadata read at record time.
	p       uint64
	s       *ctypes.Type
	siteID  int64
	t       *ctypes.Type
	tid     uint64
	objBase uint64
	objSize uint64

	// Narrow (nodeNarrow): parent chain index and the interval.
	parent int
	lo, hi uint64

	// Resolution memo.
	resolved bool
	b        Bounds
	rep      *pendingReport
}

type evEventKind uint8

const (
	evType evEventKind = iota
	evBounds
	evEscape
)

// evEvent is one pending check. Type events reference their own chain
// node; bounds/escape events reference the chain their bounds came from
// (node != 0) or carry concrete bounds (node == 0), plus the access
// pointer's container snapshot for the failure report's dynamic-type
// bucket (precise mode reads it at access time; the snapshot keeps the
// bucket identical however late validation runs).
type evEvent struct {
	kind   evEventKind
	node   int
	b      Bounds
	p      uint64
	size   uint64
	static fmt.Stringer // rendered only if the check fails
	site   string

	dynOK   bool
	dynT    *ctypes.Type
	objBase uint64
}

// epochCtl is the cross-view epoch generation: RequestEpoch bumps it
// atomically from any goroutine, and every view sweeps when it next
// records. Views of one runtime share a single ctl.
type epochCtl struct{ gen atomic.Uint64 }

// epochState is one view's evidence log. Like a Stats sink it is owned
// by a single goroutine (EpochView hands each worker its own); only ctl
// is shared.
type epochState struct {
	ctl      *epochCtl
	cap      int
	nodes    []evNode
	events   []evEvent
	lastGen  uint64
	lastTick uint64
}

func newEpochState(cap int, ctl *epochCtl) *epochState {
	if cap <= 0 {
		cap = defaultEpochCap
	}
	if ctl == nil {
		ctl = &epochCtl{}
	}
	return &epochState{ctl: ctl, cap: cap}
}

// EpochEnabled reports whether the runtime defers checks to epoch
// sweeps (Options.EpochChecks).
func (r *Runtime) EpochEnabled() bool { return r.epoch != nil }

// EpochView returns a view of the runtime with its own empty evidence
// log — the epoch analogue of StatsView: the sharded harness gives each
// worker goroutine one, so evidence recording is contention-free while
// the epoch generation (RequestEpoch) stays shared across views. A
// runtime without EpochChecks returns the receiver unchanged.
func (r *Runtime) EpochView() *Runtime {
	if r.epoch == nil {
		return r
	}
	cp := *r
	cp.epoch = newEpochState(r.epoch.cap, r.epoch.ctl)
	return &cp
}

// RequestEpoch asks every view of this runtime to validate its pending
// evidence at the next record. Safe from any goroutine — this is the
// only epoch entry point that may race the owning worker.
func (r *Runtime) RequestEpoch() {
	if r.epoch != nil {
		r.epoch.ctl.gen.Add(1)
	}
}

// ForceEpoch runs a validation sweep of this view's log now. Recorded
// provenance chains stay valid — registers may still hold handles, so
// this is the mid-run boundary (caps, quarantine ticks, RequestEpoch
// all land here). No-op without EpochChecks. Not safe for concurrent
// use with the view's owner; use RequestEpoch from other goroutines.
func (r *Runtime) ForceEpoch() {
	if r.epoch != nil {
		r.sweepEpoch()
	}
}

// EpochFlush is the end-of-run epoch boundary: it validates pending
// evidence like ForceEpoch and then releases the provenance-chain
// arena, which is only sound once no register can hold a handle — the
// interpreter calls it when Run returns, and the sharded pool at worker
// retirement. No-op without EpochChecks.
func (r *Runtime) EpochFlush() {
	if r.epoch == nil {
		return
	}
	r.sweepEpoch()
	r.epoch.nodes = r.epoch.nodes[:0]
}

// maybeSweep fires the in-band epoch boundaries after a record: the
// pending-event cap and a RequestEpoch generation bump.
func (r *Runtime) maybeSweep() {
	ep := r.epoch
	if len(ep.events) >= ep.cap || ep.ctl.gen.Load() != ep.lastGen {
		r.sweepEpoch()
	}
}

// sweepEpoch validates every pending event in record order and clears
// them. Events are dropped even if the Reporter aborts mid-sweep
// (AbortError unwinds through here); chain nodes persist regardless.
func (r *Runtime) sweepEpoch() {
	ep := r.epoch
	ep.lastGen = ep.ctl.gen.Load()
	ep.lastTick = r.alloc.EpochTick()
	r.stats.EpochSweeps.Add(1)
	if len(ep.events) == 0 {
		return
	}
	defer func() { ep.events = ep.events[:0] }()
	for i := range ep.events {
		r.validateEvent(&ep.events[i])
		r.stats.EpochValidations.Add(1)
	}
}

// validateEvent replays one recorded check against the layout tables.
// Type events resolve their chain node and issue its memoized report;
// bounds/escape events resolve the bounds their provenance chain
// denotes and re-run the interval test. Identical buckets to precise
// mode: every input comes from the record-time snapshot.
func (r *Runtime) validateEvent(e *evEvent) {
	switch e.kind {
	case evType:
		node := &r.epoch.nodes[e.node-1]
		r.resolveTypeNode(node)
		if rep := node.rep; rep != nil {
			r.Reporter.Report(rep.kind, rep.static, rep.dynamic, rep.offset, e.site)
		}
	case evBounds:
		b := e.b
		if e.node != 0 {
			b = r.resolveNode(e.node)
		}
		if !b.Contains(e.p, e.size) {
			r.reportBoundsSnapshot(e, e.static)
		}
	case evEscape:
		b := e.b
		if e.node != 0 {
			b = r.resolveNode(e.node)
		}
		if !b.ContainsEscape(e.p) {
			r.reportBoundsSnapshot(e, escapeLabel)
		}
	}
}

// resolveNode returns the bounds a chain node denotes, resolving and
// memoizing lazily. Reports attached to type nodes are NOT issued here
// — they belong to the node's own event (which always precedes, in
// record order, any event that uses the handle). Iterative: a narrow
// chain can be as long as a loop's trip count.
func (r *Runtime) resolveNode(idx int) Bounds {
	ep := r.epoch
	if n := &ep.nodes[idx-1]; n.resolved {
		return n.b
	}
	var chain []int
	cur := idx
	for {
		n := &ep.nodes[cur-1]
		if n.resolved {
			break
		}
		if n.kind == nodeTypeCheck {
			r.resolveTypeNode(n)
			break
		}
		chain = append(chain, cur)
		cur = n.parent
	}
	b := ep.nodes[cur-1].b
	for i := len(chain) - 1; i >= 0; i-- {
		n := &ep.nodes[chain[i]-1]
		b = b.Intersect(Bounds{n.lo, n.hi})
		n.resolved = true
		n.b = b
	}
	return b
}

// resolveTypeNode runs the §5.3 check cascade over the node's snapshot
// and memoizes the bounds and (if the check failed) the report bucket.
func (r *Runtime) resolveTypeNode(node *evNode) {
	if node.resolved {
		return
	}
	b, rep := r.typeCheckResolve(node.p, node.s, node.siteID,
		node.t, node.tid, node.objBase, node.objSize)
	node.resolved = true
	node.b = b
	node.rep = rep
}

// reportBoundsSnapshot is reportBounds over the event's record-time
// container snapshot instead of a live metadata read, so the bucket's
// dynamic type and normalized offset match what precise mode reported
// at access time even if the slot was since freed or rebound.
func (r *Runtime) reportBoundsSnapshot(e *evEvent, static fmt.Stringer) {
	dyn := "legacy"
	var off int64
	if e.dynOK {
		t := e.dynT
		dyn = t.String()
		off = int64(e.p) - int64(e.objBase)
		if t != ctypes.Free && t.IsComplete() && t.Size() > 0 {
			off = r.layoutFor(t).Normalize(off)
		}
	}
	r.Reporter.Report(BoundsError, staticName(static), dyn, off, e.site)
}

// TypeRecordAt is the epoch-mode type_check: it snapshots the check's
// inputs into the evidence log and returns a handle standing for the
// not-yet-resolved bounds. The null/legacy outcomes resolve inline
// (they need no table work and produce no report). Counting TypeChecks
// here keeps Fig. 7's #Type identical to precise mode. Falls back to
// the precise check when epochs are off, so hand-built IR containing
// record ops still executes.
func (r *Runtime) TypeRecordAt(p uint64, s *ctypes.Type, siteID int64, site string) Bounds {
	ep := r.epoch
	if ep == nil {
		return r.typeCheckPrecise(p, s, siteID, site)
	}
	r.stats.TypeChecks.Add(1)
	if p == 0 {
		r.stats.NullTypeChecks.Add(1)
		return Wide
	}
	t, tid, objBase, size, ok := r.dynamicType(p)
	if !ok {
		r.stats.LegacyTypeChecks.Add(1)
		return Wide
	}
	if b, rep, done := r.typeCheckTrivial(p, s, t, objBase, size); done {
		// Pure-predicate outcomes resolve at record time: answering them
		// is cheaper than appending evidence, and — being pure functions
		// of the snapshot, untouched by any shared cache — they keep the
		// set of deferred checks independent of worker and epoch timing.
		if rep != nil {
			r.Reporter.Report(rep.kind, rep.static, rep.dynamic, rep.offset, site)
		}
		return b
	}
	if len(ep.nodes) >= epochMaxNodes {
		r.stats.EpochFallbacks.Add(1)
		b, rep := r.typeCheckResolve(p, s, siteID, t, tid, objBase, size)
		if rep != nil {
			r.Reporter.Report(rep.kind, rep.static, rep.dynamic, rep.offset, site)
		}
		return b
	}
	ep.nodes = append(ep.nodes, evNode{
		kind: nodeTypeCheck, p: p, s: s, siteID: siteID,
		t: t, tid: tid, objBase: objBase, objSize: size,
	})
	idx := len(ep.nodes)
	ep.events = append(ep.events, evEvent{kind: evType, node: idx, site: site})
	r.stats.EvidenceRecords.Add(1)
	r.maybeSweep()
	return epochHandle(idx)
}

// BoundsRecord is the epoch-mode bounds_check. Concrete bounds are
// already resolved — the interval test is three comparisons, cheaper
// than recording — so only checks whose bounds hang off a deferred type
// check (a handle) append evidence; those also snapshot the access
// pointer's container for the failure report. Falls back to the precise
// check when epochs are off.
func (r *Runtime) BoundsRecord(p, size uint64, b Bounds, static fmt.Stringer, site string) {
	ep := r.epoch
	if ep == nil {
		r.BoundsCheck(p, size, b, static, site)
		return
	}
	r.stats.BoundsChecks.Add(1)
	idx, isHandle := b.epochIndex()
	if !isHandle {
		if !b.Contains(p, size) {
			r.reportBounds(p, static, site)
		}
		return
	}
	ev := evEvent{kind: evBounds, node: idx, p: p, size: size, static: static, site: site}
	if t, objBase, _, ok := r.DynamicType(p); ok {
		ev.dynOK, ev.dynT, ev.objBase = true, t, objBase
	}
	ep.events = append(ep.events, ev)
	r.stats.EvidenceRecords.Add(1)
	r.maybeSweep()
}

// EscapeRecord is the epoch-mode escape check; see BoundsRecord.
func (r *Runtime) EscapeRecord(p uint64, b Bounds, site string) {
	ep := r.epoch
	if ep == nil {
		r.EscapeCheck(p, b, site)
		return
	}
	r.stats.BoundsChecks.Add(1)
	idx, isHandle := b.epochIndex()
	if !isHandle {
		if !b.ContainsEscape(p) {
			r.reportBounds(p, escapeLabel, site)
		}
		return
	}
	ev := evEvent{kind: evEscape, node: idx, p: p, site: site}
	if t, objBase, _, ok := r.DynamicType(p); ok {
		ev.dynOK, ev.dynT, ev.objBase = true, t, objBase
	}
	ep.events = append(ep.events, ev)
	r.stats.EvidenceRecords.Add(1)
	r.maybeSweep()
}
