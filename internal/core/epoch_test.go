package core

import (
	"testing"

	"repro/internal/ctypes"
)

func newEpochRT(t *testing.T, opts Options) (*Runtime, *ctypes.Table) {
	t.Helper()
	tb := ctypes.NewTable()
	opts.Types = tb
	opts.EpochChecks = true
	return NewRuntime(opts), tb
}

// TestEpochHandleEncoding pins the evidence-handle sentinel: handles
// round-trip their node index, and no bounds value the runtime actually
// produces — Wide, concrete intervals, the zero value — ever decodes as
// a handle (simulated addresses top out near 2^41, far below the tag).
func TestEpochHandleEncoding(t *testing.T) {
	for _, idx := range []int{1, 2, 1 << 20} {
		h := epochHandle(idx)
		got, ok := h.epochIndex()
		if !ok || got != idx {
			t.Fatalf("handle(%d) decoded to (%d, %v)", idx, got, ok)
		}
		if h == Wide {
			t.Fatalf("handle(%d) equals Wide", idx)
		}
		if h.IsWide() {
			t.Fatalf("handle(%d) reads as wide", idx)
		}
	}
	for _, b := range []Bounds{Wide, {}, {Lo: 0x1000, Hi: 0x2000}} {
		if _, ok := b.epochIndex(); ok {
			t.Fatalf("%v decodes as a handle", b)
		}
	}
}

// TestEpochEmptySweep: forcing an epoch on an empty log is a recorded
// no-op — a sweep happens, nothing validates, nothing is reported. The
// empty-epoch boundary case of the batch validator.
func TestEpochEmptySweep(t *testing.T) {
	r, _ := newEpochRT(t, Options{})
	r.ForceEpoch()
	r.EpochFlush()
	s := r.Stats()
	if s.EpochSweeps != 2 {
		t.Errorf("EpochSweeps = %d, want 2", s.EpochSweeps)
	}
	if s.EvidenceRecords != 0 || s.EpochValidations != 0 {
		t.Errorf("records/validations = %d/%d, want 0/0", s.EvidenceRecords, s.EpochValidations)
	}
	if got := r.Reporter.Total(); got != 0 {
		t.Errorf("reports = %d, want 0", got)
	}
}

// TestEpochDeferredTypeCheck: in epoch mode a failing type check returns
// a handle and reports nothing until the sweep; the sweep then produces
// exactly the bucket precise mode reports at check time.
func TestEpochDeferredTypeCheck(t *testing.T) {
	r, _ := newEpochRT(t, Options{})
	p, err := r.NewArray(ctypes.Int, 100, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	b := r.TypeCheck(p, ctypes.Float, "deferred")
	if _, ok := b.epochIndex(); !ok {
		t.Fatalf("epoch-mode type check returned %v, want a handle", b)
	}
	if got := r.Reporter.Total(); got != 0 {
		t.Fatalf("reported %d issues before the epoch boundary", got)
	}
	r.ForceEpoch()
	issues := r.Reporter.Issues()
	if len(issues) != 1 {
		t.Fatalf("issues after sweep = %d, want 1", len(issues))
	}
	is := issues[0]
	if is.Kind != TypeError || is.StaticType != "float" || is.DynamicType != "int" {
		t.Errorf("bucket = %s|%s|%s, want TypeError|float|int", is.Kind, is.StaticType, is.DynamicType)
	}
	if is.FirstSite != "deferred" {
		t.Errorf("FirstSite = %q, want the record site", is.FirstSite)
	}
	s := r.Stats()
	if s.EvidenceRecords != 1 || s.EpochValidations != 1 {
		t.Errorf("records/validations = %d/%d, want 1/1", s.EvidenceRecords, s.EpochValidations)
	}
}

// TestEpochEvidenceSurvivesFree is the recorded-then-freed boundary
// case: evidence recorded in epoch N whose object is freed — and its
// slot reused under a different type — before validation must still
// produce the verdict precise mode produced at access time, in both
// directions (a passing check stays silent, a failing one still reports
// the ORIGINAL dynamic type). Snapshot completeness makes validation
// independent of the slot's later life.
func TestEpochEvidenceSurvivesFree(t *testing.T) {
	// Quarantine off: the freed slot is recycled by the very next Alloc
	// of the same class, clobbering the old header. Struct-typed object so
	// neither check is an exact match (those resolve at record time and
	// would leave nothing deferred to survive the free).
	r, tb := newEpochRT(t, Options{})
	P := tb.MustParse("struct Pair { int a; int b; }")
	p, err := r.New(P, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	good := r.TypeCheck(p, ctypes.Int, "good-site")
	bad := r.TypeCheck(p, ctypes.Float, "bad-site")
	if _, ok := good.epochIndex(); !ok {
		t.Fatal("good check did not defer")
	}
	if _, ok := bad.epochIndex(); !ok {
		t.Fatal("bad check did not defer")
	}
	r.TypeFree(p, "free-site")
	q, err := r.NewArray(ctypes.Double, 2, HeapAlloc) // reuses the slot
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatalf("slot not recycled (p=%#x q=%#x); the test needs header reuse", p, q)
	}
	r.ForceEpoch()
	issues := r.Reporter.Issues()
	if len(issues) != 1 {
		t.Fatalf("issues = %d, want exactly the failing check's", len(issues))
	}
	if is := issues[0]; is.Kind != TypeError || is.StaticType != "float" || is.DynamicType != "struct Pair" {
		t.Errorf("bucket = %s|%s|%s, want TypeError|float|struct Pair (record-time snapshot, not the slot's new type)",
			is.Kind, is.StaticType, is.DynamicType)
	}
}

// TestEpochRequestEpochCrossView: RequestEpoch on any view (or the base
// runtime) makes every other view sweep at its next record — the
// generation is shared state, the logs are not.
func TestEpochRequestEpochCrossView(t *testing.T) {
	r, tb := newEpochRT(t, Options{})
	v := r.EpochView()
	if v.epoch == r.epoch {
		t.Fatal("EpochView shares the evidence log")
	}
	if v.epoch.ctl != r.epoch.ctl {
		t.Fatal("EpochView does not share the epoch generation")
	}
	// Struct-typed object: both checks are non-trivial, so the second one
	// records (trivially-resolved checks never touch the log and would not
	// notice the generation bump).
	P := tb.MustParse("struct Pair { int a; int b; }")
	p, err := v.New(P, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	v.TypeCheck(p, ctypes.Float, "site-a")
	if got := v.Reporter.Total(); got != 0 {
		t.Fatalf("check resolved before any boundary (%d reports)", got)
	}
	r.RequestEpoch() // from the base, as the stress hammer would
	v.TypeCheck(p, ctypes.Int, "site-b")
	if got := v.Reporter.Total(); got != 1 {
		t.Errorf("reports after generation bump = %d, want 1 (the failing check)", got)
	}
}

// TestEpochCapForcesSweep: a small EpochCap is its own epoch boundary —
// the fifth record sweeps without any explicit request, and at flush
// every record has validated exactly once.
func TestEpochCapForcesSweep(t *testing.T) {
	r, tb := newEpochRT(t, Options{EpochCap: 4})
	P := tb.MustParse("struct Pair { int a; int b; }")
	p, err := r.New(P, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		// Non-trivial (sub-object) check: defers every time.
		r.TypeCheck(p, ctypes.Int, "cap-site")
	}
	if s := r.Stats(); s.EpochSweeps == 0 {
		t.Error("no sweep despite exceeding the cap")
	}
	r.EpochFlush()
	s := r.Stats()
	if s.EvidenceRecords != 10 || s.EpochValidations != 10 {
		t.Errorf("records/validations = %d/%d, want 10/10", s.EvidenceRecords, s.EpochValidations)
	}
	if len(r.epoch.nodes) != 0 {
		t.Errorf("flush left %d chain nodes", len(r.epoch.nodes))
	}
}

// TestEpochNarrowChain: narrowing a handle appends chain nodes instead
// of resolving, and a bounds check against the narrowed handle validates
// with the composed (type-check ∩ narrow) interval — the deferred
// equivalent of sub-object overflow detection.
func TestEpochNarrowChain(t *testing.T) {
	r, tb := newEpochRT(t, Options{})
	T := tb.MustParse("struct N { int a[3]; int tail; }")
	p, err := r.New(T, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	// Check the leading int field (non-trivial: sub-object match) so the
	// check defers — an exact match against T itself would resolve at
	// record time to concrete bounds.
	b := r.TypeCheck(p, ctypes.Int, "chain-check")
	if _, ok := b.epochIndex(); !ok {
		t.Fatal("type check did not defer")
	}
	// Narrow to the leading int[3] field, then access one past its end:
	// inside the allocation, outside the sub-object.
	nb := r.BoundsNarrow(b, p, p+12)
	if _, ok := nb.epochIndex(); !ok {
		t.Fatalf("narrow of a handle resolved eagerly to %v", nb)
	}
	r.BoundsCheck(p+12, 4, nb, ctypes.Int, "chain-access")
	if got := r.Reporter.Total(); got != 0 {
		t.Fatalf("bounds check resolved before the boundary (%d reports)", got)
	}
	r.EpochFlush()
	issues := r.Reporter.Issues()
	if len(issues) != 1 {
		t.Fatalf("issues = %d, want 1 sub-object overflow", len(issues))
	}
	if is := issues[0]; is.Kind != BoundsError || is.DynamicType != "struct N" {
		t.Errorf("bucket = %s|%s|%s, want BoundsError on struct N", is.Kind, is.StaticType, is.DynamicType)
	}
}

// TestEpochAllocatorTickBoundary: a free that evicts from the quarantine
// advances the allocator's epoch tick, and TypeFree validates pending
// evidence before the evicted slot can be reused.
func TestEpochAllocatorTickBoundary(t *testing.T) {
	// A quarantine smaller than one slot evicts on every put.
	r, _ := newEpochRT(t, Options{Quarantine: 8})
	p, err := r.NewArray(ctypes.Int, 8, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	r.TypeCheck(p, ctypes.Float, "tick-site")
	if got := r.Reporter.Total(); got != 0 {
		t.Fatal("check resolved before the boundary")
	}
	r.TypeFree(p, "tick-free")
	if got := r.Reporter.Total(); got != 1 {
		t.Errorf("reports after eviction-tick free = %d, want 1", got)
	}
	if s := r.Stats(); s.EpochSweeps == 0 {
		t.Error("free crossed an allocator tick but swept nothing")
	}
}

// TestEpochCanaryClobber: an out-of-bounds write into the slot padding
// is caught by the zero-canary at free — counted, never reported (bounds
// evidence owns the report; an extra bucket would break parity with
// precise mode, which has no canaries).
func TestEpochCanaryClobber(t *testing.T) {
	r, _ := newEpochRT(t, Options{})
	// 20 bytes usable (16 header + 4 data) in a 32-byte slot: 12 bytes
	// of padding canary.
	p, err := r.New(ctypes.Int, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	r.Mem().Store(p+4, 1, 0xFF) // one byte past the object's end
	r.TypeFree(p, "canary-free")
	s := r.Stats()
	if s.CanaryChecks != 1 {
		t.Errorf("CanaryChecks = %d, want 1", s.CanaryChecks)
	}
	if s.CanaryClobbers != 1 {
		t.Errorf("CanaryClobbers = %d, want 1", s.CanaryClobbers)
	}
	if got := r.Reporter.Total(); got != 0 {
		t.Errorf("canary produced %d reports, want 0 (counted only)", got)
	}

	// Clean free on a fresh runtime: checked, not clobbered.
	r2, _ := newEpochRT(t, Options{})
	q, err := r2.New(ctypes.Int, HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	r2.TypeFree(q, "clean-free")
	if s := r2.Stats(); s.CanaryChecks != 1 || s.CanaryClobbers != 0 {
		t.Errorf("clean free: checks/clobbers = %d/%d, want 1/0", s.CanaryChecks, s.CanaryClobbers)
	}
}

// TestEpochPreciseParityOnRuntimeAPI drives the same check sequence
// through a precise and an epoch runtime directly at the Runtime API and
// compares the full issue set — the unit-level version of the difftest
// contract (kinds, types, offsets equal; only ordering/FirstSite may
// differ, so buckets are compared as sets).
func TestEpochPreciseParityOnRuntimeAPI(t *testing.T) {
	type key struct {
		kind            ErrorKind
		static, dynamic string
		offset          int64
		count           uint64
	}
	run := func(opts Options) map[key]bool {
		tb := ctypes.NewTable()
		opts.Types = tb
		r := NewRuntime(opts)
		S := tb.MustParse("struct P { int a[3]; char *s; }")
		p, err := r.New(S, HeapAlloc)
		if err != nil {
			t.Fatal(err)
		}
		b := r.TypeCheck(p, S, "t0")
		r.BoundsCheck(p, 4, b, ctypes.Int, "t1")
		nb := r.BoundsNarrow(b, p, p+12)
		r.BoundsCheck(p+12, 4, nb, ctypes.Int, "t2") // sub-object overflow
		r.TypeCheck(p, ctypes.Double, "t3")          // type confusion
		r.TypeCheck(p+1, ctypes.Int, "t4")           // misaligned interior
		q, err := r.NewArray(ctypes.Int, 2, HeapAlloc)
		if err != nil {
			t.Fatal(err)
		}
		r.TypeFree(q, "t5")
		r.TypeCheck(q, ctypes.Int, "t6") // use after free
		r.EpochFlush()
		out := make(map[key]bool)
		for _, is := range r.Reporter.Issues() {
			out[key{is.Kind, is.StaticType, is.DynamicType, is.Offset, is.Count}] = true
		}
		return out
	}
	precise := run(Options{Quarantine: 1 << 20})
	epoch := run(Options{Quarantine: 1 << 20, EpochChecks: true})
	epochCap := run(Options{Quarantine: 1 << 20, EpochChecks: true, EpochCap: 1})
	if len(precise) == 0 {
		t.Fatal("scenario produced no issues; parity test is vacuous")
	}
	for k := range precise {
		if !epoch[k] {
			t.Errorf("epoch mode missing bucket %+v", k)
		}
		if !epochCap[k] {
			t.Errorf("epoch-cap1 mode missing bucket %+v", k)
		}
	}
	for k := range epoch {
		if !precise[k] {
			t.Errorf("epoch mode extra bucket %+v", k)
		}
	}
	for k := range epochCap {
		if !precise[k] {
			t.Errorf("epoch-cap1 mode extra bucket %+v", k)
		}
	}
}
