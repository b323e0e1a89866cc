package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ctypes"
	"repro/internal/layout"
	"repro/internal/lowfat"
	"repro/internal/mem"
)

// MetaSize is the size of the object metadata header stored at the base
// of every typed allocation: a type id and the allocation size, 8 bytes
// each — the paper's META = {type, size} pair (Fig. 5/6).
const MetaSize = 16

// freeTypeID is the reserved metadata type id of the FREE type.
const freeTypeID = 1

// Options configure a Runtime.
type Options struct {
	// Types is the program's type table. Required.
	Types *ctypes.Table
	// Mode selects error logging or counting (§6). Default ModeLog.
	Mode Mode
	// AbortAfter aborts execution (by panicking with AbortError) after
	// this many errors; zero never aborts — the paper's default is to log
	// all errors without stopping.
	AbortAfter uint64
	// Quarantine, if positive, delays reuse of freed slots (bytes held).
	Quarantine uint64
	// CheckCacheSize sizes the §5.3 shared type-check memoization cache
	// (total slots, rounded up to a power of two per shard). Zero selects
	// the default; a negative value disables the shared memo cache and
	// the exact-match fast path, so every check not served by a per-site
	// inline cache runs the full layout-table match.
	CheckCacheSize int
	// NoInlineCache disables the §5.3 per-site one-entry inline caches
	// consulted before the shared memo cache (the "no inline cache"
	// ablation level). Combine with a negative CheckCacheSize for the
	// fully uncached baseline.
	NoInlineCache bool
}

// Runtime is the EffectiveSan runtime system: a low-fat allocator whose
// allocations carry dynamic type metadata, plus the type_check /
// bounds_check operations the instrumentation schema calls. All methods
// are safe for concurrent use: one Runtime serves every worker goroutine
// of the sharded harness and the Fig. 10 browser sessions.
//
// Every field is a pointer to shared state, so a Runtime value is a
// cheap view: StatsView shallow-copies it with a different counter sink,
// which is how sharded runs get per-worker statistics without touching
// the hot path.
type Runtime struct {
	types    *ctypes.Table
	mem      *mem.Memory
	heap     *lowfat.Allocator
	alloc    lowfat.Heap // allocation route: the central heap, or a per-worker magazine (HeapView)
	layouts  *layout.Cache
	memo     *checkCache  // §5.3 shared type-check memo cache; nil when disabled
	inline   *inlineCache // §5.3 per-site inline caches; nil when disabled
	Reporter *Reporter
	stats    *Stats
	reg      *typeRegistry
}

// typeRegistry is the metadata type registry mapping interned types to
// ids and back. The hot path (typeByID on every check) is lock-free: ids
// are read from an immutable snapshot slice republished on each append,
// and idOf is a sync.Map (read-mostly: one insert per distinct type). It
// lives behind a pointer so Runtime stays shallow-copyable (StatsView)
// without copying locks.
type typeRegistry struct {
	mu     sync.Mutex                     // serialises registry appends
	idOf   sync.Map                       // *ctypes.Type -> uint64
	typeOf atomic.Pointer[[]*ctypes.Type] // index = id; id 0 is invalid
}

// NewRuntime returns a runtime over a fresh simulated memory.
func NewRuntime(opts Options) *Runtime {
	if opts.Types == nil {
		panic("core: Options.Types is required")
	}
	m := mem.New()
	heap := lowfat.New(m, lowfat.Options{Quarantine: opts.Quarantine})
	r := &Runtime{
		types:    opts.Types,
		mem:      m,
		heap:     heap,
		alloc:    heap,
		layouts:  layout.NewCache(),
		memo:     newCheckCache(opts.CheckCacheSize),
		inline:   newInlineCache(opts.NoInlineCache),
		Reporter: NewReporter(opts.Mode, opts.AbortAfter),
		stats:    &Stats{},
		reg:      &typeRegistry{},
	}
	reg := []*ctypes.Type{nil, ctypes.Free} // ids 0 (invalid), 1 (FREE)
	r.reg.typeOf.Store(&reg)
	r.reg.idOf.Store(ctypes.Free, uint64(freeTypeID))
	return r
}

// StatsView returns a view of the runtime that shares every structure —
// memory, allocator, layout and check caches, type registry, reporter —
// but sinks its counters into st. The sharded harness gives each worker
// goroutine its own view, so per-worker numbers come for free while the
// check path stays contention-free on statistics; aggregate them with
// StatsSnapshot.Add or fold them back via Runtime.MergeStats. A nil st
// returns the receiver unchanged.
func (r *Runtime) StatsView(st *Stats) *Runtime {
	if st == nil {
		return r
	}
	cp := *r
	cp.stats = st
	return &cp
}

// HeapView returns a view of the runtime that shares every structure
// but routes allocations through h, a per-worker magazine over the
// runtime's central heap — the heap analogue of StatsView. The sharded
// harness gives each worker goroutine its own magazine, so steady-state
// TypeMalloc/TypeFree takes no shared lock. Size/Base arithmetic,
// metadata headers and the canonical heap Stats stay global. A nil h
// returns the receiver unchanged.
// Compose with StatsView:
//
//	view := rt.StatsView(sink).HeapView(rt.Heap().NewMagazine())
func (r *Runtime) HeapView(h lowfat.Heap) *Runtime {
	if h == nil {
		return r
	}
	cp := *r
	cp.alloc = h
	return &cp
}

// CheckCacheSlots returns the total slot count of the shared type-check
// memo cache (0 when the cache is disabled) — for tests and benchmarks.
func (r *Runtime) CheckCacheSlots() int { return r.memo.len() }

// InlineCacheSites returns the current capacity of the per-site inline
// cache array (0 when disabled or never consulted) — for tests.
func (r *Runtime) InlineCacheSites() int { return r.inline.sites() }

// Mem returns the simulated memory.
func (r *Runtime) Mem() *mem.Memory { return r.mem }

// Heap returns the low-fat allocator.
func (r *Runtime) Heap() *lowfat.Allocator { return r.heap }

// Types returns the runtime's type table.
func (r *Runtime) Types() *ctypes.Table { return r.types }

// Layouts returns the layout hash table cache (exposed for the ablation
// benchmarks).
func (r *Runtime) Layouts() *layout.Cache { return r.layouts }

// layoutFor returns the layout table for t through the layout cache,
// folding the cache's build/intern/footprint event into the view's
// Stats sink. Every runtime-side table access goes through here so the
// footprint counters stay exact under sharded per-worker views.
func (r *Runtime) layoutFor(t *ctypes.Type) *layout.TypeLayout {
	tl, ev := r.layouts.ForStats(t)
	if ev.Built {
		r.stats.LayoutTablesBuilt.Add(1)
		if ev.Interned {
			r.stats.LayoutTablesInterned.Add(1)
		}
		r.stats.LayoutBytesResident.Add(ev.Bytes)
	}
	return tl
}

// typeID interns t in the metadata type registry.
func (r *Runtime) typeID(t *ctypes.Type) uint64 {
	g := r.reg
	if id, ok := g.idOf.Load(t); ok {
		return id.(uint64)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if id, ok := g.idOf.Load(t); ok {
		return id.(uint64)
	}
	cur := *g.typeOf.Load()
	id := uint64(len(cur))
	next := make([]*ctypes.Type, len(cur)+1)
	copy(next, cur)
	next[id] = t
	g.typeOf.Store(&next) // publish the slice before the id becomes findable
	g.idOf.Store(t, id)
	return id
}

// TypeIDCache remembers the metadata type ids of the last few types an
// allocation route bound, so steady-state TypeMallocCached resolves its
// id with a few compares instead of the registry's sync.Map. A cached id
// is trusted only if the runtime's own registry maps it back to the
// type, so a cache never hands out another runtime's id, and every miss
// interns through the registry: ids and their first-use order are the
// same with or without a cache. The zero value is ready to use. Keep one
// cache per allocation route (mir.EffEnv keeps one per environment); its
// slots are atomic because concurrent interpreter Runs may share an
// environment.
type TypeIDCache struct {
	ids  [typeIDWays]atomic.Uint64
	next atomic.Uint32 // round-robin victim of the next miss
}

// typeIDWays is the number of types a TypeIDCache holds.
const typeIDWays = 4

// cachedTypeID is typeID through c.
func (r *Runtime) cachedTypeID(c *TypeIDCache, t *ctypes.Type) uint64 {
	reg := *r.reg.typeOf.Load()
	for i := range c.ids {
		if id := c.ids[i].Load(); id < uint64(len(reg)) && reg[id] == t {
			return id
		}
	}
	id := r.typeID(t)
	c.ids[c.next.Add(1)%typeIDWays].Store(id)
	return id
}

func (r *Runtime) typeByID(id uint64) *ctypes.Type {
	reg := *r.reg.typeOf.Load()
	if id == 0 || id >= uint64(len(reg)) {
		return nil
	}
	return reg[id]
}

// AllocKind tags an allocation's storage class for statistics.
type AllocKind int

// Storage classes; all three are bound to dynamic types (§5 wraps the
// low-fat heap, stack and global allocators alike).
const (
	HeapAlloc AllocKind = iota
	StackAlloc
	GlobalAlloc
)

// TypeMalloc allocates size bytes bound to dynamic type t[size/sizeof(t)]
// — the paper's type_malloc (Fig. 6): a thin wrapper around the low-fat
// allocator that stores {type, size} at the slot base and returns the
// address just past the header. The returned memory is zeroed.
func (r *Runtime) TypeMalloc(t *ctypes.Type, size uint64, kind AllocKind) (uint64, error) {
	return r.typeMalloc(t, nil, size, kind)
}

// TypeMallocCached is TypeMalloc resolving t's metadata type id through
// the allocation route's cache c. The result, the memory and every
// counter are the same as TypeMalloc's.
func (r *Runtime) TypeMallocCached(c *TypeIDCache, t *ctypes.Type, size uint64, kind AllocKind) (uint64, error) {
	return r.typeMalloc(t, c, size, kind)
}

// typeMalloc is TypeMalloc with an optional type-id cache. The id is
// resolved after the allocation succeeds, so a failed allocation never
// interns its type.
func (r *Runtime) typeMalloc(t *ctypes.Type, c *TypeIDCache, size uint64, kind AllocKind) (uint64, error) {
	base, err := r.alloc.Alloc(MetaSize + size)
	if err != nil {
		return 0, fmt.Errorf("type_malloc(%s, %d): %w", t, size, err)
	}
	var tid uint64
	if c != nil {
		tid = r.cachedTypeID(c, t)
	} else {
		tid = r.typeID(t)
	}
	r.mem.StorePair(base, tid, size)
	switch kind {
	case HeapAlloc:
		r.stats.HeapAllocs.Add(1)
	case StackAlloc:
		r.stats.StackAllocs.Add(1)
	case GlobalAlloc:
		r.stats.GlobalAllocs.Add(1)
	}
	return base + MetaSize, nil
}

// New allocates a single object of type t (C++ `new T` / a stack or
// global object of declared type T).
func (r *Runtime) New(t *ctypes.Type, kind AllocKind) (uint64, error) {
	return r.TypeMalloc(t, uint64(t.Size()), kind)
}

// NewArray allocates n objects of type t (`new T[n]` or `malloc(n *
// sizeof(T))` with inferred type T).
func (r *Runtime) NewArray(t *ctypes.Type, n uint64, kind AllocKind) (uint64, error) {
	return r.TypeMalloc(t, n*uint64(t.Size()), kind)
}

// LegacyAlloc allocates from the non-low-fat legacy region, modelling
// custom memory allocators and uninstrumented libraries. Checks on the
// returned pointers always succeed with wide bounds.
func (r *Runtime) LegacyAlloc(size uint64) uint64 {
	return r.alloc.LegacyAlloc(size)
}

// TypeFree deallocates the object at p: the metadata type is overwritten
// with FREE — reducing subsequent uses to type errors (§3) — and the slot
// is returned to the allocator, which preserves the metadata until the
// slot is reused. Double frees and frees of non-allocation pointers are
// reported.
func (r *Runtime) TypeFree(p uint64, site string) {
	r.stats.Frees.Add(1)
	if p == 0 {
		return // free(NULL) is a no-op
	}
	base := lowfat.Base(p)
	if base == 0 {
		// Legacy pointer: uninstrumented free, pass through silently.
		r.stats.LegacyFrees.Add(1)
		return
	}
	if p != base+MetaSize {
		// Bucket by the containing allocation's dynamic type and the
		// pointer's offset into the object — address-independent, so the
		// same bug buckets identically across sharded/magazine
		// configurations (the differential oracle's report contract).
		t := "?"
		if dt := r.typeByID(r.mem.Load(base, 8)); dt != nil {
			t = dt.String()
		}
		r.Reporter.Report(BadFree, "interior pointer", t, int64(p-(base+MetaSize)), site)
		return
	}
	// Rebind the header's type word to FREE and read the old one in a
	// single page lookup; a double free swaps FREE for FREE.
	if r.mem.Swap(base, freeTypeID) == freeTypeID {
		r.Reporter.Report(DoubleFree, "", "FREE", 0, site)
		return
	}
	// Size is preserved for diagnostics; the allocator keeps the header
	// bytes intact until reuse.
	if err := r.alloc.Free(base); err != nil {
		r.Reporter.Report(BadFree, "", err.Error(), 0, site)
	}
}

// TypeRealloc reallocates p to newSize bytes, preserving the dynamic
// type and contents, freeing the old object.
func (r *Runtime) TypeRealloc(p uint64, newSize uint64, site string) (uint64, error) {
	if p == 0 {
		return 0, fmt.Errorf("type_realloc: null pointer")
	}
	base := lowfat.Base(p)
	if base == 0 || p != base+MetaSize {
		return 0, fmt.Errorf("type_realloc: %#x is not an allocation", p)
	}
	tid, oldSize := r.mem.LoadPair(base)
	t := r.typeByID(tid)
	if t == nil || t == ctypes.Free {
		r.Reporter.Report(UseAfterFree, "realloc", "FREE", 0, site)
		t = ctypes.Char
	}
	q, err := r.TypeMalloc(t, newSize, HeapAlloc)
	if err != nil {
		return 0, err
	}
	n := min(oldSize, newSize)
	r.mem.Copy(q, p, n)
	r.TypeFree(p, site)
	return q, nil
}

// DynamicType returns the dynamic type bound to the allocation containing
// p and the allocation's base pointer and size. ok is false for legacy
// pointers.
func (r *Runtime) DynamicType(p uint64) (t *ctypes.Type, objBase, size uint64, ok bool) {
	t, _, objBase, size, ok = r.dynamicType(p)
	return t, objBase, size, ok
}

// dynamicType is DynamicType plus the raw metadata type id, which the
// check cache uses as its key without re-interning the type.
func (r *Runtime) dynamicType(p uint64) (t *ctypes.Type, tid, objBase, size uint64, ok bool) {
	base := lowfat.Base(p)
	if base == 0 {
		return nil, 0, 0, 0, false
	}
	tid, size = r.mem.LoadPair(base)
	t = r.typeByID(tid)
	if t == nil {
		return nil, 0, 0, 0, false
	}
	return t, tid, base + MetaSize, size, true
}

// TypeCheck verifies that p points to a (sub-)object compatible with the
// incomplete static type s[] and returns the matching sub-object's
// bounds, narrowed to the allocation — the paper's type_check (Fig. 6).
// On any failure an error is reported and wide bounds are returned, so
// execution continues (logging semantics). The check is unsited: it
// bypasses the per-site inline caches. Instrumented code calls
// TypeCheckAt with the check site's ID instead.
func (r *Runtime) TypeCheck(p uint64, s *ctypes.Type, site string) Bounds {
	return r.TypeCheckAt(p, s, 0, site)
}

// TypeCheckAt is TypeCheck for an instrumented check site. siteID is the
// stable 1-based ID the instrument pass assigned to the static
// OpTypeCheck (0 for unsited checks); it selects the site's one-entry
// inline cache, which is consulted before the shared memo cache:
//
//	exact-match fast path  (k == 0 && t == s: no table work at all)
//	→ per-site inline cache (one entry per static check site)
//	→ shared memo cache     (sharded, direct-mapped, all sites)
//	→ layout-table match    (the full L(T,k) lookup of Fig. 6)
//
// All three cache levels key on (tid, k, s), so metadata rebinding on
// free/realloc (which changes tid) can never produce a stale hit. The
// check's counters reach the runtime's sink before it returns, also when
// its report aborts (AbortError).
func (r *Runtime) TypeCheckAt(p uint64, s *ctypes.Type, siteID int64, site string) Bounds {
	var st StatsSnapshot
	defer r.stats.Merge(&st)
	return r.TypeCheckInto(&st, p, s, siteID, site)
}

// TypeCheckInto is TypeCheckAt counting into st, with plain adds,
// instead of into the runtime's counter sink. st belongs to the caller,
// which merges it into the sink once it is done (MergeStats) — on every
// exit, an abort included. The interpreter keeps one per Run, so a check
// costs no atomic operation; st must not be shared between goroutines.
func (r *Runtime) TypeCheckInto(st *StatsSnapshot, p uint64, s *ctypes.Type, siteID int64, site string) Bounds {
	st.TypeChecks++
	if p == 0 {
		// Null pointers are not objects; they are trapped on access, not
		// at type checks. Counted apart from legacy pointers so the
		// legacy ratio measures coverage of real objects.
		st.NullTypeChecks++
		return Wide
	}
	t, tid, objBase, size, ok := r.dynamicType(p)
	if !ok {
		// Legacy pointer: wide bounds for compatibility (Fig. 6 line 11).
		st.LegacyTypeChecks++
		return Wide
	}
	return r.typeCheckResolve(st, p, s, siteID, site, t, tid, objBase, size)
}

// typeCheckResolve is the post-metadata portion of the type check — the
// coercions, the cache cascade and the layout-table match — given the
// dynamic type and allocation read from the metadata header. It reports
// any failure at site, counts into st and returns the resulting bounds.
func (r *Runtime) typeCheckResolve(st *StatsSnapshot, p uint64, s *ctypes.Type, siteID int64, site string,
	t *ctypes.Type, tid, objBase, size uint64) Bounds {
	if b, ok := r.typeCheckTrivial(st, p, s, site, t, objBase, size); ok {
		return b
	}
	k := int64(p - objBase)
	alloc := Bounds{objBase, objBase + size}
	var (
		norm    layout.Norm
		kn      int64
		e       layout.Entry
		co      layout.Coercion
		matched bool
	)
	// Level 2: the per-site inline cache — one entry, no hashing (the
	// level-1 exact-match fast path returned above). The entry carries
	// its table's normalisation, so a hit needs no layout lookup.
	slot := r.inline.slot(siteID)
	resolved := false
	if slot != nil {
		if en := slot.Load(); en != nil && en.tid == tid {
			norm = en.norm
			kn = norm.Normalize(k)
			if en.k == kn && en.s == s {
				e, co, matched = en.e, en.co, en.matched
				resolved = true
			}
		}
		if resolved {
			st.InlineCacheHits++
		} else {
			st.InlineCacheMisses++
		}
	}
	// Level 3: the shared memo cache; past it, the layout-table match.
	if !resolved {
		tl := r.layoutFor(t)
		norm = tl.Norm
		kn = norm.Normalize(k)
		if r.memo != nil {
			sid := r.typeID(s)
			var hit bool
			e, co, matched, hit = r.memo.lookup(tid, kn, sid, s)
			if hit {
				st.CheckCacheHits++
			} else {
				st.CheckCacheMisses++
				st.LayoutMatches++
				e, co, matched = tl.Match(s, kn)
				r.memo.store(tid, kn, sid, s, e, co, matched)
			}
		} else {
			st.LayoutMatches++
			e, co, matched = tl.Match(s, kn)
		}
		if slot != nil {
			slot.Store(&inlineEntry{
				checkEntry: checkEntry{
					checkKey: checkKey{tid: tid, k: kn, s: s},
					e:        e, co: co, matched: matched,
				},
				norm: norm,
			})
		}
	}
	if !matched {
		r.Reporter.Report(TypeError, s.String(), t.String(), kn, site)
		return Wide
	}
	switch co {
	case layout.MatchChar:
		st.CharCoercions++
	case layout.MatchVoidPtr:
		st.VoidPtrCoercions++
	}
	if e.FAM {
		return Bounds{objBase + uint64(norm.FAMOffset), objBase + size}
	}
	b := Bounds{Lo: alloc.Lo, Hi: alloc.Hi}
	if e.Lo != layout.UnboundedLo {
		b.Lo = uint64(int64(p) + e.Lo)
	}
	if e.Hi != layout.UnboundedHi {
		b.Hi = uint64(int64(p) + e.Hi)
	}
	return b.Intersect(alloc)
}

// typeCheckTrivial is the prefix of the resolution cascade: outcomes
// decidable from the metadata alone, with no table or cache
// consultation — freed slots, header pointers, past-the-object
// offsets, the char[]/void coercion (§6.1's xalancbmk discussion), and
// the §5.3 exact-match fast path (a pointer to the base of an allocation
// checked against its own dynamic type — the dominant case; the layout
// table would map (t, t, 0) to the unbounded containing-array entry,
// which clips to the allocation, so no lookup is needed at all; gated on
// the memo cache so the uncached ablation measures the bare check).
func (r *Runtime) typeCheckTrivial(st *StatsSnapshot, p uint64, s *ctypes.Type, site string,
	t *ctypes.Type, objBase, size uint64) (Bounds, bool) {
	if t == ctypes.Free {
		r.Reporter.Report(UseAfterFree, s.String(), "FREE", 0, site)
		return Wide, true
	}
	if p < objBase {
		// Pointer into the metadata header: can only come from unchecked
		// arithmetic on a legacy-ish path; report as a bounds error.
		r.Reporter.Report(BoundsError, s.String(), t.String(), int64(p)-int64(objBase), site)
		return Wide, true
	}
	k := int64(p - objBase)
	if uint64(k) > size {
		r.Reporter.Report(BoundsError, s.String(), t.String(), k, site)
		return Wide, true
	}
	alloc := Bounds{objBase, objBase + size}
	switch s {
	case ctypes.Char, ctypes.UChar, ctypes.SChar, ctypes.Void:
		return alloc, true
	}
	if r.memo != nil && k == 0 && t == s {
		st.CheckFastPath++
		return alloc, true
	}
	return Bounds{}, false
}

// BoundsGet returns the allocation bounds of p without any type check —
// the reduced instrumentation of the EffectiveSan-bounds variant (§6.2),
// comparable to allocation-bounds-only tools such as LowFat.
func (r *Runtime) BoundsGet(p uint64) Bounds {
	r.stats.BoundsGets.Add(1)
	_, objBase, size, ok := r.DynamicType(p)
	if !ok {
		return Wide
	}
	return Bounds{objBase, objBase + size}
}

// BoundsNarrow narrows b to the sub-object [lo, hi) — Fig. 3(e), applied
// by the instrumentation at field accesses.
func (r *Runtime) BoundsNarrow(b Bounds, lo, hi uint64) Bounds {
	r.stats.BoundsNarrows.Add(1)
	return b.Intersect(Bounds{lo, hi})
}

// Label is a static-type name given as text rather than as a type — an
// intrinsic's argument label such as "memcpy dst" — for the static
// argument of BoundsCheck.
type Label string

func (l Label) String() string { return string(l) }

// escapeLabel is the static-type text of every escape-check report.
const escapeLabel = Label("escaping pointer")

// staticName renders a check's static type for its report. Checks carry
// the type unrendered so that only a failing one pays for the text; a
// nil type, bare or as a nil *ctypes.Type, renders as "".
func staticName(s fmt.Stringer) string {
	if t, ok := s.(*ctypes.Type); s == nil || ok && t == nil {
		return ""
	}
	return s.String()
}

// BoundsCheck verifies an access of size bytes at p against b — Fig.
// 3(g). static names the accessed type for the report: a *ctypes.Type,
// or a Label; it is rendered only if the check fails. It returns true
// if the access is in bounds.
func (r *Runtime) BoundsCheck(p uint64, size uint64, b Bounds, static fmt.Stringer, site string) bool {
	r.stats.BoundsChecks.Add(1)
	if b.Contains(p, size) {
		return true
	}
	r.reportBounds(p, b, static, site)
	return false
}

// EscapeCheck verifies that the pointer value p may escape under b (the
// pointer-escape discipline of Fig. 3(g), inherited from low-fat
// pointers: escaping pointers must stay within their object's bounds so
// future checks can re-derive their type).
func (r *Runtime) EscapeCheck(p uint64, b Bounds, site string) bool {
	r.stats.BoundsChecks.Add(1)
	if b.ContainsEscape(p) {
		return true
	}
	r.reportBounds(p, b, escapeLabel, site)
	return false
}

// reportBounds reports a failed check of p against b. The issue is
// bucketed by the object b came from — the dynamic type at b.Lo, with
// p's offset from that object's base normalised by its layout — not by
// whatever slot p lands in, so the bucket does not depend on which
// object the allocator placed next. Wide bounds have no object: their
// bucket is "legacy".
func (r *Runtime) reportBounds(p uint64, b Bounds, static fmt.Stringer, site string) {
	dyn := "legacy"
	var off int64
	if t, objBase, _, ok := r.DynamicType(b.Lo); ok {
		dyn = t.String()
		off = int64(p) - int64(objBase)
		if t != ctypes.Free && t.IsComplete() && t.Size() > 0 {
			off = r.layoutFor(t).Normalize(off)
		}
	}
	r.Reporter.Report(BoundsError, staticName(static), dyn, off, site)
}
