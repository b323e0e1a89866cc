package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/layout"
)

// The §5.3 per-site inline cache. The paper caches the result of the
// last type check at each instrumented call site ("the result of the
// last type_check is cached and reused if the input (pointer, type) pair
// is unchanged"); the shared memo table in checkcache.go subsumes that
// behaviour statistically but pays hashing and shard indexing on every
// lookup. This file models the per-site form directly: every static
// OpTypeCheck carries a stable site ID (assigned by the instrument pass,
// see package mir), and each site owns exactly one entry — on the hot
// path a single pointer load, the offset's normalisation and three
// comparisons, with no hashing and no layout-cache lookup.
//
// This is level 2 of the three-level cache (docs/ARCHITECTURE.md):
// exact-match fast path → per-site inline cache → shared sharded cache.
// The entry reuses checkEntry and its (tid, k, s) key, where k is the
// offset normalised into the layout table's domain, so a site that walks
// an array of T hits on every element, not just the first. It also
// carries the normalisation parameters of tid's table (layout.Norm), so
// a hit normalises the raw offset itself instead of fetching the table
// through the layout cache's sync.Map. The parameters depend on tid
// alone, so they are never stale. Keying on the metadata
// type id keeps the cache temporal-safe for free: free() and realloc()
// rebind the allocation's metadata (tid changes to FREE or to the new
// allocation's type), so a stale entry can never validate — the same
// argument that makes the shared cache safe, tested by the quarantine
// regression suite in internal/sanitizers.
//
// Site IDs are assigned per instrumented program, but a Runtime is built
// before (or independently of) instrumentation, so the slot array grows
// on demand: the hot path reads an immutable slice through an atomic
// pointer; growth republishes a larger copy under a mutex. A store that
// races with growth can land in the superseded slice and be lost — that
// is a missed caching opportunity, never a wrong result, since every hit
// revalidates the full key.

// inlineEntry is one immutable inline-cache entry: a memoised match
// plus the normalisation of its dynamic type's layout table.
type inlineEntry struct {
	checkEntry
	norm layout.Norm
}

// inlineSitesInit is the initial slot count; it grows by doubling.
const inlineSitesInit = 64

// inlineCache is the per-site cache: slot i serves site ID i+1. A nil
// *inlineCache (disabled) returns no slots.
type inlineCache struct {
	mu    sync.Mutex
	slots atomic.Pointer[[]atomic.Pointer[inlineEntry]]
}

func newInlineCache(disabled bool) *inlineCache {
	if disabled {
		return nil
	}
	return &inlineCache{}
}

// slot returns the entry slot for a site ID, or nil when the cache is
// disabled or the check is unsited (siteID <= 0, e.g. a direct
// Runtime.TypeCheck call).
func (c *inlineCache) slot(siteID int64) *atomic.Pointer[inlineEntry] {
	if c == nil || siteID <= 0 {
		return nil
	}
	s := c.slots.Load()
	if s == nil || siteID > int64(len(*s)) {
		return c.grow(siteID)
	}
	return &(*s)[siteID-1]
}

// grow publishes a slot array covering siteID, copying existing entries.
func (c *inlineCache) grow(siteID int64) *atomic.Pointer[inlineEntry] {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.slots.Load()
	if s != nil && siteID <= int64(len(*s)) {
		return &(*s)[siteID-1] // another goroutine grew it first
	}
	n := inlineSitesInit
	for int64(n) < siteID {
		n <<= 1
	}
	next := make([]atomic.Pointer[inlineEntry], n)
	if s != nil {
		for i := range *s {
			next[i].Store((*s)[i].Load())
		}
	}
	c.slots.Store(&next)
	return &next[siteID-1]
}

// sites returns the current slot capacity (for tests).
func (c *inlineCache) sites() int {
	if c == nil {
		return 0
	}
	s := c.slots.Load()
	if s == nil {
		return 0
	}
	return len(*s)
}
