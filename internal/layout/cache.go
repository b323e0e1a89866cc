package layout

import (
	"sync"
	"sync/atomic"

	"repro/internal/ctypes"
)

// The layout cache. The paper emits one layout table per type per module
// at compile time and never discards it; this cache builds the same
// tables lazily and likewise keeps every one for the life of the
// runtime. Reads are one sync.Map load; inserts are serialised by one
// mutex, and every cached table's core is deduplicated through the
// structural intern pool so isomorphic types are charged once — see
// docs/ARCHITECTURE.md, "Layout metadata: interning and footprint".

// Event reports what one ForStats call did, so the runtime can sink
// footprint accounting into core.Stats without layout importing core.
type Event struct {
	Built    bool // a table was built (cache miss)
	Interned bool // the built table's core matched the intern pool (shared)
	// Bytes is the modelled footprint the build made resident: the new
	// core (zero when interned) plus the wrapper.
	Bytes uint64
}

// Cache builds and memoises TypeLayouts. It is safe for concurrent use:
// the runtime consults it on every type check that misses its check
// caches, so a hit is one lock-free sync.Map load. Inserts take mu.
type Cache struct {
	m    sync.Map   // *ctypes.Type -> *TypeLayout
	mu   sync.Mutex // serialises inserts; guards pool
	pool internPool

	// Footprint gauges, mirrored into core.Stats by the runtime via
	// ForStats events.
	resident atomic.Uint64
	built    atomic.Uint64
	interned atomic.Uint64
}

// NewCache returns an empty layout cache.
func NewCache() *Cache { return &Cache{} }

// For returns the layout hash table for element type t, building it on
// first use. In the paper the tables are emitted at compile time, one weak
// symbol per type per module; building lazily at runtime is equivalent
// because the tables are pure functions of the type.
func (c *Cache) For(t *ctypes.Type) *TypeLayout {
	tl, _ := c.ForStats(t)
	return tl
}

// ForStats is For plus the footprint event the call produced (zero on a
// cache hit).
func (c *Cache) ForStats(t *ctypes.Type) (*TypeLayout, Event) {
	if v, ok := c.m.Load(t); ok {
		return v.(*TypeLayout), Event{}
	}
	// Miss: build outside the lock (construction is the expensive part
	// and is pure), then insert under it.
	tl := Build(t)
	c.mu.Lock()
	if v, ok := c.m.Load(t); ok {
		// A concurrent checker built the same table first; keep its copy
		// so every caller sees one canonical *TypeLayout per type. The
		// loser's core was never interned and is dropped unreferenced.
		c.mu.Unlock()
		return v.(*TypeLayout), Event{}
	}
	canon, shared, added := c.pool.intern(tl.core)
	tl.core = canon
	c.m.Store(t, tl)
	c.mu.Unlock()

	ev := Event{Built: true, Interned: shared, Bytes: added + wrapperBytes}
	c.built.Add(1)
	if shared {
		c.interned.Add(1)
	}
	c.resident.Add(ev.Bytes)
	return tl, ev
}

// Len returns the number of memoised layouts (for tests).
func (c *Cache) Len() int {
	n := 0
	c.m.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// TablesBuilt returns the number of tables constructed (cache misses).
func (c *Cache) TablesBuilt() uint64 { return c.built.Load() }

// TablesInterned returns how many built tables reused an existing
// structural core from the intern pool.
func (c *Cache) TablesInterned() uint64 { return c.interned.Load() }

// ResidentBytes returns the modelled resident footprint of the cache:
// every pooled core charged once plus one wrapper per cached identity.
func (c *Cache) ResidentBytes() uint64 { return c.resident.Load() }

// PoolSize returns the number of distinct structural cores interned
// (for tests).
func (c *Cache) PoolSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pool.size()
}
