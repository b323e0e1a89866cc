package core

import (
	"sync/atomic"

	"repro/internal/ctypes"
	"repro/internal/layout"
)

// The §5.3 check cache. The result of a type check depends only on the
// dynamic type t, the (normalised) offset k and the static type s — not
// on the pointer value — so the layout-table match can be memoised: the
// cache maps (typeID(t), k, s) to the relative-bounds Entry the layout
// hash table produced, and TypeCheck rebuilds the absolute bounds from
// it without re-running the Match lookup sequence. The paper performs
// the same caching at instrumented call sites ("the result of the last
// type check is cached and reused"); here the cache is shared by all
// sites, which subsumes the per-site form.
//
// The cache is a fixed-size, direct-mapped, sharded table. Each slot is
// an atomic.Pointer to an immutable entry, so lookups and inserts are
// lock-free and safe under concurrent runtime use; a colliding insert
// simply evicts the previous occupant (direct-mapped replacement).

// Geometry: 16 shards of 256 slots (4096 entries total). SPEC workloads
// touch a few hundred distinct (t, k, s) triples, so the table rarely
// evicts.
const (
	checkCacheShards     = 16  // power of two
	checkCacheShardSlots = 256 // power of two
)

// checkKey identifies one memoised type-check query.
type checkKey struct {
	tid uint64       // metadata type id of the dynamic type t
	k   int64        // offset, normalised into the layout table's domain
	s   *ctypes.Type // static type (hash-consed: pointer identity)
}

// checkEntry is one immutable cache entry: the key plus the layout
// match result it memoises.
type checkEntry struct {
	checkKey
	e       layout.Entry
	co      layout.Coercion
	matched bool
}

// checkCache is the sharded memo table. A nil *checkCache (cache
// disabled) is valid: lookups miss and stores are dropped.
type checkCache struct {
	shards [checkCacheShards][checkCacheShardSlots]atomic.Pointer[checkEntry]
}

// newCheckCache builds an empty cache, or nil (the cache disabled) when
// disabled is set.
func newCheckCache(disabled bool) *checkCache {
	if disabled {
		return nil
	}
	return &checkCache{}
}

// hash mixes the key into a slot index. sid is the interned id of the
// static type (static types are registered in the same id space as
// dynamic types, so the triple hashes without pointer arithmetic).
func checkHash(tid uint64, k int64, sid uint64) uint64 {
	h := tid*0x9e3779b97f4a7c15 ^ uint64(k)*0xbf58476d1ce4e5b9 ^ sid*0x94d049bb133111eb
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return h
}

func (c *checkCache) slot(tid uint64, k int64, sid uint64) *atomic.Pointer[checkEntry] {
	h := checkHash(tid, k, sid)
	return &c.shards[h&(checkCacheShards-1)][(h>>4)&(checkCacheShardSlots-1)]
}

// lookup returns the memoised match result for (tid, k, s), if present.
func (c *checkCache) lookup(tid uint64, k int64, sid uint64, s *ctypes.Type) (layout.Entry, layout.Coercion, bool, bool) {
	if c == nil {
		return layout.Entry{}, 0, false, false
	}
	e := c.slot(tid, k, sid).Load()
	if e == nil || e.tid != tid || e.k != k || e.s != s {
		return layout.Entry{}, 0, false, false
	}
	return e.e, e.co, e.matched, true
}

// store memoises a match result, evicting any colliding occupant.
func (c *checkCache) store(tid uint64, k int64, sid uint64, s *ctypes.Type,
	e layout.Entry, co layout.Coercion, matched bool) {
	if c == nil {
		return
	}
	c.slot(tid, k, sid).Store(&checkEntry{
		checkKey: checkKey{tid: tid, k: k, s: s},
		e:        e, co: co, matched: matched,
	})
}
