package layout

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ctypes"
)

// This file is the structural-interning half of the layout layer: built
// tables are sealed into immutable, compact tableCores, fingerprinted
// over their STRUCTURE (entries, coercion keys, FAM shape, element
// size — never the element type's identity), and deduplicated in an
// intern pool. Thousands of layout-isomorphic types (same field layout
// under different tags and field names, as a type-explosion frontend
// emits) then share one core; only the thin per-identity TypeLayout
// wrapper is distinct. See docs/ARCHITECTURE.md, "Layout metadata:
// interning and footprint".

// selfKey is the sentinel substituted for the element type's OWN key
// when a table is sealed: every table contains entries keyed by its own
// element type (the unbounded containing-array entry, the whole-element
// start/end entries), and those keys would otherwise make every core
// unique by identity. TypeLayout.Match/Lookup translate a query for the
// wrapper's Elem back to this sentinel, so two isomorphic types share a
// core without ever matching each OTHER's type: a query for Gen1
// against Gen0's wrapper is keyed by Gen1's real id, which the shared
// core does not contain.
var selfKey = &ctypes.Type{Kind: ctypes.KindPointer, Tag: "__self"}

// keyIDs assigns a process-unique dense id to every *ctypes.Type ever
// used as a layout key (hash-consed types make pointer identity the
// equivalence, so the id is a stable name for the type). Fingerprints
// and the core's key index are built over these ids: two cores are
// interchangeable exactly when their key-id sets and entries coincide,
// which (selfKey aside) requires the SAME nested named types — types
// embedding different named records never intern, preserving detection.
var (
	keyIDMap  sync.Map // *ctypes.Type -> uint64
	nextKeyID atomic.Uint64
)

func keyIDOf(t *ctypes.Type) uint64 {
	if v, ok := keyIDMap.Load(t); ok {
		return v.(uint64)
	}
	id := nextKeyID.Add(1)
	if v, raced := keyIDMap.LoadOrStore(t, id); raced {
		return v.(uint64)
	}
	return id
}

// Cached ids of the fixed lookup keys Match consults on every call, so
// the hot path performs at most one keyIDMap lookup (for the static
// type itself).
var (
	selfKeyID     = keyIDOf(selfKey)
	anyPtrKeyID   = keyIDOf(anyPtrKey)
	voidSlotKeyID = keyIDOf(voidSlotKey)
	charKeys      = [3]*ctypes.Type{ctypes.Char, ctypes.UChar, ctypes.SChar}
	charKeyIDs    = [3]uint64{keyIDOf(ctypes.Char), keyIDOf(ctypes.UChar), keyIDOf(ctypes.SChar)}
)

// packedEntry is the compact 16-byte encoding of one (offset, Entry)
// pair. Offsets and bounds of real programs fit int32 comfortably (a
// larger type could not even be built: construction visits every
// element); the unbounded sentinels become flag bits. seal falls back
// to wideEntry if any value overflows, so the packing is a size
// optimisation, never a correctness assumption.
type packedEntry struct {
	k      int32 // normalised offset within the element
	lo, hi int32
	flags  uint8
}

const (
	flagEnd uint8 = 1 << iota
	flagFAM
	flagUnboundedLo
	flagUnboundedHi
)

func packEntry(k int64, e Entry) (packedEntry, bool) {
	p := packedEntry{}
	if k < math.MinInt32 || k > math.MaxInt32 {
		return p, false
	}
	p.k = int32(k)
	switch {
	case e.Lo == UnboundedLo:
		p.flags |= flagUnboundedLo
	case e.Lo < math.MinInt32 || e.Lo > math.MaxInt32:
		return p, false
	default:
		p.lo = int32(e.Lo)
	}
	switch {
	case e.Hi == UnboundedHi:
		p.flags |= flagUnboundedHi
	case e.Hi < math.MinInt32 || e.Hi > math.MaxInt32:
		return p, false
	default:
		p.hi = int32(e.Hi)
	}
	if e.End {
		p.flags |= flagEnd
	}
	if e.FAM {
		p.flags |= flagFAM
	}
	return p, true
}

func (p packedEntry) entry() Entry {
	e := Entry{Lo: int64(p.lo), Hi: int64(p.hi),
		End: p.flags&flagEnd != 0, FAM: p.flags&flagFAM != 0}
	if p.flags&flagUnboundedLo != 0 {
		e.Lo = UnboundedLo
	}
	if p.flags&flagUnboundedHi != 0 {
		e.Hi = UnboundedHi
	}
	return e
}

// wideEntry is the uncompressed fallback representation.
type wideEntry struct {
	k int64
	e Entry
}

// tableCore is the immutable, shareable body of a layout table: the
// whole (key, offset) -> Entry relation in two parallel sorted arrays
// consumed by binary search — no Go map, no per-entry allocation. One
// core may back many TypeLayout wrappers (structural interning).
type tableCore struct {
	elemSize    int64
	famOffset   int64
	famElemSize int64
	// keyIDs is sorted ascending; spans[i]..spans[i+1] delimit key i's
	// entries (sorted by offset) in ents, or in wide when the compact
	// encoding overflowed.
	keyIDs []uint64
	spans  []uint32
	ents   []packedEntry
	wide   []wideEntry
	fp     uint64 // structural fingerprint (intern pool hash key)
	bytes  uint64 // modelled resident footprint of this core
}

// Modelled footprint constants (documented in docs/ARCHITECTURE.md):
// the core struct header, and the per-cached-identity overhead of a
// TypeLayout wrapper plus its cache index entry. The accounting is exact
// over this model — every build moves LayoutBytesResident by exactly the
// modelled cost of the structures it created.
const (
	coreHeaderBytes = 144
	wrapperBytes    = 88
)

func (c *tableCore) footprint() uint64 {
	return coreHeaderBytes +
		8*uint64(len(c.keyIDs)) + 4*uint64(len(c.spans)) +
		16*uint64(len(c.ents)) + 32*uint64(len(c.wide))
}

// lookupID is the core lookup: binary search the key index, then the
// key's offset-sorted entry span.
func (c *tableCore) lookupID(id uint64, k int64) (Entry, bool) {
	i := sort.Search(len(c.keyIDs), func(i int) bool { return c.keyIDs[i] >= id })
	if i >= len(c.keyIDs) || c.keyIDs[i] != id {
		return Entry{}, false
	}
	lo, hi := c.spans[i], c.spans[i+1]
	if c.wide != nil {
		w := c.wide[lo:hi]
		j := sort.Search(len(w), func(j int) bool { return w[j].k >= k })
		if j < len(w) && w[j].k == k {
			return w[j].e, true
		}
		return Entry{}, false
	}
	if k < math.MinInt32 || k > math.MaxInt32 {
		return Entry{}, false
	}
	k32 := int32(k)
	s := c.ents[lo:hi]
	j := sort.Search(len(s), func(j int) bool { return s[j].k >= k32 })
	if j < len(s) && s[j].k == k32 {
		return s[j].entry(), true
	}
	return Entry{}, false
}

func (c *tableCore) numEntries() int { return len(c.ents) + len(c.wide) }

// fingerprint hashes the core's structure (FNV-1a over the canonical
// serialisation: geometry, then key ids with their sorted entries).
// Key ids are process-local names for hash-consed types, so the hash is
// stable within a process — all the intern pool needs.
func (c *tableCore) fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(c.elemSize))
	mix(uint64(c.famOffset))
	mix(uint64(c.famElemSize))
	for i, id := range c.keyIDs {
		mix(id)
		mix(uint64(c.spans[i+1] - c.spans[i]))
	}
	if c.wide != nil {
		mix(uint64(len(c.wide)))
		for _, w := range c.wide {
			mix(uint64(w.k))
			mix(uint64(w.e.Lo))
			mix(uint64(w.e.Hi))
			var fl uint64
			if w.e.End {
				fl |= 1
			}
			if w.e.FAM {
				fl |= 2
			}
			mix(fl)
		}
		return h
	}
	for _, p := range c.ents {
		mix(uint64(uint32(p.k)))
		mix(uint64(uint32(p.lo))<<32 | uint64(uint32(p.hi)))
		mix(uint64(p.flags))
	}
	return h
}

// equal is the collision-proof structural comparison behind the
// fingerprint: two cores are interchangeable iff every field the
// lookups consult coincides.
func (c *tableCore) equal(o *tableCore) bool {
	if c.elemSize != o.elemSize || c.famOffset != o.famOffset ||
		c.famElemSize != o.famElemSize ||
		len(c.keyIDs) != len(o.keyIDs) || len(c.ents) != len(o.ents) ||
		len(c.wide) != len(o.wide) || (c.wide == nil) != (o.wide == nil) {
		return false
	}
	for i := range c.keyIDs {
		if c.keyIDs[i] != o.keyIDs[i] || c.spans[i+1] != o.spans[i+1] {
			return false
		}
	}
	for i := range c.ents {
		if c.ents[i] != o.ents[i] {
			return false
		}
	}
	for i := range c.wide {
		if c.wide[i] != o.wide[i] {
			return false
		}
	}
	return true
}

// seal converts a builder's entry map into the compact immutable core,
// substituting selfKey for entries keyed by the element type itself so
// the result is identity-free and internable.
func seal(elem *ctypes.Type, elemSize, famOffset, famElemSize int64,
	entries map[entKey]Entry) *tableCore {
	type flat struct {
		id uint64
		k  int64
		e  Entry
	}
	all := make([]flat, 0, len(entries))
	packable := true
	for ek, e := range entries {
		key := ek.s
		if key == elem {
			key = selfKey
		}
		all = append(all, flat{keyIDOf(key), ek.k, e})
		if packable {
			if _, ok := packEntry(ek.k, e); !ok {
				packable = false
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].id != all[j].id {
			return all[i].id < all[j].id
		}
		return all[i].k < all[j].k
	})
	c := &tableCore{elemSize: elemSize, famOffset: famOffset, famElemSize: famElemSize}
	for i, f := range all {
		if i == 0 || f.id != all[i-1].id {
			c.keyIDs = append(c.keyIDs, f.id)
			c.spans = append(c.spans, uint32(i))
		}
		if packable {
			p, _ := packEntry(f.k, f.e)
			c.ents = append(c.ents, p)
		} else {
			c.wide = append(c.wide, wideEntry{k: f.k, e: f.e})
		}
	}
	c.spans = append(c.spans, uint32(len(all)))
	c.fp = c.fingerprint()
	c.bytes = c.footprint()
	return c
}

// internPool deduplicates cores by structural fingerprint, so the
// resident-bytes accounting charges each shared core exactly once no
// matter how many cached identities reference it. The owning Cache's
// mutex guards it.
type internPool struct {
	m map[uint64][]*tableCore // fingerprint -> collision list
}

// intern returns the canonical core equal to c — c itself when it is
// new. shared reports whether an existing core was reused; bytesAdded
// is the footprint newly made resident (zero when shared).
func (p *internPool) intern(c *tableCore) (canon *tableCore, shared bool, bytesAdded uint64) {
	if p.m == nil {
		p.m = make(map[uint64][]*tableCore)
	}
	for _, cand := range p.m[c.fp] {
		if cand.equal(c) {
			return cand, true, 0
		}
	}
	p.m[c.fp] = append(p.m[c.fp], c)
	return c, false, c.bytes
}

// size returns the number of pooled cores (tests).
func (p *internPool) size() int {
	n := 0
	for _, list := range p.m {
		n += len(list)
	}
	return n
}
