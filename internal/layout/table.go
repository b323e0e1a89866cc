package layout

import (
	"math"

	"repro/internal/ctypes"
)

// Relative-bounds sentinels. Entries with these values denote the
// unbounded side of an incomplete containing array (the hash table's
// "(T, T, 0) -> -inf..inf" entry of Example 6); the runtime clips them to
// the actual allocation bounds.
const (
	UnboundedLo = math.MinInt64
	UnboundedHi = math.MaxInt64
)

// Entry is one layout hash table value: the bounds of the best sub-object
// of a given static type at a given offset, relative to the queried
// pointer position (the paper's "-delta .. sizeof(S)-delta").
type Entry struct {
	Lo, Hi int64 // relative bounds; may be UnboundedLo/UnboundedHi
	End    bool  // matched a one-past-the-end position only
	FAM    bool  // matched the flexible array member: bounds extend to the
	// end of the allocation, starting at the FAM's offset
}

// Coercion records which lookup satisfied a Match, for diagnostics and
// statistics.
type Coercion int

const (
	// MatchExact: the static type matched a sub-object directly
	// (including the static-T[] vs dynamic-T[N] array containment rule).
	MatchExact Coercion = iota
	// MatchChar: the sub-object is a char buffer; the "sloppy"
	// char[] -> S[] coercion of §5 applied.
	MatchChar
	// MatchVoidPtr: a pointer static type matched a void* slot, or
	// void* matched an arbitrary pointer slot (the (T *) <-> (void *)
	// de-facto coercion of §5/§6).
	MatchVoidPtr
)

// Sentinel keys for the pointer coercions. They are never inspected, only
// used as map keys distinct from every real type.
var (
	voidSlotKey = &ctypes.Type{Kind: ctypes.KindPointer, Tag: "__void_slot"}
	anyPtrKey   = &ctypes.Type{Kind: ctypes.KindPointer, Tag: "__any_ptr"}
)

type entKey struct {
	s *ctypes.Type
	k int64
}

// TypeLayout is the layout hash table for one element type T: the map
//
//	(S, k) -> relative sub-object bounds
//
// for every static type S and normalised offset k with a matching
// sub-object (§5). The paper's tie-breaking rules (prefer wider bounds;
// prefer non-end matches) are applied once, at construction time.
//
// A TypeLayout is a thin per-identity wrapper over an immutable, possibly
// shared tableCore (see intern.go): the core stores the entry relation
// keyed by structural key ids with the element type abstracted to a self
// sentinel, and the wrapper translates its own Elem back to that sentinel
// at query time. Layout-isomorphic types thus share one core while
// queries remain keyed by real type identity.
type TypeLayout struct {
	Elem *ctypes.Type
	Norm // ElemSize, FAMOffset, FAMElemSize: how offsets normalise

	core *tableCore
}

// Norm holds a table's offset-normalisation parameters. It is a plain
// value, so a per-site inline cache can keep a copy and normalise without
// looking the table up (or keeping it alive).
type Norm struct {
	// ElemSize is the layout size of one element: sizeof(T), or the
	// FAM-as-one-element size for records with a flexible array member.
	ElemSize int64
	// FAMOffset is the byte offset of the flexible array member, or -1.
	FAMOffset   int64
	FAMElemSize int64
}

// Normalize maps an arbitrary byte offset into the table's domain
// [0, ElemSize): ordinary types wrap modulo the element size (the dynamic
// type T[N] repeats every sizeof(T) bytes); records with a flexible array
// member map every FAM position into the first FAM element, leaving header
// offsets untouched (§5's alternative normalisation).
func (n Norm) Normalize(k int64) int64 {
	if n.FAMOffset >= 0 {
		if k >= n.FAMOffset && n.FAMElemSize > 0 {
			return (k-n.FAMOffset)%n.FAMElemSize + n.FAMOffset
		}
		return k
	}
	if n.ElemSize <= 0 {
		return 0
	}
	if k >= 0 {
		return k % n.ElemSize
	}
	return (k%n.ElemSize + n.ElemSize) % n.ElemSize
}

// idFor translates a query key to the shared core's key space: the
// wrapper's own element type becomes the self sentinel, every other type
// its registry id.
func (tl *TypeLayout) idFor(key *ctypes.Type) uint64 {
	if key == tl.Elem {
		return selfKeyID
	}
	return keyIDOf(key)
}

// Lookup returns the entry for static type s at normalised offset k. It
// performs only the exact lookup; Match adds the coercion fallbacks.
func (tl *TypeLayout) Lookup(s *ctypes.Type, k int64) (Entry, bool) {
	return tl.core.lookupID(tl.idFor(s), k)
}

// Match performs the full §5 lookup sequence for static type s at raw
// offset k: normalisation, the exact lookup, then the char[] coercion,
// then the void* pointer coercions. It reports which rule matched.
//
// The tie-breaking rule "end pointers are matched last" also applies
// across the lookup stages: an exact hit on a one-past-the-end position
// yields to a non-end coercion hit (e.g. loading through a void* slot
// that happens to sit one past another pointer member).
func (tl *TypeLayout) Match(s *ctypes.Type, k int64) (Entry, Coercion, bool) {
	k = tl.Normalize(k)
	var (
		bestE  Entry
		bestCo Coercion
		found  bool
	)
	try := func(id uint64, co Coercion) bool {
		e, ok := tl.core.lookupID(id, k)
		if !ok {
			return false
		}
		if !found {
			bestE, bestCo, found = e, co, true
		}
		if !e.End {
			bestE, bestCo = e, co
			return true
		}
		return false
	}
	if try(tl.idFor(s), MatchExact) {
		return bestE, bestCo, true
	}
	// char[] -> S[] coercion: the sub-object at k is a raw char buffer.
	// (If the element type is itself a char flavour, its key was sealed
	// as the self sentinel — translate like any other query key.)
	for i, ck := range charKeys {
		id := charKeyIDs[i]
		if ck == tl.Elem {
			id = selfKeyID
		}
		if try(id, MatchChar) {
			return bestE, bestCo, true
		}
	}
	if s.Kind == ctypes.KindPointer {
		if s.Elem == ctypes.Void {
			// void* static type matches any pointer slot.
			if try(anyPtrKeyID, MatchVoidPtr) {
				return bestE, bestCo, true
			}
		} else if try(voidSlotKeyID, MatchVoidPtr) {
			// Any pointer static type matches a void* slot.
			return bestE, bestCo, true
		}
	}
	return bestE, bestCo, found
}

// Build constructs the layout hash table for element type t. The result
// holds a freshly sealed, not-yet-interned core; Cache.For routes it
// through the intern pool so isomorphic types share storage.
func Build(t *ctypes.Type) *TypeLayout {
	tl := &TypeLayout{
		Elem: t,
		Norm: Norm{ElemSize: sizeForLayout(t), FAMOffset: -1},
	}
	if t.IsRecord() && t.HasFAM() {
		fam := t.FAM()
		tl.FAMOffset = fam.Offset
		tl.FAMElemSize = fam.Type.Elem.Size()
	}
	b := &builder{entries: make(map[entKey]Entry)}
	b.emitObject(t, 0)
	// The containing incomplete array T[]: a pointer to any element start
	// may roam the whole allocation (Fig. 2 rule (d) applied to the
	// unbounded dynamic array; Example 6's "(T, T, 0) -> -inf..inf").
	// Note: when t is itself an array type (an allocation of array
	// elements), the unbounded entry is installed for t only, not for
	// t.Elem: a pointer into one row of an int[3][N] allocation checked
	// against int[] is confined to its row — crossing rows is precisely
	// the sub-object overflow EffectiveSan detects.
	b.add(t, 0, Entry{Lo: UnboundedLo, Hi: UnboundedHi})
	tl.core = seal(t, tl.ElemSize, tl.FAMOffset, tl.FAMElemSize, b.entries)
	return tl
}

type builder struct {
	entries map[entKey]Entry
}

// add installs an entry under key (s, k), applying the tie-breaking rules
// if an entry already exists: non-end matches beat end matches, then wider
// bounds win, then the earlier (lower Lo) sub-object.
func (b *builder) add(s *ctypes.Type, k int64, e Entry) {
	key := entKey{s, k}
	if prev, ok := b.entries[key]; ok && !better(e, prev) {
		return
	}
	b.entries[key] = e
}

// better reports whether a should replace b under the paper's tie-breaking
// rules.
func better(a, b Entry) bool {
	if a.End != b.End {
		return !a.End
	}
	aw, bw := width(a), width(b)
	if aw != bw {
		return aw > bw
	}
	return a.Lo < b.Lo
}

// width returns a comparable measure of an entry's bounds width;
// unbounded and FAM entries rank widest.
func width(e Entry) uint64 {
	if e.FAM || e.Lo == UnboundedLo || e.Hi == UnboundedHi {
		return math.MaxUint64
	}
	return uint64(e.Hi - e.Lo)
}

// keysFor returns the hash table keys a sub-object of type s populates:
// the type itself; for complete arrays additionally the element type
// (static S[] matches a sub-object S[N]); for pointers additionally the
// coercion sentinels.
func (b *builder) keysFor(s *ctypes.Type) []*ctypes.Type {
	keys := []*ctypes.Type{s}
	if s.Kind == ctypes.KindArray && s.Len != ctypes.IncompleteLen {
		keys = append(keys, s.Elem)
	}
	if s.Kind == ctypes.KindPointer {
		keys = append(keys, anyPtrKey)
		if s.Elem == ctypes.Void {
			keys = append(keys, voidSlotKey)
		}
	}
	return keys
}

// emitObject installs the entries for a sub-object of type t whose base
// sits at offset `base` within the element, then recurses into its
// members/elements. Every position k where L(T,k) contains an entry for
// this sub-object receives one:
//
//   - the start position (delta 0),
//   - the one-past-the-end position (delta sizeof, End),
//   - for complete arrays, every interior element boundary (rule (d)),
//   - for flexible array members, the normalised first-element positions,
//     flagged FAM so the runtime extends them to the allocation bounds.
func (b *builder) emitObject(t *ctypes.Type, base int64) {
	size := sizeForLayout(t)
	for _, key := range b.keysFor(t) {
		b.add(key, base, Entry{Lo: 0, Hi: size})
		// One-past-the-end entries are installed for real type keys only:
		// the pointer-coercion sentinels must not let an unrelated pointer
		// type match one past a pointer slot.
		if key != anyPtrKey && key != voidSlotKey {
			b.add(key, base+size, Entry{Lo: -size, Hi: 0, End: true})
		}
	}
	switch t.Kind {
	case ctypes.KindArray:
		if t.Len == ctypes.IncompleteLen || t.Elem.Size() == 0 {
			return
		}
		es := t.Elem.Size()
		for i := int64(1); i < t.Len; i++ {
			for _, key := range b.keysFor(t) {
				b.add(key, base+i*es, Entry{Lo: -i * es, Hi: size - i*es})
			}
		}
		for i := int64(0); i < t.Len; i++ {
			b.emitObject(t.Elem, base+i*es)
		}
	case ctypes.KindStruct, ctypes.KindClass, ctypes.KindUnion:
		for i := range t.Fields {
			f := &t.Fields[i]
			if f.IsFAM {
				b.emitFAM(t, f, base)
				continue
			}
			b.emitObject(f.Type, base+f.Offset)
		}
	}
}

// emitFAM installs the entries for a flexible array member: the element
// interior is emitted normally (one element at the FAM offset — lookup
// normalisation folds all elements onto it), and the "containing array"
// entries are flagged FAM so the runtime substitutes the true array
// bounds, which run from the FAM offset to the end of the allocation.
func (b *builder) emitFAM(t *ctypes.Type, f *ctypes.Field, base int64) {
	elem := f.Type.Elem
	es := elem.Size()
	off := base + f.Offset
	b.emitObject(elem, off)
	for _, key := range b.keysFor(f.Type) { // f.Type is U[]; keysFor yields U[] only
		b.add(key, off, Entry{FAM: true})
		b.add(key, off+es, Entry{FAM: true})
	}
	// Static type U[] is written as element type U in checks; install the
	// FAM-wide entries under the element key too (they out-rank the plain
	// one-element entries emitted above).
	b.add(elem, off, Entry{FAM: true})
	b.add(elem, off+es, Entry{FAM: true})
	if elem.Kind == ctypes.KindPointer {
		b.add(anyPtrKey, off, Entry{FAM: true})
		if elem.Elem == ctypes.Void {
			b.add(voidSlotKey, off, Entry{FAM: true})
		}
	}
}
