package mir

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/lowfat"
	"repro/internal/mem"
)

// Env abstracts the allocation services a program runs against. The
// uninstrumented baseline uses PlainEnv (a bare low-fat heap); the
// EffectiveSan configurations use EffEnv (typed allocations with META
// headers); baseline sanitizers provide their own Env so they control
// object layout (e.g. AddressSanitizer's redzones).
type Env interface {
	// Malloc allocates size bytes for an object whose inferred element
	// type is t (which plain environments may ignore). It returns the
	// object pointer, and panics only on simulator exhaustion.
	Malloc(t *ctypes.Type, size uint64, kind core.AllocKind, site string) uint64
	// Free deallocates the object at p.
	Free(p uint64, site string)
	// Realloc resizes the object at p, preserving contents.
	Realloc(p uint64, size uint64, site string) uint64
	// LegacyAlloc allocates from the non-low-fat legacy region, modelling
	// custom memory allocators and uninstrumented libraries.
	LegacyAlloc(size uint64) uint64
	// Mem returns the address space programs execute in.
	Mem() *mem.Memory
}

// Hooks is the optional runtime-interception interface baseline
// sanitizers implement. The interpreter invokes hooks around the
// corresponding operations; EffectiveSan does not use hooks (its checks
// are explicit instructions inserted by the instrumenter).
type Hooks interface {
	// Access is called before every load (write=false) and store
	// (write=true) of size bytes at p with the access's static type.
	Access(p uint64, size uint64, write bool, static *ctypes.Type, site string)
	// Cast is called at explicit pointer-cast sites.
	Cast(p uint64, from, to *ctypes.Type, site string)
	// Derive is called when a pointer is derived from another: field
	// selection (field=true, with the field's extent) or indexing.
	Derive(newPtr, basePtr uint64, field bool, fieldLo, fieldHi uint64, site string)
	// PtrStore/PtrLoad are called when a pointer value is written to or
	// read from memory (SoftBound-style shadow propagation).
	PtrStore(addr, val uint64, site string)
	PtrLoad(addr, val uint64, site string)
}

// PlainEnv is the uninstrumented environment: a low-fat heap with no
// metadata and no checks. It is the baseline of Figs. 8-10.
type PlainEnv struct {
	heap  *lowfat.Allocator
	alloc lowfat.Heap // allocation route: the central heap, or a per-worker magazine
}

// NewPlainEnv returns a plain environment over m (a fresh memory if nil).
func NewPlainEnv(m *mem.Memory) *PlainEnv {
	if m == nil {
		m = mem.New()
	}
	heap := lowfat.New(m, lowfat.Options{})
	return &PlainEnv{heap: heap, alloc: heap}
}

// View returns a shallow copy of the environment that routes allocations
// through h, a per-worker magazine over the same central heap and
// memory — the uninstrumented analogue of core.Runtime.HeapView. A nil h
// returns the receiver unchanged.
func (e *PlainEnv) View(h lowfat.Heap) *PlainEnv {
	if h == nil {
		return e
	}
	cp := *e
	cp.alloc = h
	return &cp
}

// Heap exposes the underlying allocator (for memory statistics).
func (e *PlainEnv) Heap() *lowfat.Allocator { return e.heap }

// Mem returns the address space.
func (e *PlainEnv) Mem() *mem.Memory { return e.heap.Mem() }

// Malloc allocates size bytes, ignoring the type.
func (e *PlainEnv) Malloc(_ *ctypes.Type, size uint64, _ core.AllocKind, site string) uint64 {
	p, err := e.alloc.Alloc(size)
	if err != nil {
		panic(simError{fmt.Sprintf("%s: %v", site, err)})
	}
	return p
}

// Free returns the object to the heap. Invalid frees are ignored, like an
// unchecked libc in the best case.
func (e *PlainEnv) Free(p uint64, _ string) {
	if p == 0 {
		return
	}
	_ = e.alloc.Free(p)
}

// Realloc resizes by allocate-copy-free.
func (e *PlainEnv) Realloc(p uint64, size uint64, site string) uint64 {
	q, err := e.alloc.Alloc(size)
	if err != nil {
		panic(simError{fmt.Sprintf("%s: %v", site, err)})
	}
	if p != 0 {
		old := lowfat.Size(p)
		n := min(old, size)
		if old == lowfat.SizeMax {
			n = size
		}
		e.Mem().Copy(q, p, n)
		_ = e.alloc.Free(p)
	}
	return q
}

// LegacyAlloc carves from the legacy region.
func (e *PlainEnv) LegacyAlloc(size uint64) uint64 { return e.alloc.LegacyAlloc(size) }

// EffEnv is the EffectiveSan environment: allocations are typed through
// the core runtime (type_malloc/type_free), and the instrumentation
// pseudo-ops consult the same runtime. Each environment keeps its own
// cache of the metadata type ids it binds, so the sharded harness's
// per-worker environments resolve them without sharing a cache line.
type EffEnv struct {
	RT *core.Runtime

	ids core.TypeIDCache
}

// NewEffEnv returns an environment over the given runtime.
func NewEffEnv(rt *core.Runtime) *EffEnv { return &EffEnv{RT: rt} }

// Mem returns the address space.
func (e *EffEnv) Mem() *mem.Memory { return e.RT.Mem() }

// Malloc is type_malloc: size bytes bound to dynamic type t.
func (e *EffEnv) Malloc(t *ctypes.Type, size uint64, kind core.AllocKind, site string) uint64 {
	if t == nil {
		// malloc with no inferrable lvalue type: bind char[] (§6's
		// fallback for the simple program analysis).
		t = ctypes.Char
	}
	p, err := e.RT.TypeMallocCached(&e.ids, t, size, kind)
	if err != nil {
		panic(simError{fmt.Sprintf("%s: %v", site, err)})
	}
	return p
}

// Free is type_free.
func (e *EffEnv) Free(p uint64, site string) { e.RT.TypeFree(p, site) }

// LegacyAlloc carves from the legacy region (checks on such pointers
// succeed with wide bounds).
func (e *EffEnv) LegacyAlloc(size uint64) uint64 { return e.RT.LegacyAlloc(size) }

// Realloc is type_realloc.
func (e *EffEnv) Realloc(p uint64, size uint64, site string) uint64 {
	q, err := e.RT.TypeRealloc(p, size, site)
	if err != nil {
		panic(simError{fmt.Sprintf("%s: %v", site, err)})
	}
	return q
}

// simError is panicked for unrecoverable simulation failures (heap
// exhaustion, executing invalid IR, step limits). Interp.Run recovers it
// into an error.
type simError struct{ msg string }

func (e simError) Error() string { return e.msg }
