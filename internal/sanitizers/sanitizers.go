// Package sanitizers provides behavioural models of the sanitizers
// EffectiveSan is compared against in the paper (Fig. 1 and §6.2):
// AddressSanitizer, LowFat, BaggyBounds, SoftBound, Intel MPX, CETS,
// SoftBound+CETS, and the C++ cast checkers (CaVer, TypeSan, HexType,
// UBSan, libcrunch).
//
// The paper's baselines are separate LLVM/GCC/hardware systems; here each
// is reimplemented over the shared substrate as a runtime-interception
// sanitizer: an allocation environment (mir.Env) plus execution hooks
// (mir.Hooks) that reproduce what the original detects and — just as
// importantly — what it misses (ASan's redzone skipping, allocation-
// granular bounds tools' blindness to sub-object overflows, cast
// checkers' blindness to implicit casts, and so on). The Fig. 1 capability
// matrix is regenerated by running the error-injection corpus
// (internal/bugsuite) under every tool.
package sanitizers

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/lowfat"
	"repro/internal/mem"
)

// Sanitizer is a runnable baseline: an allocation environment plus
// optional execution hooks and an error reporter.
type Sanitizer interface {
	Name() string
	Reporter() *core.Reporter

	// Env methods (mir.Env).
	Malloc(t *ctypes.Type, size uint64, kind core.AllocKind, site string) uint64
	Free(p uint64, site string)
	Realloc(p uint64, size uint64, site string) uint64
	LegacyAlloc(size uint64) uint64
	Mem() *mem.Memory

	// HeapStats reports the peak live heap bytes and the simulated
	// memory materialised, for RunResult.
	HeapStats() (peak uint64, touched int64)

	// Hooks methods (mir.Hooks).
	Access(p uint64, size uint64, write bool, static *ctypes.Type, site string)
	Cast(p uint64, from, to *ctypes.Type, site string)
	Derive(newPtr, basePtr uint64, field bool, fieldLo, fieldHi uint64, site string)
	PtrStore(addr, val uint64, site string)
	PtrLoad(addr, val uint64, site string)
}

// base provides the shared allocation plumbing and no-op hooks.
type base struct {
	name string
	heap *lowfat.Allocator
	rep  *core.Reporter

	mu     sync.Mutex
	allocs map[uint64]*allocRec // slot base -> record
	gen    uint64
}

// allocRec tracks one live or freed allocation.
type allocRec struct {
	lo, hi uint64 // object extent (excluding any redzones)
	freed  bool
	gen    uint64       // allocation generation (CETS keys)
	typ    *ctypes.Type // element type (cast checkers)
}

func newBase(name string, quarantine uint64) *base {
	return &base{
		name:   name,
		heap:   lowfat.New(mem.New(), lowfat.Options{Quarantine: quarantine}),
		rep:    core.NewReporter(core.ModeLog, 0),
		allocs: make(map[uint64]*allocRec),
	}
}

func (b *base) Name() string             { return b.name }
func (b *base) Reporter() *core.Reporter { return b.rep }
func (b *base) Mem() *mem.Memory         { return b.heap.Mem() }

func (b *base) record(p, size uint64, t *ctypes.Type) *allocRec {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gen++
	rec := &allocRec{lo: p, hi: p + size, gen: b.gen, typ: t}
	b.allocs[lowfat.Base(p)] = rec
	return rec
}

func (b *base) lookup(p uint64) *allocRec {
	sb := lowfat.Base(p)
	if sb == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.allocs[sb]
}

// Malloc allocates without redzones and records the extent.
func (b *base) Malloc(t *ctypes.Type, size uint64, _ core.AllocKind, site string) uint64 {
	p, err := b.heap.Alloc(size)
	if err != nil {
		panic(fmt.Sprintf("%s: %s: %v", b.name, site, err))
	}
	b.record(p, size, t)
	return p
}

// Free releases the allocation, reporting double frees (all modelled
// tools' allocators do at least that much).
func (b *base) Free(p uint64, site string) {
	if p == 0 {
		return
	}
	rec := b.lookup(p)
	if rec == nil {
		return // legacy pointer
	}
	if rec.freed {
		b.rep.Report(core.DoubleFree, "", "heap object", 0, site)
		return
	}
	rec.freed = true
	_ = b.heap.Free(lowfat.Base(p))
}

// Realloc resizes with allocate-copy-free.
func (b *base) Realloc(p uint64, size uint64, site string) uint64 {
	q := b.Malloc(nil, size, core.HeapAlloc, site)
	if p != 0 {
		if rec := b.lookup(p); rec != nil {
			n := min(rec.hi-rec.lo, size)
			b.Mem().Copy(q, p, n)
		}
		b.Free(p, site)
	}
	return q
}

// LegacyAlloc carves from the legacy region.
func (b *base) LegacyAlloc(size uint64) uint64 { return b.heap.LegacyAlloc(size) }

// Default no-op hooks; concrete sanitizers override what they intercept.
func (b *base) Access(p uint64, size uint64, write bool, static *ctypes.Type, site string) {}
func (b *base) Cast(p uint64, from, to *ctypes.Type, site string)                          {}
func (b *base) Derive(newPtr, basePtr uint64, field bool, lo, hi uint64, site string)      {}
func (b *base) PtrStore(addr, val uint64, site string)                                     {}
func (b *base) PtrLoad(addr, val uint64, site string)                                      {}
