// Package lowfat implements low-fat pointers (Duck & Yap, CC'16; Duck,
// Yap & Cavallaro, NDSS'17): a memory allocator whose pointers encode the
// bounds of their allocation in the pointer value itself.
//
// The address space is partitioned into equally sized regions, one per
// allocation size class; every object in region i is exactly Classes[i]
// bytes and is aligned to its own size. Consequently, for any pointer p
// into a low-fat object:
//
//	Size(p) = Classes[p/RegionSize - 1]
//	Base(p) = p - p%Size(p)
//
// both O(1) and requiring no metadata loads — the property EffectiveSan
// repurposes to attach an object metadata header at Base(p) (§5).
//
// Pointers outside the low-fat regions are "legacy" pointers (from
// uninstrumented code or custom memory allocators): Size returns SizeMax
// and Base returns 0, and the EffectiveSan runtime treats them with wide
// bounds for compatibility. LegacyAlloc carves objects from such a region
// to model CMAs and uninstrumented libraries.
//
// The heap is split in two layers. Allocator is the central store: bump
// cursors, global free lists, the quarantine FIFO and the canonical
// Stats. Magazine (see magazine.go) is a per-worker cache of slots that
// refills from and flushes to the central store in amortized batches, so
// a worker's steady-state Alloc/Free takes no shared lock — the central
// mutex is acquired once per batch, not once per operation.
package lowfat

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
)

// RegionSize is the virtual address span of one size-class region (4 GiB,
// as in the NDSS'17 layout).
const RegionSize = 1 << 32

// MaxAllocSize is the largest slot size (1 GiB).
const MaxAllocSize = 1 << 30

// classSizes holds the allocation size classes, ascending. Like the real
// low-fat allocator's table, classes are fine-grained — every multiple of
// 16 up to 4 KiB, then four classes per octave — so the per-object waste
// (and the cost of EffectiveSan's 16-byte metadata header) stays small.
// All classes are multiples of 16, preserving malloc alignment.
var classSizes = buildClassSizes()

func buildClassSizes() []uint64 {
	var sizes []uint64
	for s := uint64(16); s <= 4096; s += 16 {
		sizes = append(sizes, s)
	}
	for e := uint64(0); ; e++ {
		done := false
		for _, m := range []uint64{5120, 6144, 7168, 8192} {
			s := m << e
			if s > MaxAllocSize {
				done = true
				break
			}
			sizes = append(sizes, s)
		}
		if done {
			break
		}
	}
	return sizes
}

// NumClasses is the number of allocation size classes.
var NumClasses = len(classSizes)

// SizeMax is the Size of a legacy (non-low-fat) pointer.
const SizeMax = math.MaxUint64

// LegacyBase is the start of the legacy (non-low-fat) allocation region.
var LegacyBase = uint64(NumClasses+1) * RegionSize

// classSize returns the slot size of class c.
func classSize(c int) uint64 { return classSizes[c] }

// classFor returns the smallest size class fitting size bytes, or -1.
func classFor(size uint64) int {
	if size <= 4096 {
		return int((size+15)/16*16/16) - 1
	}
	lo, hi := 256, len(classSizes)
	for lo < hi {
		mid := (lo + hi) / 2
		if classSizes[mid] >= size {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= len(classSizes) {
		return -1
	}
	return lo
}

// Size returns the allocation size encoded in pointer p: the size class
// of the region p points into, or SizeMax for legacy pointers. It is a
// pure function of the pointer value (plus the constant class table) —
// the essence of low-fat pointers.
func Size(p uint64) uint64 {
	idx := p / RegionSize
	if idx >= 1 && idx <= uint64(NumClasses) {
		return classSizes[idx-1]
	}
	return SizeMax
}

// Base returns the base address of the allocation containing p, or 0 for
// legacy pointers. Slots are placed at absolute multiples of their size,
// so rounding down is exact.
func Base(p uint64) uint64 {
	idx := p / RegionSize
	if idx >= 1 && idx <= uint64(NumClasses) {
		size := classSizes[idx-1]
		return p - p%size
	}
	return 0
}

// IsLowFat reports whether p points into a low-fat region.
func IsLowFat(p uint64) bool {
	idx := p / RegionSize
	return idx >= 1 && idx <= uint64(NumClasses)
}

// regionAlign returns the region base of class c and the offset of the
// first size-aligned slot at or after it.
func regionAlign(c int) (regionBase, align uint64) {
	slot := classSize(c)
	regionBase = uint64(c+1) * RegionSize
	align = (slot - regionBase%slot) % slot
	return regionBase, align
}

// Options configure an Allocator.
type Options struct {
	// Quarantine delays the reuse of freed slots by holding up to this
	// many bytes across all size classes in a FIFO before they return to
	// the free lists (AddressSanitizer-style; "a technique also applicable
	// to EffectiveSan", §2.1). Zero disables quarantine.
	Quarantine uint64
}

// Stats reports allocator activity. Live and Peak count slot bytes (the
// allocator's own fragmentation included), the simulation's analogue of
// heap RSS. Stats are canonical across every Magazine drawing from the
// allocator: magazines update these counters atomically at operation
// time (never at flush time), so the totals do not depend on how many
// slots sit cached in magazines. Each counter is loaded atomically, but
// a snapshot is not a point-in-time cut across counters — cross-field
// invariants like Live == (Allocs − Frees) slot bytes and Peak ≥ Live
// hold exactly at quiescence, like core.Stats.Snapshot.
type Stats struct {
	Allocs      uint64
	Frees       uint64
	Live        uint64
	Peak        uint64
	LegacyLive  uint64
	BadFrees    uint64
	Quarantined uint64
	QuarEvicted uint64
}

// allocStats is the atomic form of Stats. Counters are plain atomic adds
// so magazines can account allocations and frees without the central
// lock; Peak is maintained with a CAS max over Live.
type allocStats struct {
	allocs      atomic.Uint64
	frees       atomic.Uint64
	live        atomic.Uint64
	peak        atomic.Uint64
	legacyLive  atomic.Uint64
	badFrees    atomic.Uint64
	quarantined atomic.Uint64
	quarEvicted atomic.Uint64
}

// countAlloc records one allocation of slot bytes: Allocs, Live and the
// monotone Peak.
func (s *allocStats) countAlloc(slot uint64) {
	s.allocs.Add(1)
	live := s.live.Add(slot)
	for {
		peak := s.peak.Load()
		if live <= peak || s.peak.CompareAndSwap(peak, live) {
			return
		}
	}
}

// countFree records one deallocation of slot bytes.
func (s *allocStats) countFree(slot uint64) {
	s.frees.Add(1)
	s.live.Add(^(slot - 1)) // atomic subtract
}

func (s *allocStats) snapshot() Stats {
	return Stats{
		Allocs:      s.allocs.Load(),
		Frees:       s.frees.Load(),
		Live:        s.live.Load(),
		Peak:        s.peak.Load(),
		LegacyLive:  s.legacyLive.Load(),
		BadFrees:    s.badFrees.Load(),
		Quarantined: s.quarantined.Load(),
		QuarEvicted: s.quarEvicted.Load(),
	}
}

// Allocator is the central low-fat heap over a simulated memory: bump
// cursors and free lists per size class, the global quarantine FIFO, and
// the canonical statistics. It is safe for concurrent use directly; for
// multicore hot paths, give each worker a Magazine (NewMagazine) so the
// central mutex is only taken on batch refills and flushes.
type Allocator struct {
	mem  *mem.Memory
	opts Options

	mu        sync.Mutex
	bump      []atomic.Uint64 // next never-used slot offset per class; written under mu, read lock-free
	freeLists [][]uint64

	// quarantine is one global FIFO over all size classes (arrival
	// order), so eviction under byte pressure releases the oldest
	// quarantined slot regardless of its class. head indexes the oldest
	// entry; the consumed prefix is compacted away periodically.
	quarantine []uint64
	quarHead   int
	quarBytes  uint64

	legacyBump atomic.Uint64
	stats      allocStats
}

// New returns an allocator over m.
func New(m *mem.Memory, opts Options) *Allocator {
	return &Allocator{
		mem:       m,
		opts:      opts,
		bump:      make([]atomic.Uint64, NumClasses),
		freeLists: make([][]uint64, NumClasses),
	}
}

// Mem returns the underlying memory.
func (a *Allocator) Mem() *mem.Memory { return a.mem }

// Stats returns a snapshot of allocator statistics. The snapshot is
// canonical even while magazines are live: their operations update these
// counters atomically as they happen. See the Stats type for the
// (quiescence-level) consistency the snapshot provides.
func (a *Allocator) Stats() Stats { return a.stats.snapshot() }

// Alloc returns a pointer to a fresh allocation of at least size bytes,
// placed in the matching size-class region and aligned to its slot size.
// The returned memory is zeroed (fresh pages read as zero; recycled slots
// are cleared here). Alloc fails only for sizes beyond the largest class.
func (a *Allocator) Alloc(size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	c := classFor(size)
	if c < 0 {
		return 0, fmt.Errorf("lowfat: allocation of %d bytes exceeds the largest size class", size)
	}
	slot := classSize(c)

	a.mu.Lock()
	p, ok := a.takeSlotLocked(c)
	a.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("lowfat: size class %d (slot %d) exhausted", c, slot)
	}
	a.stats.countAlloc(slot)
	a.mem.Set(p, 0, slot)
	return p, nil
}

// takeSlotLocked pops one slot of class c from the free list, or bumps a
// fresh one. It reports false when the region is exhausted. Caller holds
// a.mu and accounts statistics.
func (a *Allocator) takeSlotLocked(c int) (uint64, bool) {
	if n := len(a.freeLists[c]); n > 0 {
		p := a.freeLists[c][n-1]
		a.freeLists[c] = a.freeLists[c][:n-1]
		return p, true
	}
	return a.bumpSlotLocked(c)
}

// bumpSlotLocked carves the next never-used slot of class c, ignoring
// the free list. Caller holds a.mu.
func (a *Allocator) bumpSlotLocked(c int) (uint64, bool) {
	slot := classSize(c)
	regionBase, align := regionAlign(c)
	// Slots sit at absolute multiples of their size so that Base can
	// recover them by rounding; the first slot of a region is the first
	// such multiple at or after the region base.
	b := a.bump[c].Load()
	if align+b+slot > RegionSize {
		return 0, false
	}
	a.bump[c].Store(b + slot)
	return regionBase + align + b, true
}

// validateFree classifies p as a freeable slot base of class c, or
// counts a BadFree and returns an error. Lock-free: the bump cursor only
// grows, so a stale read can only under-approve, never over-approve a
// pointer that was genuinely allocated before the Free began.
func (a *Allocator) validateFree(p uint64) (int, error) {
	if !IsLowFat(p) || Base(p) != p {
		a.stats.badFrees.Add(1)
		return 0, fmt.Errorf("lowfat: free of non-allocation pointer %#x", p)
	}
	c := int(p/RegionSize) - 1
	regionBase, align := regionAlign(c)
	if p >= regionBase+align+a.bump[c].Load() {
		a.stats.badFrees.Add(1)
		return 0, fmt.Errorf("lowfat: free of never-allocated pointer %#x", p)
	}
	return c, nil
}

// Free returns the allocation with base pointer p to its size class. p
// must be the value previously returned by Alloc (the slot base); other
// values are rejected and counted in Stats.BadFrees.
func (a *Allocator) Free(p uint64) error {
	c, err := a.validateFree(p)
	if err != nil {
		return err
	}
	a.stats.countFree(classSize(c))
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.opts.Quarantine > 0 {
		a.quarantinePutLocked(p, c)
		return nil
	}
	a.freeLists[c] = append(a.freeLists[c], p)
	return nil
}

// quarantinePutLocked appends slot p of class c to the quarantine FIFO
// and, while the held bytes exceed the budget, releases the oldest
// quarantined slot (strict arrival order across all size classes — true
// FIFO eviction by bytes) back to its free list.
func (a *Allocator) quarantinePutLocked(p uint64, c int) {
	a.quarantine = append(a.quarantine, p)
	a.quarBytes += classSize(c)
	a.stats.quarantined.Add(1)
	for a.quarBytes > a.opts.Quarantine && a.quarHead < len(a.quarantine) {
		q := a.quarantine[a.quarHead]
		a.quarHead++
		qc := int(q/RegionSize) - 1
		a.freeLists[qc] = append(a.freeLists[qc], q)
		a.quarBytes -= classSize(qc)
		a.stats.quarEvicted.Add(1)
	}
	// Compact the consumed prefix once it dominates the backing array so
	// the FIFO's memory stays proportional to what it actually holds.
	if a.quarHead > 64 && a.quarHead*2 >= len(a.quarantine) {
		n := copy(a.quarantine, a.quarantine[a.quarHead:])
		a.quarantine = a.quarantine[:n]
		a.quarHead = 0
	}
}

// LegacyAlloc carves size bytes from the legacy region. Pointers it
// returns are not low-fat: Size reports SizeMax and Base reports 0. It
// models custom memory allocators and uninstrumented libraries (§6's
// CMA discussion), whose objects EffectiveSan cannot type. The legacy
// region is a lock-free atomic bump.
func (a *Allocator) LegacyAlloc(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	const align = 16
	size = (size + align - 1) / align * align
	off := a.legacyBump.Add(size) - size
	a.stats.legacyLive.Add(size)
	return LegacyBase + off
}

// refill moves up to want slots of class c from the central store into
// out under one lock acquisition. The magazine pops from the tail
// (LIFO), so out is ordered to reproduce the central heap's own hand-out
// sequence exactly: free-listed slots sit at the tail in central order
// (most recently freed popped first), and freshly bumped slots sit
// before them in descending address order (popped ascending, like the
// bump cursor) — detection shapes that depend on a neighbouring slot's
// state are therefore identical with and without magazines. The
// returned slots are uncounted (they become live when a Magazine hands
// them out) and unzeroed (Magazine zeroes on Alloc, as Alloc does).
func (a *Allocator) refill(c, want int, out []uint64) ([]uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	take := min(want, len(a.freeLists[c]))
	start := len(out)
	for i := 0; i < want-take; i++ {
		p, ok := a.bumpSlotLocked(c)
		if !ok {
			break
		}
		out = append(out, p)
	}
	// Reverse the fresh run: appended ascending, popped from the tail.
	for i, j := start, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	if take > 0 {
		n := len(a.freeLists[c])
		out = append(out, a.freeLists[c][n-take:]...)
		a.freeLists[c] = a.freeLists[c][:n-take]
	}
	if len(out) == start {
		return out, fmt.Errorf("lowfat: size class %d (slot %d) exhausted", c, classSize(c))
	}
	return out, nil
}

// flush returns magazine-cached slots of class c to the central free
// lists under one lock acquisition. Cached slots are never stale frees
// — with quarantine enabled a magazine routes every free through the
// central FIFO and its cache holds only never-handed-out refill slots —
// so they go straight back to the free lists, bypassing quarantine.
func (a *Allocator) flush(c int, slots []uint64) {
	if len(slots) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.freeLists[c] = append(a.freeLists[c], slots...)
}

// quarantineEnabled reports whether the allocator delays slot reuse.
func (a *Allocator) quarantineEnabled() bool { return a.opts.Quarantine > 0 }
