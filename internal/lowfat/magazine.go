package lowfat

import (
	"fmt"

	"repro/internal/mem"
)

// This file is the per-worker half of the two-layer heap: a Magazine
// caches batches of slots per size class so a worker's steady-state
// Alloc/Free touches no shared lock. The central Allocator's mutex is
// taken once per refill/flush batch; statistics stay canonical because
// magazines account every operation atomically on the central counters
// at the moment it happens (never at flush time). Quarantined frees are
// routed straight to the central FIFO so temporal-error detection
// (double-free, use-after-free through the FREE type) behaves exactly as
// in the single-heap configuration.

// magBatchBytes bounds one refill/flush batch: enough slots to amortize
// the lock for small classes without hoarding memory for big ones.
const magBatchBytes = 16 << 10

// magBatchMaxSlots caps the batch for tiny classes so one magazine never
// drains a free list too far ahead of its actual demand.
const magBatchMaxSlots = 32

// magBatch returns the refill/flush batch size (in slots) for a class.
func magBatch(slot uint64) int {
	n := int(magBatchBytes / slot)
	if n < 1 {
		return 1
	}
	if n > magBatchMaxSlots {
		return magBatchMaxSlots
	}
	return n
}

// MagazineStats reports one magazine's activity: the operations it
// served and its traffic to the central heap. Refills/Flushes count lock
// acquisitions, RefillSlots/FlushSlots the slots they moved — the
// amortization ratio Allocs/Refills is the de-serialization win.
type MagazineStats struct {
	Allocs       uint64 `json:"allocs"`
	Frees        uint64 `json:"frees"`
	Refills      uint64 `json:"refills"`
	RefillSlots  uint64 `json:"refill_slots"`
	Flushes      uint64 `json:"flushes"`
	FlushSlots   uint64 `json:"flush_slots"`
	CentralFrees uint64 `json:"central_frees"` // frees routed to the central quarantine
}

// Magazine is a per-worker cache over a central Allocator. It is NOT
// safe for concurrent use — each worker goroutine owns exactly one — but
// any number of magazines may share one central Allocator. Size/Base
// arithmetic, slot placement and the canonical Stats are identical to
// allocating from the central heap directly.
type Magazine struct {
	central *Allocator
	cache   [][]uint64 // per class; popped from the tail (LIFO, cache-warm)
	stats   MagazineStats
}

// NewMagazine returns an empty magazine over the central allocator.
func (a *Allocator) NewMagazine() *Magazine {
	return &Magazine{central: a, cache: make([][]uint64, NumClasses)}
}

// Central returns the central allocator the magazine draws from.
func (m *Magazine) Central() *Allocator { return m.central }

// Stats returns the magazine's local activity counters. Canonical heap
// totals live on the central Allocator's Stats.
func (m *Magazine) Stats() MagazineStats { return m.stats }

// Alloc returns a zeroed allocation of at least size bytes, drawing from
// the magazine's local cache and refilling a batch from the central heap
// only when the cache for the size class is empty.
func (m *Magazine) Alloc(size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	c := classFor(size)
	if c < 0 {
		return 0, fmt.Errorf("lowfat: allocation of %d bytes exceeds the largest size class", size)
	}
	slot := classSize(c)
	if len(m.cache[c]) == 0 {
		want := magBatch(slot)
		got, err := m.central.refill(c, want, m.cache[c])
		if err != nil {
			return 0, err
		}
		m.cache[c] = got
		m.stats.Refills++
		m.stats.RefillSlots += uint64(len(got))
	}
	n := len(m.cache[c])
	p := m.cache[c][n-1]
	m.cache[c] = m.cache[c][:n-1]
	m.stats.Allocs++
	m.central.stats.countAlloc(slot)
	m.central.mem.Set(p, 0, slot)
	return p, nil
}

// Free returns the allocation with base pointer p to the magazine's
// local cache, flushing half the cache to the central heap when the
// class's cache overfills. When quarantine is enabled the free is routed
// to the central FIFO instead (reuse delay is a global, ordered
// property), so temporal detection matches the magazine-free heap.
func (m *Magazine) Free(p uint64) error {
	if m.central.quarantineEnabled() {
		if err := m.central.Free(p); err != nil {
			return err
		}
		m.stats.Frees++
		m.stats.CentralFrees++
		return nil
	}
	c, err := m.central.validateFree(p)
	if err != nil {
		return err
	}
	slot := classSize(c)
	m.stats.Frees++
	m.central.stats.countFree(slot)
	m.cache[c] = append(m.cache[c], p)
	if batch := magBatch(slot); len(m.cache[c]) >= 2*batch {
		// Flush the oldest half; the tail stays for reuse locality.
		m.flushClass(c, batch)
	}
	return nil
}

// flushClass returns the oldest n cached slots of class c to the central
// heap.
func (m *Magazine) flushClass(c, n int) {
	if n > len(m.cache[c]) {
		n = len(m.cache[c])
	}
	if n == 0 {
		return
	}
	m.central.flush(c, m.cache[c][:n])
	rest := copy(m.cache[c], m.cache[c][n:])
	m.cache[c] = m.cache[c][:rest]
	m.stats.Flushes++
	m.stats.FlushSlots += uint64(n)
}

// Flush returns every cached slot to the central heap. Call it when the
// owning worker retires so other magazines can reuse the slots; the
// magazine remains usable afterwards.
func (m *Magazine) Flush() {
	for c := range m.cache {
		m.flushClass(c, len(m.cache[c]))
	}
}

// LegacyAlloc carves from the legacy region. The legacy bump is already
// a lock-free atomic on the central heap, so there is nothing to cache.
func (m *Magazine) LegacyAlloc(size uint64) uint64 {
	return m.central.LegacyAlloc(size)
}

// Mem returns the underlying memory.
func (m *Magazine) Mem() *mem.Memory { return m.central.mem }
