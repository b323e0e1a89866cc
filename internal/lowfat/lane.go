package lowfat

import "fmt"

// Heap is the allocation interface the layers above route Alloc/Free
// through: the central *Allocator, a per-worker *Magazine or a
// per-worker *Lane. Size/Base arithmetic and the canonical Stats are the
// same whichever route serves an operation.
type Heap interface {
	Alloc(size uint64) (uint64, error)
	Free(p uint64) error
	LegacyAlloc(size uint64) uint64
}

// Lane is a per-worker route that keeps the central heap's discipline —
// every Alloc and Free takes the central mutex and nothing is cached —
// but carves the worker's fresh slots from runs reserved for it alone,
// up to magBatch slots at a time, as a magazine refill does. Workers
// sharing one bump cursor would interleave their objects, so an overflow
// past one worker's object would land in whatever another worker last
// allocated next to it, and the bucket of the bounds error would depend
// on the schedule. Through a lane the slots after a worker's object are
// its own later allocations or unused, as in a single-threaded run.
// Free-listed slots are still taken first, in central order. A Lane is
// NOT safe for concurrent use: each worker goroutine owns one.
type Lane struct {
	central   *Allocator
	next, end []uint64 // per class: the unused rest [next, end) of the current run
}

// NewLane returns a lane over the central allocator. Slots left in its
// runs when the worker retires stay unused.
func (a *Allocator) NewLane() *Lane {
	return &Lane{central: a, next: make([]uint64, NumClasses), end: make([]uint64, NumClasses)}
}

// Alloc returns a zeroed allocation of at least size bytes: a free-listed
// slot if the central heap has one, else the next slot of the lane's run.
func (l *Lane) Alloc(size uint64) (uint64, error) {
	if size == 0 {
		size = 1
	}
	c := classFor(size)
	if c < 0 {
		return 0, fmt.Errorf("lowfat: allocation of %d bytes exceeds the largest size class", size)
	}
	slot := classSize(c)
	a := l.central
	a.mu.Lock()
	p, ok := l.takeSlotLocked(c)
	a.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("lowfat: size class %d (slot %d) exhausted", c, slot)
	}
	a.stats.countAlloc(slot)
	a.mem.Set(p, 0, slot)
	return p, nil
}

// takeSlotLocked pops a free-listed slot of class c, or the next slot of
// the lane's run, reserving a new run from the bump cursor when the
// current one is used up. Caller holds the central mutex.
func (l *Lane) takeSlotLocked(c int) (uint64, bool) {
	a := l.central
	if n := len(a.freeLists[c]); n > 0 {
		p := a.freeLists[c][n-1]
		a.freeLists[c] = a.freeLists[c][:n-1]
		return p, true
	}
	slot := classSize(c)
	if l.next[c] == l.end[c] {
		for i := 0; i < magBatch(slot); i++ {
			p, ok := a.bumpSlotLocked(c)
			if !ok {
				break
			}
			if i == 0 {
				l.next[c] = p
			}
			l.end[c] = p + slot
		}
		if l.next[c] == l.end[c] {
			return 0, false
		}
	}
	p := l.next[c]
	l.next[c] += slot
	return p, true
}

// Free returns p to the central heap (its quarantine or free list).
func (l *Lane) Free(p uint64) error { return l.central.Free(p) }

// LegacyAlloc carves from the central heap's lock-free legacy region.
func (l *Lane) LegacyAlloc(size uint64) uint64 { return l.central.LegacyAlloc(size) }
