// Package mem provides the simulated 64-bit byte-addressable memory that
// underlies the reproduction.
//
// The paper's artifact runs natively on x86_64; this package substitutes a
// sparse, page-backed flat address space with identical pointer
// arithmetic. Low-fat pointers only require that addresses be plain 64-bit
// integers partitioned into size-class regions, which holds here by
// construction. Loads and stores are little-endian, matching the
// evaluation platform.
//
// Memory is safe for concurrent use by multiple goroutines (the Firefox
// experiment of §6.3 exercises multi-threaded workloads); synchronisation
// covers the page table, while racing byte accesses to the same address
// are the simulated program's own concern, exactly as on real hardware.
//
// The page table is a flat directory with one slot per 4 GiB region —
// the low-fat layout's unit, one region per size class with legacy
// memory above them — indexed by addr>>32. Each slot holds that region's
// page slice, grown lazily to cover the highest page touched and
// republished atomically, so an access to an already-materialised page —
// the steady state — is two indexed loads and no lock. Materialisation
// and growth happen under one lock. Addresses above the directory (wild
// or sparse high pointers) fall back to one small copy-on-write map.
//
// Every allocation takes two paths through here. Set, the allocator's
// zero fill, works in place on each page's span after one lookup per
// page. LoadPair and StorePair read and write a 16-byte object metadata
// header, both words, with one lookup, and Swap rebinds one word while
// returning the old one.
package mem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// PageBits is the log2 of the page size. 64 KiB pages keep the page table
// small for the multi-gigabyte low-fat address layout while wasting little
// on small workloads.
const PageBits = 16

// PageSize is the size of one page in bytes.
const PageSize = 1 << PageBits

// RegionBits is the log2 of the span of one page-directory slot: 4 GiB,
// the low-fat region size.
const RegionBits = 32

// regionPages is the number of pages in one region.
const regionPages = 1 << (RegionBits - PageBits)

// DirRegions is the number of regions the page directory indexes
// directly: addresses below DirRegions<<RegionBits (2 TiB). It covers
// every low-fat size-class region and the legacy region above them
// (TestDirectoryCoversLowFat pins this against package lowfat).
const DirRegions = 512

// minRegionPages is a region's first page-slice length.
const minRegionPages = 16

// Memory is a sparse 64-bit address space. The zero value is not usable;
// call New.
type Memory struct {
	dir [DirRegions]atomic.Pointer[[]atomic.Pointer[page]]

	mu   sync.Mutex                       // serialises materialisation
	high atomic.Pointer[map[uint64]*page] // pages above the directory, copy-on-write

	touched atomic.Int64 // pages materialised so far
}

type page struct {
	data [PageSize]byte
}

// New returns an empty address space.
func New() *Memory {
	m := &Memory{}
	m.high.Store(&map[uint64]*page{})
	return m
}

// TouchedBytes returns the number of bytes of backing store materialised
// so far — the simulation's analogue of peak resident set size (memory is
// never unmapped, so this is monotone, like peak RSS in Fig. 9).
func (m *Memory) TouchedBytes() int64 {
	return m.touched.Load() * PageSize
}

// lookup returns page idx, or nil if it was never materialised.
func (m *Memory) lookup(idx uint64) *page {
	r := idx >> (RegionBits - PageBits)
	if r >= DirRegions {
		return (*m.high.Load())[idx]
	}
	ps := m.dir[r].Load()
	if i := idx & (regionPages - 1); ps != nil && i < uint64(len(*ps)) {
		return (*ps)[i].Load()
	}
	return nil
}

// page returns page idx, materialising it if needed.
func (m *Memory) page(idx uint64) *page {
	if p := m.lookup(idx); p != nil {
		return p
	}
	return m.materialize(idx)
}

// materialize creates page idx under the lock, growing its region's
// page slice or copying the high map as needed.
func (m *Memory) materialize(idx uint64) *page {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p := m.lookup(idx); p != nil {
		return p
	}
	p := new(page)
	if r := idx >> (RegionBits - PageBits); r < DirRegions {
		i := idx & (regionPages - 1)
		ps := m.dir[r].Load()
		if ps == nil || i >= uint64(len(*ps)) {
			n := minRegionPages
			if ps != nil {
				n = 2 * len(*ps)
			}
			for uint64(n) <= i {
				n *= 2
			}
			grown := make([]atomic.Pointer[page], min(n, regionPages))
			if ps != nil {
				for j := range *ps {
					grown[j].Store((*ps)[j].Load())
				}
			}
			ps = &grown
			m.dir[r].Store(ps)
		}
		(*ps)[i].Store(p)
	} else {
		cur := *m.high.Load()
		next := make(map[uint64]*page, len(cur)+1)
		for k, v := range cur {
			next[k] = v
		}
		next[idx] = p
		m.high.Store(&next)
	}
	m.touched.Add(1)
	return p
}

// Load reads a size-byte little-endian value at addr. size must be 1, 2,
// 4 or 8. Reads of never-written memory return zero, like freshly mapped
// pages.
func (m *Memory) Load(addr uint64, size int) uint64 {
	off := addr & (PageSize - 1)
	if int(off)+size <= PageSize {
		p := m.lookup(addr >> PageBits)
		if p == nil {
			return 0
		}
		switch size {
		case 1:
			return uint64(p.data[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p.data[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p.data[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p.data[off:])
		default:
			panic(fmt.Sprintf("mem: bad load size %d", size))
		}
	}
	// Page-straddling access: assemble byte by byte.
	var buf [8]byte
	m.ReadBytes(addr, buf[:size])
	return binary.LittleEndian.Uint64(buf[:])
}

// Store writes a size-byte little-endian value at addr. size must be 1,
// 2, 4 or 8.
func (m *Memory) Store(addr uint64, size int, val uint64) {
	off := addr & (PageSize - 1)
	if int(off)+size <= PageSize {
		p := m.page(addr >> PageBits)
		switch size {
		case 1:
			p.data[off] = byte(val)
		case 2:
			binary.LittleEndian.PutUint16(p.data[off:], uint16(val))
		case 4:
			binary.LittleEndian.PutUint32(p.data[off:], uint32(val))
		case 8:
			binary.LittleEndian.PutUint64(p.data[off:], val)
		default:
			panic(fmt.Sprintf("mem: bad store size %d", size))
		}
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	m.WriteBytes(addr, buf[:size])
}

// ReadBytes fills buf with the bytes at [addr, addr+len(buf)).
func (m *Memory) ReadBytes(addr uint64, buf []byte) {
	for n := 0; n < len(buf); {
		off := (addr + uint64(n)) & (PageSize - 1)
		chunk := min(PageSize-int(off), len(buf)-n)
		p := m.lookup((addr + uint64(n)) >> PageBits)
		if p == nil {
			for i := 0; i < chunk; i++ {
				buf[n+i] = 0
			}
		} else {
			copy(buf[n:n+chunk], p.data[off:])
		}
		n += chunk
	}
}

// WriteBytes stores buf at [addr, addr+len(buf)).
func (m *Memory) WriteBytes(addr uint64, buf []byte) {
	for n := 0; n < len(buf); {
		off := (addr + uint64(n)) & (PageSize - 1)
		chunk := min(PageSize-int(off), len(buf)-n)
		p := m.page((addr + uint64(n)) >> PageBits)
		copy(p.data[off:], buf[n:n+chunk])
		n += chunk
	}
}

// copyBufPool recycles the bounded staging buffer Copy moves data
// through, so large memmoves allocate nothing per call.
var copyBufPool = sync.Pool{
	New: func() any { return new([PageSize]byte) },
}

// Copy copies n bytes from src to dst, handling overlap like memmove.
// The copy proceeds page-sized chunk by chunk through a pooled bounded
// buffer — never an n-byte scratch allocation — walking forward when dst
// precedes src and backward when the destination overlaps the source
// from above, so each chunk reads its source bytes before any chunk
// overwrites them.
func (m *Memory) Copy(dst, src, n uint64) {
	if n == 0 || dst == src {
		return
	}
	buf := copyBufPool.Get().(*[PageSize]byte)
	defer copyBufPool.Put(buf)
	if dst > src && dst < src+n {
		// Overlapping with dst above src: copy chunks back to front.
		for done := uint64(0); done < n; {
			c := uint64(PageSize)
			if n-done < c {
				c = n - done
			}
			start := n - done - c
			m.ReadBytes(src+start, buf[:c])
			m.WriteBytes(dst+start, buf[:c])
			done += c
		}
		return
	}
	for done := uint64(0); done < n; {
		c := uint64(PageSize)
		if n-done < c {
			c = n - done
		}
		m.ReadBytes(src+done, buf[:c])
		m.WriteBytes(dst+done, buf[:c])
		done += c
	}
}

// Set fills [addr, addr+n) with byte b, like memset. Each page's span is
// filled in place — cleared when b is zero, otherwise seeded with one
// byte and doubled by copy — so the allocator's zero fill costs one page
// lookup and one clear per page. Every page the span covers is
// materialised, zero fill included, exactly as if the bytes had been
// written one by one.
func (m *Memory) Set(addr uint64, b byte, n uint64) {
	for done := uint64(0); done < n; {
		off := (addr + done) & (PageSize - 1)
		chunk := min(PageSize-off, n-done)
		span := m.page((addr + done) >> PageBits).data[off : off+chunk]
		if b == 0 {
			clear(span)
		} else {
			span[0] = b
			for i := 1; i < len(span); i *= 2 {
				copy(span[i:], span[:i])
			}
		}
		done += chunk
	}
}

// LoadPair reads the two little-endian 8-byte words at addr and addr+8 —
// a 16-byte object metadata header — with one page lookup. Like Load, a
// read of never-written memory returns zeros and materialises nothing.
func (m *Memory) LoadPair(addr uint64) (w0, w1 uint64) {
	off := addr & (PageSize - 1)
	if off+16 > PageSize {
		return m.Load(addr, 8), m.Load(addr+8, 8)
	}
	p := m.lookup(addr >> PageBits)
	if p == nil {
		return 0, 0
	}
	hdr := p.data[off : off+16]
	return binary.LittleEndian.Uint64(hdr), binary.LittleEndian.Uint64(hdr[8:])
}

// StorePair writes w0 at addr and w1 at addr+8, little-endian, with one
// page lookup: LoadPair's writing half.
func (m *Memory) StorePair(addr uint64, w0, w1 uint64) {
	off := addr & (PageSize - 1)
	if off+16 > PageSize {
		m.Store(addr, 8, w0)
		m.Store(addr+8, 8, w1)
		return
	}
	hdr := m.page(addr >> PageBits).data[off : off+16]
	binary.LittleEndian.PutUint64(hdr, w0)
	binary.LittleEndian.PutUint64(hdr[8:], w1)
}

// Swap stores the little-endian 8-byte val at addr and returns the value
// it replaced, with one page lookup: a Load and a Store in one. Like
// Store, it materialises the page.
func (m *Memory) Swap(addr uint64, val uint64) (old uint64) {
	off := addr & (PageSize - 1)
	if off+8 > PageSize {
		old = m.Load(addr, 8)
		m.Store(addr, 8, val)
		return old
	}
	w := m.page(addr >> PageBits).data[off : off+8]
	old = binary.LittleEndian.Uint64(w)
	binary.LittleEndian.PutUint64(w, val)
	return old
}
