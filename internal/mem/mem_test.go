package mem

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New()
	cases := []struct {
		addr uint64
		size int
		val  uint64
	}{
		{0x1000, 1, 0xab},
		{0x1001, 2, 0xbeef},
		{0x1004, 4, 0xdeadbeef},
		{0x1008, 8, 0x0123456789abcdef},
		{1<<40 + 5, 8, 42},
	}
	for _, c := range cases {
		m.Store(c.addr, c.size, c.val)
		if got := m.Load(c.addr, c.size); got != c.val {
			t.Errorf("Load(%#x,%d) = %#x, want %#x", c.addr, c.size, got, c.val)
		}
	}
}

func TestZeroFill(t *testing.T) {
	m := New()
	if got := m.Load(0xdead0000, 8); got != 0 {
		t.Fatalf("unwritten memory = %#x, want 0", got)
	}
}

func TestLittleEndian(t *testing.T) {
	m := New()
	m.Store(0x2000, 4, 0x11223344)
	if got := m.Load(0x2000, 1); got != 0x44 {
		t.Fatalf("low byte = %#x, want 0x44 (little endian)", got)
	}
	if got := m.Load(0x2003, 1); got != 0x11 {
		t.Fatalf("high byte = %#x, want 0x11", got)
	}
}

func TestPageStraddle(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3) // straddles the first page boundary
	m.Store(addr, 8, 0x1122334455667788)
	if got := m.Load(addr, 8); got != 0x1122334455667788 {
		t.Fatalf("straddling load = %#x", got)
	}
	// The bytes really live on two pages.
	if got := m.Load(uint64(PageSize), 1); got != 0x55 {
		t.Fatalf("byte after boundary = %#x, want 0x55", got)
	}
}

func TestReadWriteBytes(t *testing.T) {
	m := New()
	data := []byte("the quick brown fox jumps over the lazy dog")
	addr := uint64(3*PageSize - 10) // straddle
	m.WriteBytes(addr, data)
	got := make([]byte, len(data))
	m.ReadBytes(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("ReadBytes = %q, want %q", got, data)
	}
}

func TestCopyOverlap(t *testing.T) {
	m := New()
	m.WriteBytes(0x100, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	m.Copy(0x102, 0x100, 8) // overlapping forward copy
	got := make([]byte, 8)
	m.ReadBytes(0x102, got)
	if !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("overlapping Copy = %v", got)
	}
}

func TestSet(t *testing.T) {
	m := New()
	m.Set(0x5000, 0x7f, 3*PageSize+17)
	for _, off := range []uint64{0, 1, PageSize, 3*PageSize + 16} {
		if got := m.Load(0x5000+off, 1); got != 0x7f {
			t.Fatalf("Set missed offset %d: %#x", off, got)
		}
	}
	if got := m.Load(0x5000+3*PageSize+17, 1); got != 0 {
		t.Fatalf("Set overran: %#x", got)
	}
}

func TestTouchedBytes(t *testing.T) {
	m := New()
	if m.TouchedBytes() != 0 {
		t.Fatal("fresh memory must report zero touched bytes")
	}
	m.Store(0, 1, 1)
	m.Store(10*PageSize, 1, 1)
	if got := m.TouchedBytes(); got != 2*PageSize {
		t.Fatalf("TouchedBytes = %d, want %d", got, 2*PageSize)
	}
	// Loads do not materialise pages.
	m.Load(99*PageSize, 8)
	if got := m.TouchedBytes(); got != 2*PageSize {
		t.Fatalf("TouchedBytes after load = %d, want %d", got, 2*PageSize)
	}
}

func TestConcurrentAccess(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g) * 1 << 30
			for i := uint64(0); i < 1000; i++ {
				m.Store(base+i*8, 8, i)
			}
			for i := uint64(0); i < 1000; i++ {
				if got := m.Load(base+i*8, 8); got != i {
					t.Errorf("goroutine %d: Load = %d, want %d", g, got, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Property: any store followed by a load of the same size/address returns
// the value truncated to the store width.
func TestStoreLoadProperty(t *testing.T) {
	m := New()
	sizes := []int{1, 2, 4, 8}
	check := func(addr uint64, sizeIdx uint8, val uint64) bool {
		addr %= 1 << 40
		size := sizes[int(sizeIdx)%len(sizes)]
		m.Store(addr, size, val)
		want := val
		if size < 8 {
			want &= (1 << (8 * size)) - 1
		}
		return m.Load(addr, size) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCopyOverlapLarge exercises the chunked memmove in both walk
// directions across page boundaries: dst above src (backward walk) and
// dst below src (forward walk), with multi-page overlapping spans.
func TestCopyOverlapLarge(t *testing.T) {
	const n = 3*PageSize + 123
	pattern := make([]byte, n)
	for i := range pattern {
		pattern[i] = byte(i*31 + i>>8)
	}
	for _, shift := range []int64{1, 17, PageSize - 1, PageSize, PageSize + 9, -1, -PageSize, -(PageSize + 7)} {
		m := New()
		src := uint64(5 * PageSize)
		dst := uint64(int64(src) + shift)
		m.WriteBytes(src, pattern)
		m.Copy(dst, src, n)
		got := make([]byte, n)
		m.ReadBytes(dst, got)
		if !bytes.Equal(got, pattern) {
			t.Fatalf("shift %d: overlapping Copy corrupted data", shift)
		}
	}
}

// TestStripedMaterialization hammers page creation across regions from
// many goroutines while others read: every page must materialise exactly
// once (TouchedBytes exact), a region's page slice grows several times
// under the racing writers and readers (run it under -race), and reads
// must see the writes. The page set spans several 4 GiB regions and
// climbs each region's page index, so the directory slots are created
// and regrown while in use.
func TestStripedMaterialization(t *testing.T) {
	m := New()
	const pages = 256
	const workers = 8
	addr := func(i, g uint64) uint64 { return (i%4)<<RegionBits + i*PageSize + g*8 }
	// Pages written before the race starts: readers must see them
	// through every regrowth of their region's slice.
	const pre = 4
	for i := uint64(0); i < pre; i++ {
		m.Store(addr(i, workers), 8, i+1)
	}
	var wg sync.WaitGroup
	for g := uint64(0); g < workers; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < pages; i++ {
				// All writers race to materialise the same page set, each
				// writing its own disjoint slot within the page.
				m.Store(addr(i, g), 8, i+g+1)
			}
		}()
		go func() {
			defer wg.Done()
			// Readers race the growth on bytes no writer touches: the
			// pre-written slots keep their values, the rest read zero.
			for i := uint64(0); i < pages; i++ {
				want := uint64(0)
				if i < pre {
					want = i + 1
				}
				if got := m.Load(addr(i, workers), 8); got != want {
					t.Errorf("page %d: racing Load = %d, want %d", i, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := m.TouchedBytes(); got != pages*PageSize {
		t.Fatalf("TouchedBytes = %d, want %d (pages must materialise once)", got, pages*PageSize)
	}
	for g := uint64(0); g < workers; g++ {
		for i := uint64(0); i < pages; i++ {
			if got := m.Load(addr(i, g), 8); got != i+g+1 {
				t.Fatalf("page %d worker %d: Load = %d, want %d", i, g, got, i+g+1)
			}
		}
	}
}

// TestOutsideDirectory stores and loads at addresses the directory does
// not index — 1<<60 and the first byte past it — next to the last
// directory page, and across the boundary between them; each page counts
// once in TouchedBytes whichever table holds it.
func TestOutsideDirectory(t *testing.T) {
	m := New()
	top := uint64(DirRegions) << RegionBits
	addrs := []uint64{1 << 60, top, top - 8, 1<<60 + 3*PageSize}
	for i, a := range addrs {
		m.Store(a, 8, uint64(i)+100)
	}
	for i, a := range addrs {
		if got := m.Load(a, 8); got != uint64(i)+100 {
			t.Errorf("Load(%#x) = %d, want %d", a, got, i+100)
		}
	}
	if got := m.Load(1<<60+PageSize, 8); got != 0 {
		t.Errorf("unwritten high page = %#x, want 0", got)
	}
	if got, want := m.TouchedBytes(), int64(len(addrs))*PageSize; got != want {
		t.Fatalf("TouchedBytes = %d, want %d", got, want)
	}
	// A straddling store spans the last directory page and the first
	// page above the directory.
	m.Store(top-4, 8, 0x1122334455667788)
	if got := m.Load(top-4, 8); got != 0x1122334455667788 {
		t.Fatalf("straddling load across the directory's end = %#x", got)
	}
	if got, want := m.TouchedBytes(), int64(len(addrs))*PageSize; got != want {
		t.Fatalf("TouchedBytes after straddle = %d, want %d", got, want)
	}
}

// TestRegionGrowthKeepsPages writes pages in one region in increasing and
// then decreasing page order, so the region's slice regrows past pages it
// already holds; every earlier page must survive each regrowth.
func TestRegionGrowthKeepsPages(t *testing.T) {
	m := New()
	base := uint64(7) << RegionBits
	idxs := []uint64{0, 1, 15, 16, 17, 100, 1000, regionPages - 1, 40000, 3}
	for n, i := range idxs {
		m.Store(base+i*PageSize, 8, i+1)
		for _, j := range idxs {
			want := j + 1
			if !slices.Contains(idxs[:n+1], j) {
				want = 0
			}
			if got := m.Load(base+j*PageSize, 8); got != want {
				t.Fatalf("after page %d: page %d = %d, want %d", i, j, got, want)
			}
		}
	}
	if got, want := m.TouchedBytes(), int64(len(idxs))*PageSize; got != want {
		t.Fatalf("TouchedBytes = %d, want %d", got, want)
	}
}

// BenchmarkCopyLarge pins the satellite fix: an 8 MiB memmove goes
// through the pooled page-sized staging buffer, so per-call allocation
// is gone (the old code allocated an n-byte scratch slice every call).
func BenchmarkCopyLarge(b *testing.B) {
	m := New()
	const n = 8 << 20
	dst := uint64(n + PageSize)
	m.Set(0, 0xab, n)
	m.Set(dst, 0, n) // pre-materialise the destination pages
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Copy(dst, 0, n)
	}
}

// BenchmarkCopyOverlapping measures the backward walk (dst inside the
// source span), which the bounded buffer must also serve without
// allocating.
func BenchmarkCopyOverlapping(b *testing.B) {
	m := New()
	const n = 4 << 20
	m.Set(0, 0xcd, n+PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Copy(PageSize/2, 0, n)
	}
}

// BenchmarkMemLoadStore measures an 8-byte store plus load on
// materialised pages: within one page, striding across the pages of one
// region, and striding across low-fat regions — the three patterns of
// the page-table lookup every interpreted access pays.
func BenchmarkMemLoadStore(b *testing.B) {
	for _, c := range []struct {
		name   string
		stride uint64
		n      uint64
	}{
		{"page", 8, PageSize / 8},
		{"pages", PageSize + 8, 64},
		{"regions", 1<<RegionBits + PageSize + 8, 64},
	} {
		b.Run(c.name, func(b *testing.B) {
			m := New()
			base := uint64(1) << RegionBits
			for i := uint64(0); i < c.n; i++ {
				m.Store(base+i*c.stride, 8, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sum uint64
			for i := 0; i < b.N; i++ {
				a := base + uint64(i)%c.n*c.stride
				m.Store(a, 8, sum)
				sum += m.Load(a, 8)
			}
		})
	}
}
