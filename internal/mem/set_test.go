package mem

import (
	"bytes"
	"fmt"
	"testing"
)

// setByteLoop is Set as it was before the in-place fill: a staging buffer
// filled one byte at a time, then written chunk by chunk through
// WriteBytes. It is the reference the in-place fill must match byte for
// byte and page for page.
func setByteLoop(m *Memory, addr uint64, b byte, n uint64) {
	if n == 0 {
		return
	}
	buf := make([]byte, min(n, PageSize))
	for i := range buf {
		buf[i] = b
	}
	for done := uint64(0); done < n; {
		c := min(uint64(len(buf)), n-done)
		m.WriteBytes(addr+done, buf[:c])
		done += c
	}
}

// TestSetMatchesByteLoop fills spans that sit inside a page, cross page
// boundaries, cross the addr>>32 region edge, lie above the page
// directory and straddle its end, with a zero and a non-zero byte, into
// fresh memory and into memory already holding other bytes. Set must
// leave the same bytes around and inside the span as the byte loop, and
// materialise the same pages.
func TestSetMatchesByteLoop(t *testing.T) {
	top := uint64(DirRegions) << RegionBits
	spans := []struct {
		name string
		addr uint64
		n    uint64
	}{
		{"empty", 0x5000, 0},
		{"in-page", 0x5010, 100},
		{"one-byte", 0x5fff, 1},
		{"page-exact", 3 * PageSize, PageSize},
		{"across-pages", 3*PageSize - 7, 2*PageSize + 19},
		{"region-edge", 1<<RegionBits - 40, 100},
		{"above-directory", 1<<60 + 8, PageSize + 5},
		{"directory-end", top - 24, 64},
	}
	for _, sp := range spans {
		for _, b := range []byte{0, 0xa5} {
			for _, prefilled := range []bool{false, true} {
				name := fmt.Sprintf("%s/byte=%#x/prefilled=%v", sp.name, b, prefilled)
				t.Run(name, func(t *testing.T) {
					got, want := New(), New()
					lo, hi := sp.addr-64, sp.addr+sp.n+64
					if prefilled {
						junk := bytes.Repeat([]byte{0x3c}, int(hi-lo))
						got.WriteBytes(lo, junk)
						want.WriteBytes(lo, junk)
					}
					got.Set(sp.addr, b, sp.n)
					setByteLoop(want, sp.addr, b, sp.n)
					g, w := make([]byte, hi-lo), make([]byte, hi-lo)
					got.ReadBytes(lo, g)
					want.ReadBytes(lo, w)
					if !bytes.Equal(g, w) {
						t.Fatalf("bytes around [%#x, +%d) differ from the byte loop", sp.addr, sp.n)
					}
					if g, w := got.TouchedBytes(), want.TouchedBytes(); g != w {
						t.Fatalf("TouchedBytes = %d, byte loop %d", g, w)
					}
				})
			}
		}
	}
}

// TestPairAccessors pins LoadPair, StorePair and Swap against Load and
// Store: the same little-endian words within a page and across a page
// boundary, and no materialisation by a read of a never-written page.
func TestPairAccessors(t *testing.T) {
	m := New()
	if w0, w1 := m.LoadPair(7 << RegionBits); w0 != 0 || w1 != 0 {
		t.Fatalf("LoadPair of a never-written page = %#x, %#x, want zeros", w0, w1)
	}
	if got := m.TouchedBytes(); got != 0 {
		t.Fatalf("LoadPair materialised %d bytes", got)
	}
	for _, addr := range []uint64{0x1000, PageSize - 16, PageSize - 8, PageSize - 3} {
		m.StorePair(addr, 0x1122334455667788, 0x99aabbccddeeff00)
		if got := m.Load(addr, 8); got != 0x1122334455667788 {
			t.Errorf("StorePair(%#x) first word = %#x", addr, got)
		}
		if got := m.Load(addr+8, 8); got != 0x99aabbccddeeff00 {
			t.Errorf("StorePair(%#x) second word = %#x", addr, got)
		}
		m.Store(addr, 8, 5)
		m.Store(addr+8, 8, 6)
		if w0, w1 := m.LoadPair(addr); w0 != 5 || w1 != 6 {
			t.Errorf("LoadPair(%#x) = %d, %d, want 5, 6", addr, w0, w1)
		}
		if old := m.Swap(addr, 9); old != 5 {
			t.Errorf("Swap(%#x) returned %d, want 5", addr, old)
		}
		if w0, w1 := m.LoadPair(addr); w0 != 9 || w1 != 6 {
			t.Errorf("after Swap(%#x): %d, %d, want 9, 6", addr, w0, w1)
		}
	}
	if got, want := m.TouchedBytes(), int64(2*PageSize); got != want {
		t.Fatalf("TouchedBytes = %d, want %d", got, want)
	}
	// Swap materialises a page, as Store does, and finds zero there.
	if old := m.Swap(1<<60, 1); old != 0 {
		t.Fatalf("Swap on a fresh page returned %d", old)
	}
	if got, want := m.TouchedBytes(), int64(3*PageSize); got != want {
		t.Fatalf("TouchedBytes after Swap = %d, want %d", got, want)
	}
}

// BenchmarkMemSet times the allocator's zero fill of one slot, over the
// size classes the alloc workload's programs use: from a header-only 16
// bytes to a 5 KiB slot, on a materialised page.
func BenchmarkMemSet(b *testing.B) {
	for _, n := range []uint64{16, 128, 1056, 5120} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			m := New()
			base := uint64(1) << RegionBits
			m.Set(base, 1, PageSize)
			b.ReportAllocs()
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Set(base, 0, n)
			}
		})
	}
}
