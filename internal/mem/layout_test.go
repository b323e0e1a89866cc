package mem_test

import (
	"testing"

	"repro/internal/lowfat"
	"repro/internal/mem"
)

// TestDirectoryCoversLowFat pins that the page directory indexes every
// low-fat size-class region and the legacy region above them, so no
// allocator address pays the fallback map: the last byte of the last
// size class, the legacy base, and real allocations of the smallest and
// largest classes and of legacy memory.
func TestDirectoryCoversLowFat(t *testing.T) {
	inDir := func(what string, p uint64) {
		t.Helper()
		if r := p >> mem.RegionBits; r >= mem.DirRegions {
			t.Errorf("%s %#x: region %d outside the %d-region directory", what, p, r, mem.DirRegions)
		}
	}
	last := lowfat.LegacyBase - 1
	if !lowfat.IsLowFat(last) || lowfat.IsLowFat(lowfat.LegacyBase) {
		t.Fatalf("LegacyBase %#x does not follow the last size-class region", lowfat.LegacyBase)
	}
	inDir("last size-class byte", last)
	inDir("legacy base", lowfat.LegacyBase)
	inDir("one region above the legacy base", lowfat.LegacyBase+lowfat.RegionSize)

	a := lowfat.New(mem.New(), lowfat.Options{})
	for _, size := range []uint64{1, lowfat.MaxAllocSize} {
		p, err := a.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		inDir("allocation", p)
	}
	inDir("legacy allocation", a.LegacyAlloc(1<<20))

	// A store just above the legacy base lands in the directory and
	// materialises exactly one page.
	m := mem.New()
	m.Store(lowfat.LegacyBase+8, 8, 42)
	if got := m.Load(lowfat.LegacyBase+8, 8); got != 42 {
		t.Errorf("Load above the legacy base = %d, want 42", got)
	}
	if got := m.TouchedBytes(); got != mem.PageSize {
		t.Errorf("TouchedBytes = %d, want one page", got)
	}
}
