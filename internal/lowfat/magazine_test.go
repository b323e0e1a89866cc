package lowfat

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/mem"
)

func TestMagazineAllocFreeBasics(t *testing.T) {
	a := newAlloc(t, Options{})
	m := a.NewMagazine()
	p, err := m.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if Size(p) != 64 || Base(p) != p {
		t.Fatalf("magazine slot %#x: Size=%d Base=%#x", p, Size(p), Base(p))
	}
	a.Mem().Store(p, 8, 0xdeadbeef)
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	q, err := m.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatalf("magazine must recycle locally: got %#x, want %#x", q, p)
	}
	if got := a.Mem().Load(q, 8); got != 0 {
		t.Fatalf("recycled magazine slot not zeroed: %#x", got)
	}
}

// TestMagazineStatsCanonical pins the accounting contract: magazines
// update the central Stats atomically at operation time, so Allocs,
// Frees and Live are exact while slots still sit cached in magazines,
// and the per-magazine counters sum to the central totals.
func TestMagazineStatsCanonical(t *testing.T) {
	a := newAlloc(t, Options{})
	m1, m2 := a.NewMagazine(), a.NewMagazine()
	var ptrs []uint64
	for i := 0; i < 10; i++ {
		p, err := m1.Alloc(32)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs[:4] {
		if err := m2.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	s := a.Stats()
	if s.Allocs != 10 || s.Frees != 4 {
		t.Fatalf("Allocs/Frees = %d/%d, want 10/4", s.Allocs, s.Frees)
	}
	if s.Live != 6*32 {
		t.Fatalf("Live = %d, want %d (slots cached in magazines stay counted)", s.Live, 6*32)
	}
	if s.Peak != 10*32 {
		t.Fatalf("Peak = %d, want %d", s.Peak, 10*32)
	}
	if got := m1.Stats().Allocs + m2.Stats().Allocs; got != s.Allocs {
		t.Fatalf("per-magazine Allocs sum %d != central %d", got, s.Allocs)
	}
	if got := m1.Stats().Frees + m2.Stats().Frees; got != s.Frees {
		t.Fatalf("per-magazine Frees sum %d != central %d", got, s.Frees)
	}
}

// TestMagazineRefillAmortization pins the point of the design: the
// central lock is taken once per batch, so refills are far rarer than
// allocations for small classes.
func TestMagazineRefillAmortization(t *testing.T) {
	a := newAlloc(t, Options{})
	m := a.NewMagazine()
	const n = 1000
	for i := 0; i < n; i++ {
		p, err := m.Alloc(16)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Allocs != n || st.Frees != n {
		t.Fatalf("magazine Allocs/Frees = %d/%d, want %d/%d", st.Allocs, st.Frees, n, n)
	}
	// One refill fills the class cache; the tight alloc/free loop then
	// ping-pongs on it. A handful of flush round-trips is fine; one lock
	// per operation (n of them) is what the magazine exists to avoid.
	if trips := st.Refills + st.Flushes; trips > n/50 {
		t.Fatalf("central trips = %d for %d allocs; amortization broken", trips, n)
	}
}

// TestMagazineFreshOrderMatchesCentral pins detection-shape parity: a
// magazine hands out fresh slots in ascending address order, exactly
// like the central bump cursor, so overflow-into-neighbour error
// buckets cannot depend on whether a magazine was in the path.
func TestMagazineFreshOrderMatchesCentral(t *testing.T) {
	a := newAlloc(t, Options{})
	b := newAlloc(t, Options{})
	m := b.NewMagazine()
	for i := 0; i < 50; i++ {
		want, err := a.Alloc(48)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.Alloc(48)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("alloc %d: magazine %#x, central %#x", i, got, want)
		}
	}
}

// TestMagazineFlush returns cached slots to the central free lists so
// other magazines (and direct allocation) can reuse them.
func TestMagazineFlush(t *testing.T) {
	a := newAlloc(t, Options{})
	m := a.NewMagazine()
	p, _ := m.Alloc(128)
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	q, err := a.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatalf("central heap must reuse flushed slot: got %#x, want %#x", q, p)
	}
}

// TestMagazineBadFrees pins free-validation parity with the central
// heap: interior, legacy and never-allocated pointers are rejected and
// counted in the shared BadFrees.
func TestMagazineBadFrees(t *testing.T) {
	a := newAlloc(t, Options{})
	m := a.NewMagazine()
	p, _ := m.Alloc(64)
	if err := m.Free(p + 8); err == nil {
		t.Fatal("interior free through magazine must fail")
	}
	if err := m.Free(LegacyBase + 100); err == nil {
		t.Fatal("legacy free through magazine must fail")
	}
	if err := m.Free(p + RegionSize); err == nil {
		t.Fatal("free in another class's region must fail")
	}
	if got := a.Stats().BadFrees; got != 3 {
		t.Fatalf("BadFrees = %d, want 3", got)
	}
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
}

// TestMagazineQuarantineRoutesCentral pins the temporal-detection
// contract: with quarantine enabled, magazine frees drain through the
// central FIFO — reuse is delayed exactly as without magazines.
func TestMagazineQuarantineRoutesCentral(t *testing.T) {
	a := newAlloc(t, Options{Quarantine: 1 << 20})
	m := a.NewMagazine()
	p, _ := m.Alloc(64)
	if err := m.Free(p); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().CentralFrees; got != 1 {
		t.Fatalf("CentralFrees = %d, want 1", got)
	}
	q, _ := m.Alloc(64)
	if q == p {
		t.Fatal("quarantine must delay reuse through magazines too")
	}
	if a.Stats().Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", a.Stats().Quarantined)
	}
}

// TestMagazineStress is the -race allocator stress: many goroutines,
// one magazine each, hammering Alloc/Free/LegacyAlloc over one central
// heap while a sampler thread asserts the canonical invariants — Live
// equals allocated-minus-freed slot bytes, and Peak is monotone and
// never below Live.
func TestMagazineStress(t *testing.T) {
	a := New(mem.New(), Options{})
	const (
		workers = 8
		iters   = 400
	)
	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		slotsOut atomic.Int64 // net slot bytes handed out, tracked by the workers
	)

	// Sampler: Peak must be monotone while workers run. (Peak >= Live is
	// only checked against the max Live observed, at quiescence: inside
	// countAlloc there is a benign window between the Live add and the
	// Peak CAS where a concurrent snapshot can see Live ahead of Peak.)
	samplerDone := make(chan struct{})
	var maxLiveSeen uint64
	go func() {
		defer close(samplerDone)
		var lastPeak uint64
		for !stop.Load() {
			s := a.Stats()
			if s.Peak < lastPeak {
				t.Errorf("Peak decreased: %d -> %d", lastPeak, s.Peak)
				return
			}
			lastPeak = s.Peak
			if s.Live > maxLiveSeen {
				maxLiveSeen = s.Live
			}
		}
	}()

	sizes := []uint64{16, 24, 64, 200, 1024, 5000, 70000}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := a.NewMagazine()
			var held []uint64
			for i := 0; i < iters; i++ {
				size := sizes[(i+w)%len(sizes)]
				p, err := m.Alloc(size)
				if err != nil {
					t.Error(err)
					return
				}
				slotsOut.Add(int64(Size(p)))
				held = append(held, p)
				m.LegacyAlloc(32)
				if len(held) > 8 {
					q := held[0]
					held = held[1:]
					slotsOut.Add(-int64(Size(q)))
					if err := m.Free(q); err != nil {
						t.Error(err)
						return
					}
				}
			}
			for _, q := range held {
				slotsOut.Add(-int64(Size(q)))
				if err := m.Free(q); err != nil {
					t.Error(err)
					return
				}
			}
			m.Flush()
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	<-samplerDone

	s := a.Stats()
	if want := uint64(workers * iters); s.Allocs != want || s.Frees != want {
		t.Fatalf("Allocs/Frees = %d/%d, want %d/%d", s.Allocs, s.Frees, want, want)
	}
	if s.Live != 0 || slotsOut.Load() != 0 {
		t.Fatalf("Live = %d (tracked %d), want 0 after all frees", s.Live, slotsOut.Load())
	}
	if want := uint64(workers * iters * 32); s.LegacyLive != want {
		t.Fatalf("LegacyLive = %d, want %d", s.LegacyLive, want)
	}
	if s.BadFrees != 0 {
		t.Fatalf("BadFrees = %d, want 0", s.BadFrees)
	}
	// At quiescence every countAlloc's Peak CAS has completed, so Peak
	// covers every Live value any sample ever observed.
	if s.Peak < maxLiveSeen {
		t.Fatalf("Peak %d < max observed Live %d", s.Peak, maxLiveSeen)
	}
}

// TestClassForBoundaries checks classFor against a linear-scan oracle
// at every class edge: the class size itself, one byte below and one
// byte above, plus the absolute boundaries of the table.
func TestClassForBoundaries(t *testing.T) {
	oracle := func(size uint64) int {
		for i, s := range classSizes {
			if s >= size {
				return i
			}
		}
		return -1
	}
	check := func(size uint64) {
		t.Helper()
		if got, want := classFor(size), oracle(size); got != want {
			t.Errorf("classFor(%d) = %d, oracle %d", size, got, want)
		}
	}
	for _, s := range classSizes {
		check(s - 1)
		check(s)
		check(s + 1)
	}
	check(1)
	check(MaxAllocSize)
	check(MaxAllocSize + 1)
	check(SizeMax)
	// Every in-range answer must actually fit and be minimal.
	for _, s := range []uint64{1, 15, 16, 17, 4095, 4096, 4097, 1 << 20} {
		c := classFor(s)
		if c < 0 || classSizes[c] < s {
			t.Fatalf("classFor(%d) = %d: class too small", s, c)
		}
		if c > 0 && classSizes[c-1] >= s {
			t.Fatalf("classFor(%d) = %d: not the smallest fitting class", s, c)
		}
	}
}

// TestQuarantineGlobalFIFO pins the satellite fix: under byte pressure
// the quarantine releases slots in strict arrival order across size
// classes — not "first non-empty class wins". The old per-class walk
// would release small1 here (the lowest non-empty class index) and keep
// big1, the oldest arrival.
func TestQuarantineGlobalFIFO(t *testing.T) {
	a := newAlloc(t, Options{Quarantine: 300})
	small1, _ := a.Alloc(64)
	big1, _ := a.Alloc(256)
	small2, _ := a.Alloc(64)
	big2, _ := a.Alloc(256)

	mustFree := func(p uint64) {
		t.Helper()
		if err := a.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	mustFree(big1)   // arrival 1: 256 held
	mustFree(small1) // arrival 2: 320 > 300 -> big1 drains (oldest), 64 held
	mustFree(small2) // arrival 3: 128 held
	mustFree(big2)   // arrival 4: 384 > 300 -> small1 then small2 drain, 256 held

	// Released, in arrival order: big1, small1, small2. Still held: big2.
	if got, _ := a.Alloc(256); got != big1 {
		t.Fatalf("eviction order: 256-class alloc got %#x, want oldest-freed %#x", got, big1)
	}
	if got, _ := a.Alloc(256); got == big2 {
		t.Fatal("big2 (newest arrival) must still be quarantined")
	}
	p1, _ := a.Alloc(64)
	p2, _ := a.Alloc(64)
	if !(p1 == small2 && p2 == small1) {
		t.Fatalf("both drained 64-byte slots must be reusable: got %#x,%#x want %#x,%#x",
			p1, p2, small2, small1)
	}
}

// BenchmarkAllocFree compares the two allocation routes under
// parallelism: every goroutine hammering the central heap's mutex
// versus each owning a magazine: the micro counterpart of the repo
// benchmark's alloc workload.
func BenchmarkAllocFree(b *testing.B) {
	sizes := []uint64{16, 64, 1024}
	b.Run("central", func(b *testing.B) {
		a := New(mem.New(), Options{})
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				p, err := a.Alloc(sizes[i%len(sizes)])
				if err != nil {
					b.Error(err)
					return
				}
				if err := a.Free(p); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	})
	b.Run("magazine", func(b *testing.B) {
		a := New(mem.New(), Options{})
		b.RunParallel(func(pb *testing.PB) {
			m := a.NewMagazine()
			defer m.Flush()
			i := 0
			for pb.Next() {
				p, err := m.Alloc(sizes[i%len(sizes)])
				if err != nil {
					b.Error(err)
					return
				}
				if err := m.Free(p); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	})
}
