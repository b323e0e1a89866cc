package lowfat

import (
	"sync"
	"testing"
)

// TestLaneKeepsWorkersApart pins what a lane is for: two lanes taking
// turns on one central heap each hand out adjacent slots, so the slot
// after a lane's object is its own next allocation (as in a
// single-threaded run), never the other lane's. Stats stay canonical.
func TestLaneKeepsWorkersApart(t *testing.T) {
	a := newAlloc(t, Options{})
	lanes := []*Lane{a.NewLane(), a.NewLane()}
	const n = 8
	var got [2][]uint64
	for i := 0; i < n; i++ {
		for l, lane := range lanes {
			p, err := lane.Alloc(48)
			if err != nil {
				t.Fatal(err)
			}
			if Size(p) != 48 || Base(p) != p {
				t.Fatalf("lane slot %#x: Size=%d Base=%#x", p, Size(p), Base(p))
			}
			got[l] = append(got[l], p)
		}
	}
	for l := range got {
		for i := 1; i < n; i++ {
			if got[l][i] != got[l][i-1]+48 {
				t.Fatalf("lane %d: slot %d at %#x does not follow %#x", l, i, got[l][i], got[l][i-1])
			}
		}
	}
	if s := a.Stats(); s.Allocs != 2*n || s.Live != 2*n*48 {
		t.Fatalf("Allocs/Live = %d/%d, want %d/%d", s.Allocs, s.Live, 2*n, 2*n*48)
	}
}

// TestLaneFreesCentral pins that a lane caches nothing: its frees go to
// the central heap, which any route then reuses first, and a recycled
// slot is zeroed.
func TestLaneFreesCentral(t *testing.T) {
	a := newAlloc(t, Options{})
	l1, l2 := a.NewLane(), a.NewLane()
	p, err := l1.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	a.Mem().Store(p, 8, 0xdeadbeef)
	if err := l1.Free(p); err != nil {
		t.Fatal(err)
	}
	q, err := l2.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatalf("lane must reuse the central free list: got %#x, want %#x", q, p)
	}
	if got := a.Mem().Load(q, 8); got != 0 {
		t.Fatalf("recycled lane slot not zeroed: %#x", got)
	}
	if err := l2.Free(p + 8); err == nil {
		t.Fatal("interior free through a lane must fail")
	}
	if s := a.Stats(); s.Allocs != 2 || s.Frees != 1 || s.BadFrees != 1 {
		t.Fatalf("Allocs/Frees/BadFrees = %d/%d/%d, want 2/1/1", s.Allocs, s.Frees, s.BadFrees)
	}
}

// TestLaneStress drives lanes from concurrent goroutines (run under
// -race): every slot handed out is distinct while live, and the
// canonical Stats balance at quiescence.
func TestLaneStress(t *testing.T) {
	a := newAlloc(t, Options{})
	const workers, rounds = 4, 500
	var mu sync.Mutex
	live := map[uint64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lane := a.NewLane()
			var mine []uint64
			for i := 0; i < rounds; i++ {
				p, err := lane.Alloc(uint64(16 + (i*7+w)%200))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if live[p] {
					t.Errorf("slot %#x handed out twice", p)
				}
				live[p] = true
				mu.Unlock()
				mine = append(mine, p)
				if i%3 == 2 {
					q := mine[0]
					mine = mine[1:]
					mu.Lock()
					delete(live, q)
					mu.Unlock()
					if err := lane.Free(q); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s := a.Stats()
	if s.Allocs != workers*rounds || s.Allocs-s.Frees != uint64(len(live)) {
		t.Fatalf("Allocs/Frees = %d/%d with %d live", s.Allocs, s.Frees, len(live))
	}
}
