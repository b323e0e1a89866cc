package sanitizers

import (
	"io"
	"testing"

	"repro/internal/spec"
)

// This file pins the accounting contract of the per-worker magazine
// allocation: magazines are a throughput mode, never a detection mode
// (detection parity is TestShardedDetectionParityFig1/Fig7, which run
// on magazines), and their per-worker counters merge to the canonical
// heap totals.

// TestMagazineStatsMergeCanonical pins that in a magazine-sharded run
// the per-worker stats views still merge to the canonical totals — the
// runtime's folded sink equals the field-wise worker sum, the central
// heap's Allocs equal the typed-allocation counters, the per-worker
// magazine Allocs sum to the central heap's, the magazines actually
// amortized (central trips << operations), and the same corpus on one
// worker performs the same heap allocations and frees.
func TestMagazineStatsMergeCanonical(t *testing.T) {
	b := spec.SyntheticByName("progen-alloc")
	if b == nil {
		t.Fatal("progen-alloc workload missing")
	}
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	tool := ToolEffectiveSan.Counting()
	res, err := tool.ExecSharded(prog, b.Entry, 8, 4, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	var workerSum = res.Workers[0].Stats
	for _, ws := range res.Workers[1:] {
		workerSum = workerSum.Add(ws.Stats)
	}
	if workerSum != res.Stats {
		t.Fatalf("aggregate != worker sum\n agg: %+v\n sum: %+v", res.Stats, workerSum)
	}

	typedAllocs := res.Stats.HeapAllocs + res.Stats.StackAllocs + res.Stats.GlobalAllocs
	var magAllocs, magFrees, refills, flushes, trips, ops uint64
	for _, ws := range res.Workers {
		m := ws.Magazine
		magAllocs += m.Allocs
		magFrees += m.Frees
		refills += m.Refills
		flushes += m.Flushes
		trips += m.Refills + m.Flushes + m.CentralFrees
		ops += m.Allocs + m.Frees
	}
	if magAllocs != typedAllocs {
		t.Fatalf("magazine Allocs sum %d != typed allocations %d", magAllocs, typedAllocs)
	}
	if res.HeapPeak == 0 {
		t.Fatal("HeapPeak must be populated from the central heap")
	}
	if refills == 0 || flushes == 0 {
		t.Fatalf("refills %d, flushes %d: the magazines never reached the central heap", refills, flushes)
	}
	if ops == 0 || trips*10 > ops {
		t.Fatalf("central trips %d vs %d magazine ops: amortization missing", trips, ops)
	}

	// Sharding repartitions the corpus; it never changes the heap work.
	res1, err := tool.ExecSharded(prog, b.Entry, 8, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.HeapAllocs != res.Stats.HeapAllocs || res1.Stats.Frees != res.Stats.Frees {
		t.Fatalf("heap allocs/frees changed with threading: x1 %d/%d vs x4 %d/%d",
			res1.Stats.HeapAllocs, res1.Stats.Frees, res.Stats.HeapAllocs, res.Stats.Frees)
	}
}

// TestExecShardedUninstrumentedMagazines covers the plain-environment
// route: the uninstrumented baseline's sharded workers also get
// magazines over the shared bare heap.
func TestExecShardedUninstrumentedMagazines(t *testing.T) {
	b := spec.SyntheticByName("progen-alloc")
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ToolUninstrumented.ExecSharded(prog, b.Entry, 4, 2, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var magAllocs uint64
	for _, ws := range res.Workers {
		magAllocs += ws.Magazine.Allocs
	}
	if magAllocs == 0 {
		t.Fatal("uninstrumented sharded workers must allocate through magazines")
	}
	if res.HeapPeak == 0 {
		t.Fatal("HeapPeak must reflect the shared plain heap")
	}
}
