package sanitizers

import (
	"io"
	"testing"

	"repro/internal/bugsuite"
	"repro/internal/spec"
)

// This file pins the acceptance contract of the per-worker magazine
// allocation: magazines are a throughput mode, never a detection mode.
// Every workload must report the identical issue-bucket set in three
// configurations — sharded with magazines (the default), sharded
// without (Tool.NoMagazines, every Alloc/Free through the central
// mutex), and classic single-threaded — including the
// quarantine-dependent temporal cases (the parity quarantine keeps
// freed slots unreused, so use-after-free buckets are deterministic;
// see parityTool in sharded_test.go).

// withoutMagazines returns a copy of tool whose sharded workers take
// the central heap lock on every Alloc/Free (Tool.NoMagazines).
func withoutMagazines(tool *Tool) *Tool {
	cp := *tool
	cp.NoMagazines = true
	return &cp
}

// TestMagazineDetectionParityFig1 runs every error-injection case of
// the Fig. 1 corpus under the three configurations.
func TestMagazineDetectionParityFig1(t *testing.T) {
	tool := parityTool()
	noMag := withoutMagazines(tool)
	for _, c := range bugsuite.Cases() {
		prog, err := c.Program()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		r1, err := tool.Exec(prog, "main", io.Discard)
		if err != nil {
			t.Fatalf("%s x1: %v", c.Name, err)
		}
		rm, err := tool.ExecSharded(prog, "main", 4, 4, io.Discard)
		if err != nil {
			t.Fatalf("%s magazines: %v", c.Name, err)
		}
		rn, err := noMag.ExecSharded(prog, "main", 4, 4, io.Discard)
		if err != nil {
			t.Fatalf("%s nomagazines: %v", c.Name, err)
		}
		k1, km, kn := issueKeys(r1.Reporter), issueKeys(rm.Reporter), issueKeys(rn.Reporter)
		if !sameKeys(k1, km) {
			t.Errorf("%s: magazines diverge from single-threaded\n single: %v\n magazines: %v", c.Name, k1, km)
		}
		if !sameKeys(km, kn) {
			t.Errorf("%s: magazines diverge from central-heap sharded\n magazines: %v\n nomagazines: %v", c.Name, km, kn)
		}
	}
}

// TestMagazineDetectionParityFig7 does the same over all 19 Fig. 7 SPEC
// workloads (a subset in -short mode).
func TestMagazineDetectionParityFig7(t *testing.T) {
	tool := parityTool()
	noMag := withoutMagazines(tool)
	benches := spec.Benchmarks()
	if testing.Short() {
		benches = benches[:4]
	}
	for _, b := range benches {
		prog, err := b.Program()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		r1, err := tool.Exec(prog, b.Entry, io.Discard)
		if err != nil {
			t.Fatalf("%s x1: %v", b.Name, err)
		}
		rm, err := tool.ExecSharded(prog, b.Entry, 3, 3, io.Discard)
		if err != nil {
			t.Fatalf("%s magazines: %v", b.Name, err)
		}
		rn, err := noMag.ExecSharded(prog, b.Entry, 3, 3, io.Discard)
		if err != nil {
			t.Fatalf("%s nomagazines: %v", b.Name, err)
		}
		k1, km, kn := issueKeys(r1.Reporter), issueKeys(rm.Reporter), issueKeys(rn.Reporter)
		if b.PaperIssues > 0 && len(k1) == 0 {
			t.Errorf("%s: no issues detected single-threaded; corpus inert?", b.Name)
		}
		if !sameKeys(k1, km) {
			t.Errorf("%s: magazines diverge from single-threaded\n single: %v\n magazines: %v", b.Name, k1, km)
		}
		if !sameKeys(km, kn) {
			t.Errorf("%s: magazines diverge from central-heap sharded\n magazines: %v\n nomagazines: %v", b.Name, km, kn)
		}
	}
}

// TestMagazineStatsMergeCanonical pins the second acceptance criterion:
// in a magazine-sharded run the per-worker stats views still merge to
// the canonical totals — the runtime's folded sink equals the field-wise
// worker sum, the central heap's Allocs equal the typed-allocation
// counters, the per-worker magazine Allocs sum to the central heap's,
// and the magazines actually amortized (central trips << operations).
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
	var magAllocs, magFrees, trips, ops uint64
	for _, ws := range res.Workers {
		m := ws.Magazine
		magAllocs += m.Allocs
		magFrees += m.Frees
		trips += m.Refills + m.Flushes + m.CentralFrees
		ops += m.Allocs + m.Frees
	}
	if magAllocs != typedAllocs {
		t.Fatalf("magazine Allocs sum %d != typed allocations %d", magAllocs, typedAllocs)
	}
	if res.HeapPeak == 0 {
		t.Fatal("HeapPeak must be populated from the central heap")
	}
	if ops == 0 || trips*10 > ops {
		t.Fatalf("central trips %d vs %d magazine ops: amortization missing", trips, ops)
	}
}

// TestMagazineKnobsThread pins the knob plumbing: NoMagazines
// zeroes the per-worker magazine stats (workers allocate centrally),
// the default populates them, and both fold the same canonical heap
// totals into the shared runtime.
func TestMagazineKnobsThread(t *testing.T) {
	b := spec.SyntheticByName("progen-alloc")
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	tool := ToolEffectiveSan.Counting()
	withMag, err := tool.ExecSharded(prog, b.Entry, 4, 2, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	noMag, err := withoutMagazines(tool).ExecSharded(prog, b.Entry, 4, 2, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var withOps, noOps uint64
	for i := range withMag.Workers {
		withOps += withMag.Workers[i].Magazine.Allocs
		noOps += noMag.Workers[i].Magazine.Allocs
	}
	if withOps == 0 {
		t.Fatal("default sharded run must allocate through magazines")
	}
	if noOps != 0 {
		t.Fatalf("NoMagazines run served %d allocs through magazines", noOps)
	}
	if withMag.Stats.HeapAllocs != noMag.Stats.HeapAllocs {
		t.Fatalf("typed allocations diverge: %d vs %d", withMag.Stats.HeapAllocs, noMag.Stats.HeapAllocs)
	}
	if withMag.Value != noMag.Value {
		t.Fatalf("program result diverges: %d vs %d", withMag.Value, noMag.Value)
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
