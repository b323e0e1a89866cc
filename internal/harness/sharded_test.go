package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestThreadCurve pins the -threads flag's expansion.
func TestThreadCurve(t *testing.T) {
	for _, tc := range []struct {
		max  int
		want []int
	}{
		{16, []int{1, 2, 4, 8, 16}},
		{12, []int{1, 2, 4, 8, 12}},
		{1, []int{1}},
		{0, []int{1}},
		{3, []int{1, 2, 3}},
	} {
		if got := ThreadCurve(tc.max); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ThreadCurve(%d) = %v, want %v", tc.max, got, tc.want)
		}
	}
}

// TestFig10ScalingShape runs a reduced curve (two workloads, 1 and 2
// threads, both configurations) and asserts its structural invariants.
// Wall-clock speedup is hardware-dependent (GOMAXPROCS-bounded), so the
// test checks work conservation — the same corpus executes the same
// checks at every thread count — and the knob semantics, not timings.
func TestFig10ScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	var buf bytes.Buffer
	threads := []int{1, 2}
	workloads := []string{"mcf", "lbm"}
	rows, err := Fig10Scaling(&buf, threads, 4, workloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 configs x 2 thread counts
		t.Fatalf("%d rows, want 4", len(rows))
	}
	byConfig := map[string][]Fig10ScalingRow{}
	for _, r := range rows {
		if r.Jobs != 4*len(workloads) {
			t.Errorf("%s x%d: %d jobs, want %d", r.Config, r.Threads, r.Jobs, 4*len(workloads))
		}
		if r.Checks == 0 || r.WallSeconds <= 0 || r.CheckNs <= 0 || r.ChecksPerSec <= 0 {
			t.Errorf("%s x%d: dead measurements %+v", r.Config, r.Threads, r)
		}
		// The alloc columns are filled by the same sweep as the
		// alloc-heavy row; both curve configs use magazines.
		if r.Allocs == 0 || r.AllocsPerSec <= 0 || r.Refills == 0 {
			t.Errorf("%s x%d: empty alloc columns %+v", r.Config, r.Threads, r)
		}
		byConfig[r.Config] = append(byConfig[r.Config], r)
	}
	if len(byConfig) != 2 {
		t.Fatalf("configs = %v, want EffectiveSan and EffectiveSan-noinline", byConfig)
	}
	for cfg, rs := range byConfig {
		if len(rs) != len(threads) {
			t.Fatalf("%s: %d points, want %d", cfg, len(rs), len(threads))
		}
		// Work conservation: sharding repartitions the corpus, it never
		// changes how many checks execute.
		if rs[0].Checks != rs[1].Checks || rs[0].Allocs != rs[1].Allocs || rs[0].Frees != rs[1].Frees {
			t.Errorf("%s: work varies with threads: %+v vs %+v", cfg, rs[0], rs[1])
		}
	}
	for _, r := range byConfig["EffectiveSan"] {
		if r.InlineHitRate <= 0 {
			t.Errorf("EffectiveSan x%d: inline hit rate %.3f, want > 0", r.Threads, r.InlineHitRate)
		}
	}
	for _, r := range byConfig["EffectiveSan-noinline"] {
		if r.InlineHitRate != 0 {
			t.Errorf("noinline x%d: inline hit rate %.3f, want 0", r.Threads, r.InlineHitRate)
		}
		if r.SharedHitRate <= 0 {
			t.Errorf("noinline x%d: shared hit rate %.3f, want > 0", r.Threads, r.SharedHitRate)
		}
	}
	if !strings.Contains(buf.String(), "GOMAXPROCS") {
		t.Error("rendered curve must record the machine's parallelism")
	}
}

// TestFig10AllocHeavyShape smoke-tests the allocation-bound row: both
// configurations at 1 and 2 threads, populated throughput and check
// columns (the same row type and sweep as the SPEC curve), the magazine
// rows carrying central-heap traffic counters (amortized well below the
// operation count) and the nomagazines rows carrying none.
func TestFig10AllocHeavyShape(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Fig10AllocHeavy(&buf, []int{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 2 configs x 2 thread counts", len(rows))
	}
	for _, r := range rows {
		if r.Allocs == 0 || r.Frees == 0 || r.AllocsPerSec <= 0 {
			t.Errorf("%s x%d: empty alloc profile: %+v", r.Config, r.Threads, r)
		}
		if r.Jobs != 4 || r.Checks == 0 || r.JobsPerSec <= 0 || r.Speedup <= 0 {
			t.Errorf("%s x%d: dead measurements %+v", r.Config, r.Threads, r)
		}
		switch r.Config {
		case "EffectiveSan-magazines":
			if r.Refills == 0 || r.Flushes == 0 {
				t.Errorf("%s x%d: magazine rows must show central traffic", r.Config, r.Threads)
			}
			if trips := r.Refills + r.Flushes; trips*10 > r.Allocs+r.Frees {
				t.Errorf("%s x%d: %d central trips for %d ops; amortization missing",
					r.Config, r.Threads, trips, r.Allocs+r.Frees)
			}
		case "EffectiveSan-nomagazines":
			if r.Refills != 0 || r.Flushes != 0 {
				t.Errorf("%s x%d: nomagazines rows must not touch magazines", r.Config, r.Threads)
			}
		default:
			t.Errorf("unexpected config %q", r.Config)
		}
	}
	// The deterministic profile is identical across configurations.
	if rows[0].Allocs != rows[2].Allocs || rows[0].Frees != rows[2].Frees {
		t.Errorf("alloc profile differs across configs: %+v vs %+v", rows[0], rows[2])
	}
	if !strings.Contains(buf.String(), "alloc-heavy") {
		t.Error("rendered table missing the alloc-heavy header")
	}
}
