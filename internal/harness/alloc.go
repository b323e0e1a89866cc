package harness

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/sanitizers"
	"repro/internal/spec"
)

// This file renders the allocation-bound Fig. 10 row: the alloc-heavy
// progen workload (tight malloc/free churn across mixed size classes,
// spec.AllocHeavy) run by the sharded pool with per-worker heap
// magazines on and off. The SPEC scaling curve of sharded.go is
// check-bound — its Alloc/Free volume is too small for the allocator's
// locking discipline to show — so this row is the one where the
// central-heap-vs-magazines split separates in throughput, not just in
// refill counters. The JSON lands in BENCH_fig10.json under
// "alloc_scaling" (cmd/effbench -alloc-heavy).

// AllocHeavyConfigs returns the two configurations of the alloc-heavy
// row: full EffectiveSan with per-worker magazines (the default sharded
// mode) and the same tool allocating straight from the locked central
// heap (Tool.NoMagazines — the serialized-allocator ablation).
func AllocHeavyConfigs() []*sanitizers.Tool {
	mag := *sanitizers.ToolEffectiveSan.Counting()
	mag.Name = "EffectiveSan-magazines"
	noMag := mag
	noMag.Name = "EffectiveSan-nomagazines"
	noMag.NoMagazines = true
	return []*sanitizers.Tool{&mag, &noMag}
}

// AllocHeavyRow is one point of the alloc-heavy series. It reuses the
// Fig10ScalingRow shape (config, threads, wall/busy seconds, throughput)
// and adds the magazine traffic that explains the gap.
type AllocHeavyRow struct {
	Fig10ScalingRow
	// Allocs/Frees are the heap operations of the point (same for every
	// configuration: the workload is deterministic).
	Allocs uint64 `json:"allocs"`
	Frees  uint64 `json:"frees"`
	// AllocsPerSec is heap operations (allocs+frees) per wall second —
	// the throughput axis of the alloc-heavy row.
	AllocsPerSec float64 `json:"allocs_per_sec"`
	// Refills/Flushes count the workers' trips to the central heap
	// (zero without magazines); (Allocs+Frees)/(Refills+Flushes) is the
	// lock-amortization ratio.
	Refills uint64 `json:"refills"`
	Flushes uint64 `json:"flushes"`
}

// Fig10AllocHeavy measures the alloc-heavy workload at each thread
// count under both configurations and renders the row. threadCounts
// defaults to ThreadCurve(16), jobs to 16 (jobs per point, shared by
// the pool like the SPEC curve).
func Fig10AllocHeavy(w io.Writer, threadCounts []int, jobs int) ([]AllocHeavyRow, error) {
	if len(threadCounts) == 0 {
		threadCounts = ThreadCurve(16)
	}
	if jobs <= 0 {
		jobs = 16
	}
	b := spec.AllocHeavy()
	prog, err := b.Program()
	if err != nil {
		return nil, err
	}

	var rows []AllocHeavyRow
	for _, tool := range AllocHeavyConfigs() {
		base := -1.0
		for _, threads := range threadCounts {
			res, err := tool.ExecSharded(prog, b.Entry, jobs, threads, io.Discard)
			if err != nil {
				return nil, fmt.Errorf("%s/%s x%d: %w", b.Name, tool.Name, threads, err)
			}
			row := AllocHeavyRow{Fig10ScalingRow: Fig10ScalingRow{
				Config: tool.Name, Threads: threads, Jobs: res.Jobs,
				WallSeconds: res.Wall.Seconds(),
				BusySeconds: res.TotalBusy().Seconds(),
			}}
			row.Checks = res.Stats.TypeChecks + res.Stats.BoundsChecks
			row.InlineHitRate = res.Stats.InlineCacheHitRate()
			row.SharedHitRate = res.Stats.CheckCacheHitRate()
			row.Allocs = res.Stats.HeapAllocs + res.Stats.StackAllocs + res.Stats.GlobalAllocs
			row.Frees = res.Stats.Frees - res.Stats.LegacyFrees
			for _, ws := range res.Workers {
				row.Refills += ws.Magazine.Refills
				row.Flushes += ws.Magazine.Flushes
			}
			if row.WallSeconds > 0 {
				row.JobsPerSec = float64(row.Jobs) / row.WallSeconds
				row.ChecksPerSec = float64(row.Checks) / row.WallSeconds
				row.AllocsPerSec = float64(row.Allocs+row.Frees) / row.WallSeconds
			}
			if row.Checks > 0 {
				row.CheckNs = row.BusySeconds * 1e9 / float64(row.Checks)
			}
			if base < 0 {
				base = row.WallSeconds
			}
			if row.WallSeconds > 0 {
				row.Speedup = base / row.WallSeconds
			}
			rows = append(rows, row)
		}
	}

	fmt.Fprintf(w, "Figure 10 (alloc-heavy): %s, magazines vs central heap, N worker goroutines (GOMAXPROCS=%d)\n",
		b.Name, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-26s %8s %8s %10s %13s %9s %9s %9s\n",
		"Config", "threads", "jobs", "wall-s", "allocops/s", "refills", "flushes", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %8d %8d %10.4f %13.0f %9d %9d %8.2fx\n",
			r.Config, r.Threads, r.Jobs, r.WallSeconds, r.AllocsPerSec,
			r.Refills, r.Flushes, r.Speedup)
	}
	fmt.Fprintln(w, "(allocops/s is heap allocs+frees per wall second; refills/flushes are the")
	fmt.Fprintln(w, " workers' batched trips to the central heap — zero in the nomagazines rows,")
	fmt.Fprintln(w, " whose every operation takes the central mutex instead. Speedup is relative")
	fmt.Fprintln(w, " to the same config at the curve's lowest thread count and is bounded by")
	fmt.Fprintln(w, " GOMAXPROCS, like the SPEC scaling curve)")
	return rows, nil
}
