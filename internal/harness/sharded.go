package harness

import (
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/mir"
	"repro/internal/sanitizers"
	"repro/internal/spec"
)

// This file renders the sharded multi-threaded series — the scalability
// companions to the browser bars of Fig. 10 (§6.1/§6.3). The paper only
// exercises concurrency through Firefox; here workloads are run by a
// worker pool (sanitizers.ExecSharded) so throughput and per-check cost
// can be measured against goroutine count. One sweep serves two series:
// the check-bound SPEC curve, with the per-site inline caches on and off,
// and the allocation-bound alloc-heavy row, with per-worker heap
// magazines on and off. The JSON shape is committed as BENCH_fig10.json
// by cmd/effbench -json-fig10 ("scaling" and "alloc_scaling").

// Fig10ScalingRow is one point of a scaling series: one configuration
// at one thread count, aggregated over the series' workloads.
type Fig10ScalingRow struct {
	Config  string `json:"config"`
	Threads int    `json:"threads"`
	Jobs    int    `json:"jobs"` // total jobs across all workloads
	// WallSeconds sums each workload's pool wall-clock time (workloads
	// run one after another; only jobs within a workload are sharded).
	WallSeconds float64 `json:"wall_seconds"`
	// BusySeconds sums the workers' busy time — the CPU-time analogue.
	BusySeconds  float64 `json:"busy_seconds"`
	Checks       uint64  `json:"checks"` // dynamic type + bounds checks
	JobsPerSec   float64 `json:"jobs_per_sec"`
	ChecksPerSec float64 `json:"checks_per_sec"`
	// CheckNs is busy nanoseconds per dynamic check — the contended
	// per-check cost (flat across thread counts = perfect scaling).
	CheckNs float64 `json:"check_ns"`
	// Speedup is wall-clock relative to the same configuration at the
	// first (lowest) thread count of the curve.
	Speedup       float64 `json:"speedup"`
	InlineHitRate float64 `json:"inline_hit_rate"`
	SharedHitRate float64 `json:"shared_hit_rate"`
	// Allocs/Frees are the heap operations of the point (the same for
	// every configuration: the workloads are deterministic).
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

// Fig10ScalingWorkloads is the default SPEC subset for the curve: the
// two pointer-heaviest C workloads, the C++ workload with the richest
// type population, and a small cache-friendly one.
func Fig10ScalingWorkloads() []string {
	return []string{"perlbench", "gcc", "xalancbmk", "mcf"}
}

// ThreadCurve returns the thread counts measured for a curve topping out
// at max: the powers of two up to max, plus max itself (so -threads 12
// measures 1, 2, 4, 8, 12).
func ThreadCurve(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for n := 1; n <= max; n <<= 1 {
		out = append(out, n)
	}
	if last := out[len(out)-1]; last != max {
		out = append(out, max)
	}
	return out
}

// fig10ScalingConfigs returns the curve configurations: full
// EffectiveSan and every ablation the sanitizers.Ablations table marks
// Scaling, all in counting mode like every performance run.
func fig10ScalingConfigs() []*sanitizers.Tool {
	full := sanitizers.ToolEffectiveSan.Counting()
	tools := []*sanitizers.Tool{full}
	for _, a := range sanitizers.Ablations() {
		if a.Scaling {
			tools = append(tools, a.On(full))
		}
	}
	return tools
}

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

// Fig10Scaling measures the sharded SPEC harness at each thread count
// and renders the scalability curve. threadCounts defaults to
// ThreadCurve(16), jobsPerWorkload to 16 (kept divisible by every
// power-of-two thread count so partitions stay even), workloads to
// Fig10ScalingWorkloads.
func Fig10Scaling(w io.Writer, threadCounts []int, jobsPerWorkload int, workloads []string) ([]Fig10ScalingRow, error) {
	if len(workloads) == 0 {
		workloads = Fig10ScalingWorkloads()
	}
	var benches []*spec.Benchmark
	for _, n := range workloads {
		b := spec.ByName(n)
		if b == nil {
			return nil, fmt.Errorf("fig10 scaling: unknown workload %q", n)
		}
		benches = append(benches, b)
	}
	rows, err := sweep(fig10ScalingConfigs(), benches, threadCounts, jobsPerWorkload)
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "Figure 10 (scaling): sharded SPEC harness, shared runtime, N worker goroutines (GOMAXPROCS=%d)\n",
		runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-22s %8s %8s %10s %12s %10s %9s %8s\n",
		"Config", "threads", "jobs", "wall-s", "checks/s", "check-ns", "speedup", "inline%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %8d %10.4f %12.0f %10.1f %8.2fx %7.1f%%\n",
			r.Config, r.Threads, r.Jobs, r.WallSeconds, r.ChecksPerSec,
			r.CheckNs, r.Speedup, r.InlineHitRate*100)
	}
	fmt.Fprintln(w, "(speedup is wall-clock vs the same config at the curve's lowest thread count")
	fmt.Fprintln(w, " and is bounded by GOMAXPROCS — on a single-core box the curve is flat by")
	fmt.Fprintln(w, " construction and only detection parity and counter consistency are exercised;")
	fmt.Fprintln(w, " the inline-cache column shows the per-site level absorbing shared-cache traffic)")
	return rows, nil
}

// Fig10AllocHeavy measures the alloc-heavy workload (spec.AllocHeavy:
// tight malloc/free churn across mixed size classes) at each thread
// count with magazines on and off, and renders the row. The SPEC curve
// is check-bound — its Alloc/Free volume is too small for the
// allocator's locking discipline to show — so this is the row where the
// central-heap-vs-magazines split can separate in throughput, not just
// in refill counters. threadCounts and jobs default as in Fig10Scaling.
func Fig10AllocHeavy(w io.Writer, threadCounts []int, jobs int) ([]Fig10ScalingRow, error) {
	b := spec.AllocHeavy()
	rows, err := sweep(AllocHeavyConfigs(), []*spec.Benchmark{b}, threadCounts, jobs)
	if err != nil {
		return nil, err
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

// sweep runs every workload under every tool at every thread count
// (threadCounts defaults to ThreadCurve(16)), jobs executions per
// workload per point (default 16) on sanitizers.ExecSharded, and returns
// one row per tool and thread count, aggregated over the workloads.
func sweep(tools []*sanitizers.Tool, benches []*spec.Benchmark, threadCounts []int, jobs int) ([]Fig10ScalingRow, error) {
	if len(threadCounts) == 0 {
		threadCounts = ThreadCurve(16)
	}
	if jobs <= 0 {
		jobs = 16
	}
	// Compile each workload once; ExecSharded instruments a copy and
	// never mutates the program, so every point reuses it.
	progs := make([]*mir.Program, len(benches))
	for i, b := range benches {
		p, err := b.Program()
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}

	var rows []Fig10ScalingRow
	for _, tool := range tools {
		base := -1.0 // wall seconds at the curve's first thread count
		for _, threads := range threadCounts {
			row := Fig10ScalingRow{Config: tool.Name, Threads: threads}
			var agg core.StatsSnapshot // raw counters across workloads
			for i, b := range benches {
				res, err := tool.ExecSharded(progs[i], b.Entry, jobs, threads, io.Discard)
				if err != nil {
					return nil, fmt.Errorf("%s/%s x%d: %w", b.Name, tool.Name, threads, err)
				}
				row.Jobs += res.Jobs
				row.WallSeconds += res.Wall.Seconds()
				row.BusySeconds += res.TotalBusy().Seconds()
				agg = agg.Add(res.Stats)
				for _, ws := range res.Workers {
					row.Refills += ws.Magazine.Refills
					row.Flushes += ws.Magazine.Flushes
				}
			}
			row.Checks = agg.TypeChecks + agg.BoundsChecks
			row.InlineHitRate = agg.InlineCacheHitRate()
			row.SharedHitRate = agg.CheckCacheHitRate()
			row.Allocs = agg.HeapAllocs + agg.StackAllocs + agg.GlobalAllocs
			row.Frees = agg.Frees - agg.LegacyFrees
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
	return rows, nil
}
