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

// This file renders the sharded multi-threaded SPEC series — the
// scalability companion to the browser bars of Fig. 10 (§6.1/§6.3). The
// paper only exercises concurrency through Firefox; here the SPEC
// workloads themselves are run by a worker pool (sanitizers.ExecSharded)
// so throughput and per-check cost can be measured against goroutine
// count, with the per-site inline caches on and off. The JSON shape is
// committed as BENCH_fig10.json by cmd/effbench -json-fig10.

// Fig10ScalingRow is one point on the scalability curve: one
// configuration at one thread count, aggregated over the workload
// subset.
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

// Fig10Scaling measures the sharded SPEC harness at each thread count
// and renders the scalability curve. threadCounts defaults to
// ThreadCurve(16), jobsPerWorkload to 16 (kept divisible by every
// power-of-two thread count so partitions stay even), workloads to
// Fig10ScalingWorkloads.
func Fig10Scaling(w io.Writer, threadCounts []int, jobsPerWorkload int, workloads []string) ([]Fig10ScalingRow, error) {
	if len(threadCounts) == 0 {
		threadCounts = ThreadCurve(16)
	}
	if jobsPerWorkload <= 0 {
		jobsPerWorkload = 16
	}
	if len(workloads) == 0 {
		workloads = Fig10ScalingWorkloads()
	}

	type prepared struct {
		name  string
		prog  *mir.Program
		entry string
	}
	// Compile each workload once; ExecSharded instruments a copy and
	// never mutates the program, so every scaling point reuses it.
	var progs []prepared
	for _, n := range workloads {
		b := spec.ByName(n)
		if b == nil {
			return nil, fmt.Errorf("fig10 scaling: unknown workload %q", n)
		}
		p, err := b.Program()
		if err != nil {
			return nil, err
		}
		progs = append(progs, prepared{b.Name, p, b.Entry})
	}

	var rows []Fig10ScalingRow
	for _, tool := range fig10ScalingConfigs() {
		base := -1.0 // wall seconds at the curve's first thread count
		for _, threads := range threadCounts {
			row := Fig10ScalingRow{Config: tool.Name, Threads: threads}
			var agg core.StatsSnapshot // raw counters across workloads
			for _, p := range progs {
				res, err := tool.ExecSharded(p.prog, p.entry, jobsPerWorkload, threads, io.Discard)
				if err != nil {
					return nil, fmt.Errorf("%s/%s x%d: %w", p.name, tool.Name, threads, err)
				}
				row.Jobs += res.Jobs
				row.WallSeconds += res.Wall.Seconds()
				row.BusySeconds += res.TotalBusy().Seconds()
				agg = agg.Add(res.Stats)
			}
			row.Checks = agg.TypeChecks + agg.BoundsChecks
			row.InlineHitRate = agg.InlineCacheHitRate()
			row.SharedHitRate = agg.CheckCacheHitRate()
			if row.WallSeconds > 0 {
				row.JobsPerSec = float64(row.Jobs) / row.WallSeconds
				row.ChecksPerSec = float64(row.Checks) / row.WallSeconds
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
