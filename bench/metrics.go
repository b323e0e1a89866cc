package main

import (
	"math"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. Every time in
// seconds ("s") is in reference seconds unless its name starts with
// "wall." or "calib.", which are raw.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. BENCHMARK.json lists the same names with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"total_s", "s"},
	{"compile_s", "s"},
	{"instrument_s", "s"},
	{"run_s", "s"},
	{"slowdown", "ratio"},
	{"tail_ratio", "ratio"},
	{"go_alloc_bytes", "B"},
	{"rss_peak_bytes", "B"},
	{"sim_heap_peak_bytes", "B"},
}

// perLayer are the metrics of single layers, reported by the traced run.
var perLayer = []metricDef{
	{"cc.mir_instrs", "count"},
	{"cc.funcs", "count"},
	{"instrument.mir_instrs", "count"},
	{"instrument.static_checks", "count"},
	{"instrument.elided_static_safe", "count"},
	{"instrument.hoisted", "count"},
	{"instrument.check_sites", "count"},
	{"instrument.insert_s", "s"},
	{"instrument.absint_s", "s"},
	{"instrument.optimize_s", "s"},
	{"mir.loads", "count"},
	{"mir.stores", "count"},
	{"mir.derives", "count"},
	{"mir.casts", "count"},
	{"mir.new_s", "s"},
	{"core.type_checks", "count"},
	{"core.bounds_checks", "count"},
	{"core.fast_path_ratio", "ratio"},
	{"core.inline_hit_ratio", "ratio"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.layout_matches", "count"},
	{"core.issues", "count"},
	{"core.reports", "count"},
	{"core.type_malloc_s", "s"},
	{"core.type_free_s", "s"},
	{"core.type_malloc_calls", "count"},
	{"layout.tables_built", "count"},
	{"layout.tables_interned", "count"},
	{"layout.resident_bytes", "B"},
	{"lowfat.allocs", "count"},
	{"lowfat.frees", "count"},
	{"lowfat.magazine_refills", "count"},
	{"lowfat.magazine_flushes", "count"},
	{"mem.touched_bytes", "B"},
	{"sanitizers.busy_s", "s"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"cpu.mir.interp", "ratio"},
	{"cpu.mir.analysis", "ratio"},
	{"cpu.cc", "ratio"},
	{"cpu.instrument", "ratio"},
	{"cpu.core", "ratio"},
	{"cpu.ctypes", "ratio"},
	{"cpu.layout", "ratio"},
	{"cpu.lowfat", "ratio"},
	{"cpu.mem", "ratio"},
	{"cpu.intrinsics", "ratio"},
	{"cpu.sanitizers", "ratio"},
	{"cpu.go.alloc", "ratio"},
	{"cpu.go.gc", "ratio"},
	{"cpu.go.other", "ratio"},
	{"cpu.bench", "ratio"},
	{"cpu.other", "ratio"},
	{"calib.wall_s", "s"},
	{"wall.total_s", "s"},
	{"wall.compile_s", "s"},
	{"wall.instrument_s", "s"},
	{"wall.run_s", "s"},
	{"uninstr.run_s", "s"},
	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
}

// tailBeyond is how many samples must lie beyond the reported tail
// percentile.
const tailBeyond = 10

// result is one run's JSON result file entry.
type result struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Seconds        float64            `json:"seconds"`
	Trace          bool               `json:"trace"`
	CalibRefS      float64            `json:"calib_ref_s"`
	Setups         int                `json:"setups"`
	Passes         int                `json:"passes"`
	TracedPasses   int                `json:"traced_passes"`
	Correct        bool               `json:"correct"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	FailRatio      float64            `json:"fail_ratio"`
	Failures       []string           `json:"failures,omitempty"`
	TailPercentile int                `json:"tail_percentile"`
	TailSamples    int                `json:"tail_samples"`
	EndToEnd       map[string]float64 `json:"end_to_end"`
	PerLayer       map[string]float64 `json:"per_layer"`
	// SpanSelfS is each span name's self time per traced pass (median,
	// reference seconds).
	SpanSelfS map[string]float64 `json:"span_self_s,omitempty"`
	// The raw samples behind the medians, one per untraced pass, to show
	// drift within a run: the mean calibration kernel time, and total_s
	// and run_s in raw seconds.
	CalibRawS []float64 `json:"calib_raw_s"`
	TotalRawS []float64 `json:"total_raw_s"`
	RunRawS   []float64 `json:"run_raw_s"`
}

// summarize computes every metric of a run. End-to-end metrics and every
// per-layer metric an untraced pass records come from untraced passes;
// the metrics only a traced pass records come from traced passes. Each
// pass's timings are scaled to reference seconds by that pass's own
// calibration.
func (rd *runData) summarize() *result {
	var plain, traced []passRec
	for _, p := range rd.passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	res := &result{
		Workload: rd.w.name, Seed: rd.seed, Seconds: rd.opts.seconds, Trace: rd.opts.trace,
		CalibRefS: calibRefS, Setups: len(rd.setups), Passes: len(plain), TracedPasses: len(traced),
		Attempted: rd.r.attempted, Failed: rd.r.failed, Failures: rd.r.failures,
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{},
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.Attempted > 0 {
		res.FailRatio = float64(res.Failed) / float64(res.Attempted)
	}

	// perPass sums f over each untraced pass's programs, in reference
	// seconds, or raw seconds when raw is set.
	perPass := func(raw bool, f func(s sample) time.Duration) []float64 {
		out := make([]float64, len(plain))
		for i, p := range plain {
			var d time.Duration
			for _, s := range p.samples {
				d += f(s)
			}
			out[i] = d.Seconds()
			if !raw {
				out[i] *= p.scale
			}
		}
		return out
	}
	compile := func(s sample) time.Duration { return s.compile }
	instr := func(s sample) time.Duration { return s.instrument }
	run := func(s sample) time.Duration { return s.run }
	base := func(s sample) time.Duration { return s.base }
	total := func(s sample) time.Duration { return s.compile + s.instrument + s.run }
	// layer is the median over passes of a per-layer metric, with times
	// in reference seconds.
	layer := func(ps []passRec, m metricDef) float64 {
		var xs []float64
		for _, p := range ps {
			if v, ok := p.layer[m.name]; ok {
				if m.unit == "s" {
					v *= p.scale
				}
				xs = append(xs, v)
			}
		}
		return median(xs)
	}

	e := res.EndToEnd
	e["setup_s"] = median(rd.setups)
	e["total_s"] = median(perPass(false, total))
	e["compile_s"] = median(perPass(false, compile))
	e["instrument_s"] = median(perPass(false, instr))
	e["run_s"] = median(perPass(false, run))
	e["go_alloc_bytes"] = layer(plain, metricDef{"go.alloc_bytes", "B"})
	e["rss_peak_bytes"] = rssPeak()
	e["sim_heap_peak_bytes"] = layer(plain, metricDef{"sim.heap_peak_bytes", "B"})
	if len(plain) > 0 {
		effRuns, baseRuns := make([][]float64, len(plain)), make([][]float64, len(plain))
		byProg := make([][]float64, len(plain[0].samples))
		for i, p := range plain {
			for j, s := range p.samples {
				effRuns[i] = append(effRuns[i], s.run.Seconds())
				baseRuns[i] = append(baseRuns[i], s.base.Seconds())
				byProg[j] = append(byProg[j], total(s).Seconds()*p.scale)
			}
		}
		e["slowdown"] = pairedSlowdown(effRuns, baseRuns)
		// Each sample's pipeline time relative to its program's median.
		var rel []float64
		for _, xs := range byProg {
			m := median(xs)
			for _, x := range xs {
				rel = append(rel, x/m)
			}
		}
		p, v, ok := tailPercentile(rel, tailBeyond)
		if !ok {
			v = math.NaN()
		}
		e["tail_ratio"], res.TailPercentile, res.TailSamples = v, p, len(rel)
	}

	l := res.PerLayer
	for _, m := range perLayer {
		src := plain
		if len(plain) == 0 {
			src = traced
		} else if _, ok := plain[0].layer[m.name]; !ok {
			src = traced
		}
		if v := layer(src, m); !math.IsNaN(v) {
			l[m.name] = v
		}
	}
	l["go.gc_cpu_share"] = rd.gcShare
	calib := make([]float64, len(plain))
	for i, p := range plain {
		calib[i] = calibRefS / p.scale
	}
	l["calib.wall_s"] = median(calib)
	l["wall.total_s"] = median(perPass(true, total))
	l["wall.compile_s"] = median(perPass(true, compile))
	l["wall.instrument_s"] = median(perPass(true, instr))
	l["wall.run_s"] = median(perPass(true, run))
	l["uninstr.run_s"] = median(perPass(false, base))
	if len(traced) > 0 {
		for k, v := range shares(rd.cpu) {
			l[k] = v
		}
		var tw, pw []float64
		for _, p := range traced {
			tw = append(tw, p.work().Seconds()*p.scale)
		}
		for _, p := range plain {
			pw = append(pw, p.work().Seconds()*p.scale)
		}
		l["trace.overhead"] = median(tw) / median(pw)
		self, coverage := rd.r.tr.selfTimes()
		var cov []float64
		byName := map[string][]float64{}
		for pass, names := range self {
			if pass < 1 {
				continue // the setups' input generation
			}
			cov = append(cov, coverage[pass])
			for name, v := range names {
				byName[name] = append(byName[name], v*rd.passes[pass-1].scale)
			}
		}
		l["trace.coverage"] = median(cov)
		res.SpanSelfS = map[string]float64{}
		for name, xs := range byName {
			res.SpanSelfS[name] = median(xs)
		}
	}
	res.CalibRawS, res.TotalRawS, res.RunRawS = calib, perPass(true, total), perPass(true, run)
	dropNaN(res.EndToEnd)
	dropNaN(res.PerLayer)
	return res
}

// rssPeak returns the process's peak resident set size in bytes.
func rssPeak() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}
