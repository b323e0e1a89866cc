// Package harness drives the paper's experiments: it runs the workloads
// under the sanitizer configurations and renders each table and figure of
// the evaluation section (Figs. 1, 7, 8, 9, 10 and the §6.2 tool
// comparison) as text, returning the underlying numbers for programmatic
// checks (tests, benchmarks, EXPERIMENTS.md).
package harness

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/browser"
	"repro/internal/bugsuite"
	"repro/internal/mir"
	"repro/internal/sanitizers"
	"repro/internal/spec"
)

// Fig1Cell is one capability-matrix entry.
type Fig1Cell struct {
	Detected, Total int
}

// Verdict renders a cell the way Fig. 1 does: ✓ (all cases), Partial
// (some), ✗ (none).
func (c Fig1Cell) Verdict() string {
	switch {
	case c.Total == 0 || c.Detected == 0:
		return "✗"
	case c.Detected == c.Total:
		return "✓"
	default:
		return "Partial"
	}
}

// Fig1Row is one sanitizer's row.
type Fig1Row struct {
	Tool    string
	Columns map[bugsuite.Class]Fig1Cell
}

// Fig1 runs the error-injection corpus under every tool and renders the
// capability matrix of Fig. 1.
func Fig1(w io.Writer) ([]Fig1Row, error) {
	tools := sanitizers.All()
	var rows []Fig1Row
	for _, tool := range tools {
		row := Fig1Row{Tool: tool.Name, Columns: map[bugsuite.Class]Fig1Cell{}}
		for _, c := range bugsuite.Cases() {
			if c.Class != bugsuite.TypeConfusion && c.Class != bugsuite.BoundsOverflow &&
				c.Class != bugsuite.Temporal {
				continue
			}
			prog, err := c.Program()
			if err != nil {
				return nil, err
			}
			res, err := tool.Exec(prog, "main", io.Discard)
			if err != nil {
				return nil, fmt.Errorf("%s under %s: %w", c.Name, tool.Name, err)
			}
			cell := row.Columns[c.Class]
			cell.Total++
			if res.Reporter.Total() > 0 {
				cell.Detected++
			}
			row.Columns[c.Class] = cell
		}
		rows = append(rows, row)
	}

	fmt.Fprintln(w, "Figure 1: sanitizer capabilities against type and memory errors")
	fmt.Fprintln(w, "(regenerated by running the error-injection corpus under each tool)")
	fmt.Fprintf(w, "%-20s %-10s %-10s %-10s\n", "Sanitizer", "Types", "Bounds", "UAF")
	for _, row := range rows {
		fmt.Fprintf(w, "%-20s %-10s %-10s %-10s\n", row.Tool,
			row.Columns[bugsuite.TypeConfusion].Verdict(),
			row.Columns[bugsuite.BoundsOverflow].Verdict(),
			row.Columns[bugsuite.Temporal].Verdict())
	}
	return rows, nil
}

// Fig7Row is one benchmark's summary line.
type Fig7Row struct {
	Name         string
	CPlusPlus    bool
	PaperKSLOC   float64
	TypeChecks   uint64
	BoundsChecks uint64
	Issues       int
	PaperIssues  int
	LegacyRatio  float64
}

// Fig7 runs the 19 SPEC workloads under full EffectiveSan and renders the
// summary table of Fig. 7.
func Fig7(w io.Writer) ([]Fig7Row, error) {
	var rows []Fig7Row
	var totType, totBounds uint64
	var totIssues int
	var cppType, cppBounds uint64
	var cppIssues int
	for _, b := range spec.Benchmarks() {
		prog, err := b.Program()
		if err != nil {
			return nil, err
		}
		res, err := sanitizers.ToolEffectiveSan.Exec(prog, b.Entry, io.Discard)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		row := Fig7Row{
			Name: b.Name, CPlusPlus: b.CPlusPlus, PaperKSLOC: b.PaperKSLOC,
			TypeChecks: res.Stats.TypeChecks, BoundsChecks: res.Stats.BoundsChecks,
			Issues: res.Reporter.NumIssues(), PaperIssues: b.PaperIssues,
			LegacyRatio: res.Stats.LegacyRatio(),
		}
		rows = append(rows, row)
		totType += row.TypeChecks
		totBounds += row.BoundsChecks
		totIssues += row.Issues
		if b.CPlusPlus {
			cppType += row.TypeChecks
			cppBounds += row.BoundsChecks
			cppIssues += row.Issues
		}
	}

	fmt.Fprintln(w, "Figure 7: SPEC2006 summary under full EffectiveSan")
	fmt.Fprintf(w, "%-14s %10s %12s %13s %8s %8s\n",
		"Benchmark", "kilo-sLOC", "#Type", "#Bounds", "#Issues", "(paper)")
	for _, r := range rows {
		name := r.Name
		if r.CPlusPlus {
			name += "++"
		}
		fmt.Fprintf(w, "%-14s %10.1f %12d %13d %8d %8d\n",
			name, r.PaperKSLOC, r.TypeChecks, r.BoundsChecks, r.Issues, r.PaperIssues)
	}
	fmt.Fprintf(w, "%-14s %10.1f %12d %13d %8d %8d\n", "Totals (all)",
		1117.5, totType, totBounds, totIssues, 124)
	fmt.Fprintf(w, "%-14s %10.1f %12d %13d %8d %8d\n", "Totals (C++)",
		497.0, cppType, cppBounds, cppIssues, 40)
	fmt.Fprintln(w, "(check counts are simulation-scale: millions, not the paper's billions)")
	return rows, nil
}

// Fig8Row is one benchmark's line: wall-clock seconds and cost-model
// nanoseconds (RunCost) per configuration. The JSON shape is committed
// as BENCH_fig8.json by cmd/effbench -json, giving successive changes a
// perf trajectory.
type Fig8Row struct {
	Name    string             `json:"name"`
	Seconds map[string]float64 `json:"seconds"` // config name -> seconds
	Cost    map[string]float64 `json:"cost"`    // config name -> RunCost ns
}

// fig8Config pairs a tool with the short column header used in the
// rendered table (full names key the Seconds maps and the JSON).
type fig8Config struct {
	tool  *sanitizers.Tool
	short string
}

// fig8Configs returns the eight bars of Fig. 8, run in counting mode
// like the paper's performance measurements: the paper's four
// (uninstrumented and the three instrumentation variants) with the
// sanitizers.Ablations table between full EffectiveSan and the two
// reduced variants.
func fig8Configs() []fig8Config {
	full := sanitizers.ToolEffectiveSan.Counting()
	cfgs := []fig8Config{
		{sanitizers.ToolUninstrumented, "uninstr"},
		{full, "effsan"},
	}
	for _, a := range sanitizers.Ablations() {
		cfgs = append(cfgs, fig8Config{a.On(full), a.Short})
	}
	return append(cfgs,
		fig8Config{sanitizers.ToolEffBounds.Counting(), "bounds"},
		fig8Config{sanitizers.ToolEffType.Counting(), "type"})
}

// Fig8BarNames returns the full configuration names keying the Seconds
// maps and the committed JSON, in bar order — the canonical list, so
// tests and docs never hand-copy it.
func Fig8BarNames() []string {
	cfgs := fig8Configs()
	names := make([]string, len(cfgs))
	for i, c := range cfgs {
		names[i] = c.tool.Name
	}
	return names
}

// Fig8Tools returns the eight Fig. 8 tool configurations in bar order —
// the single source of truth for the figure, the JSON series and the
// BenchmarkFig8Timings sub-benchmarks.
func Fig8Tools() []*sanitizers.Tool {
	cfgs := fig8Configs()
	tools := make([]*sanitizers.Tool, len(cfgs))
	for i, c := range cfgs {
		tools[i] = c.tool
	}
	return tools
}

// Fig8 times the 19 SPEC workloads plus the progen-generated synthetic
// workloads (spec.Synthetic: diamond-heavy, interior-pointer and
// statically-provable shapes) under the eight configurations of Fig. 8
// (uninstrumented, full EffectiveSan and its ablations, and the two
// reduced-instrumentation variants), in counting mode like the paper's
// performance runs.
// repeat > 1 keeps the fastest of several runs. Each bar also gets its
// RunCost, the same on every repeat.
func Fig8(w io.Writer, repeat int) ([]Fig8Row, error) {
	if repeat < 1 {
		repeat = 1
	}
	configs := fig8Configs()
	var rows []Fig8Row
	for _, b := range append(spec.Benchmarks(), spec.Synthetic()...) {
		prog, err := b.Program()
		if err != nil {
			return nil, err
		}
		row := Fig8Row{Name: b.Name, Seconds: map[string]float64{}, Cost: map[string]float64{}}
		for _, cfg := range configs {
			best := math.MaxFloat64
			for i := 0; i < repeat; i++ {
				res, err := cfg.tool.Exec(prog, b.Entry, io.Discard)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", b.Name, cfg.tool.Name, err)
				}
				if s := res.Elapsed.Seconds(); s < best {
					best = s
				}
				row.Cost[cfg.tool.Name] = RunCost(res.Steps, res.Stats)
			}
			row.Seconds[cfg.tool.Name] = best
		}
		rows = append(rows, row)
	}

	fmt.Fprintln(w, "Figure 8: SPEC2006 timings (seconds)")
	fmt.Fprintf(w, "%-14s", "Benchmark")
	for _, cfg := range configs {
		fmt.Fprintf(w, " %10s", cfg.short)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s", r.Name)
		for _, cfg := range configs {
			fmt.Fprintf(w, " %10.4f", r.Seconds[cfg.tool.Name])
		}
		fmt.Fprintln(w)
	}
	for _, cfg := range configs[1:] {
		fmt.Fprintf(w, "geomean overhead %-24s %+5.0f%%  cost model %+5.0f%%\n", cfg.tool.Name,
			OverheadGeomean(rows, cfg.tool.Name)*100, CostOverheadGeomean(rows, cfg.tool.Name)*100)
	}
	fmt.Fprintln(w, "(paper: EffectiveSan +288%, -bounds +115%, -type +49%; the no-opt/nocache/")
	fmt.Fprintln(w, " no-inline/no-static bars are the §5.3/§6.2 ablations, and the")
	fmt.Fprintln(w, " progen-* rows are the synthetic diamond/interior/staticsafe workloads)")
	return rows, nil
}

// OverheadGeomean returns the geometric-mean wall-clock overhead of a
// configuration relative to the uninstrumented baseline ((t/t0) - 1).
func OverheadGeomean(rows []Fig8Row, config string) float64 {
	return geomeanOverhead(rows, config, func(r Fig8Row) map[string]float64 { return r.Seconds })
}

// CostOverheadGeomean is OverheadGeomean over the cost-model column: a
// deterministic overhead, the same on every machine and every run.
func CostOverheadGeomean(rows []Fig8Row, config string) float64 {
	return geomeanOverhead(rows, config, func(r Fig8Row) map[string]float64 { return r.Cost })
}

func geomeanOverhead(rows []Fig8Row, config string, col func(Fig8Row) map[string]float64) float64 {
	logSum, n := 0.0, 0
	for _, r := range rows {
		base := col(r)["Uninstrumented"]
		t := col(r)[config]
		if base <= 0 || t <= 0 {
			continue
		}
		logSum += math.Log(t / base)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum/float64(n)) - 1
}

// Fig9Row is one benchmark's memory line.
type Fig9Row struct {
	Name          string
	BaselineBytes uint64
	EffBytes      uint64
}

// Fig9 measures peak heap bytes (slot bytes live at peak, the simulation
// analogue of peak RSS) for the uninstrumented baseline and full
// EffectiveSan.
func Fig9(w io.Writer) ([]Fig9Row, error) {
	var rows []Fig9Row
	var sumBase, sumEff uint64
	for _, b := range spec.Benchmarks() {
		prog, err := b.Program()
		if err != nil {
			return nil, err
		}
		rb, err := sanitizers.ToolUninstrumented.Exec(prog, b.Entry, io.Discard)
		if err != nil {
			return nil, err
		}
		re, err := sanitizers.ToolEffectiveSan.Exec(prog, b.Entry, io.Discard)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{Name: b.Name, BaselineBytes: rb.HeapPeak, EffBytes: re.HeapPeak})
		sumBase += rb.HeapPeak
		sumEff += re.HeapPeak
	}
	fmt.Fprintln(w, "Figure 9: peak heap memory (bytes)")
	fmt.Fprintf(w, "%-14s %16s %16s %10s\n", "Benchmark", "Uninstrumented", "EffectiveSan", "Overhead")
	for _, r := range rows {
		oh := float64(r.EffBytes)/float64(r.BaselineBytes) - 1
		fmt.Fprintf(w, "%-14s %16d %16d %+9.0f%%\n", r.Name, r.BaselineBytes, r.EffBytes, oh*100)
	}
	fmt.Fprintf(w, "overall overhead: %+.0f%%   (paper: ~12%%)\n",
		(float64(sumEff)/float64(sumBase)-1)*100)
	return rows, nil
}

// Fig10Row is one browser benchmark's relative performance: one bar of
// the BENCH_fig10.json artifact written by cmd/effbench -json-fig10.
type Fig10Row struct {
	Name     string  `json:"name"`
	Relative float64 `json:"relative"` // best instrumented / best uninstrumented time (1.0 = parity)
	// RelativeLo and RelativeHi are the lowest and highest per-repeat
	// ratio of the two sides, the spread a bar's movement is judged by.
	RelativeLo float64 `json:"relative_lo"`
	RelativeHi float64 `json:"relative_hi"`
	Issues     int     `json:"issues"`
}

// Fig10 runs the browser workloads, each as b.Workers concurrent
// sessions sharing one runtime (sanitizers.ExecSharded), under the
// uninstrumented baseline and full EffectiveSan, and reports relative
// execution time (the Fig. 10 bars). Each repeat runs both sides, in
// alternating order, so load drift falls on both; the bar is the
// fastest EffectiveSan run over the fastest uninstrumented one, beside
// the range of the per-repeat ratios.
func Fig10(w io.Writer, repeat int) ([]Fig10Row, error) {
	if repeat < 1 {
		repeat = 1
	}
	sides := [2]*sanitizers.Tool{sanitizers.ToolUninstrumented, sanitizers.ToolEffectiveSan}
	var rows []Fig10Row
	for _, b := range browser.Benchmarks() {
		prog, err := b.Program()
		if err != nil {
			return nil, err
		}
		row := Fig10Row{Name: b.Name, RelativeLo: math.MaxFloat64}
		best := [2]float64{math.MaxFloat64, math.MaxFloat64}
		for i := 0; i < repeat; i++ {
			var secs [2]float64
			for j := range sides {
				side := (i + j) % 2
				res, err := sides[side].ExecSharded(prog, b.Entry, b.Workers, b.Workers, nil)
				if err != nil {
					return nil, fmt.Errorf("%s/%s: %w", b.Name, sides[side].Name, err)
				}
				secs[side] = res.Wall.Seconds()
				best[side] = min(best[side], secs[side])
				if side == 1 {
					row.Issues = res.Reporter.NumIssues()
				}
			}
			r := secs[1] / secs[0]
			row.RelativeLo, row.RelativeHi = min(row.RelativeLo, r), max(row.RelativeHi, r)
		}
		row.Relative = best[1] / best[0]
		rows = append(rows, row)
	}
	fmt.Fprintln(w, "Figure 10: EffectiveSan relative performance, browser workloads")
	fmt.Fprintf(w, "%-14s %12s %8s  %s\n", "Benchmark", "Relative", "Issues", "per-repeat range")
	logSum := 0.0
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %11.0f%% %8d  %.0f%%–%.0f%%\n", r.Name, r.Relative*100, r.Issues,
			r.RelativeLo*100, r.RelativeHi*100)
		logSum += math.Log(r.Relative)
	}
	mean := math.Exp(logSum / float64(len(rows)))
	fmt.Fprintf(w, "geomean: %.0f%%   (paper: ~522%% of baseline, i.e. +422%%)\n", mean*100)
	return rows, nil
}

// ToolRow is one baseline's overhead summary for the §6.2 comparison.
type ToolRow struct {
	Name     string
	Overhead float64 // geomean vs uninstrumented
}

// ToolComparison times the modelled baseline sanitizers on a subset of
// the SPEC workloads (the §6.2 discussion compares published overheads;
// here every tool runs the same substrate so the ordering is directly
// observable).
func ToolComparison(w io.Writer, names []string) ([]ToolRow, error) {
	benches := spec.Benchmarks()
	if names != nil {
		var sel []*spec.Benchmark
		for _, n := range names {
			if b := spec.ByName(n); b != nil {
				sel = append(sel, b)
			}
		}
		benches = sel
	}
	type prepared struct {
		name  string
		prog  *mir.Program
		entry string
	}
	var progs []prepared
	for _, b := range benches {
		p, err := b.Program()
		if err != nil {
			return nil, err
		}
		progs = append(progs, prepared{b.Name, p, b.Entry})
	}
	tools := append([]*sanitizers.Tool{sanitizers.ToolUninstrumented},
		append(sanitizers.Baselines(),
			sanitizers.ToolEffType.Counting(), sanitizers.ToolEffBounds.Counting(),
			sanitizers.ToolEffectiveSan.Counting())...)

	base := map[string]float64{}
	var rows []ToolRow
	for _, tool := range tools {
		logSum, n := 0.0, 0
		for _, p := range progs {
			res, err := tool.Exec(p.prog, p.entry, io.Discard)
			if err != nil {
				return nil, fmt.Errorf("%s under %s: %w", p.name, tool.Name, err)
			}
			sec := res.Elapsed.Seconds()
			if tool == sanitizers.ToolUninstrumented {
				base[p.name] = sec
				continue
			}
			if b := base[p.name]; b > 0 && sec > 0 {
				logSum += math.Log(sec / b)
				n++
			}
		}
		if tool == sanitizers.ToolUninstrumented {
			continue
		}
		oh := 0.0
		if n > 0 {
			oh = math.Exp(logSum/float64(n)) - 1
		}
		rows = append(rows, ToolRow{Name: tool.Name, Overhead: oh})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Overhead < rows[j].Overhead })

	fmt.Fprintln(w, "Tool comparison (§6.2): geomean runtime overhead on the shared substrate")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %+8.0f%%\n", r.Name, r.Overhead*100)
	}
	fmt.Fprintln(w, strings.TrimSpace(`
(published figures for the real tools: ASan 73-92%, LowFat 54%, BaggyBounds 60%,
SoftBound ~67-100%, MPX ~200%, CaVer 20-30%, TypeSan 12%, HexType 3%;
EffectiveSan full 288%, -bounds 115%, -type 49%)`))
	return rows, nil
}
