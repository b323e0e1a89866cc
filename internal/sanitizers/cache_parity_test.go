package sanitizers

import (
	"fmt"
	"io"
	"sort"
	"testing"

	"repro/internal/bugsuite"
	"repro/internal/core"
	"repro/internal/spec"
)

// issueSummary renders a reporter's issues as a canonical string for
// equality comparison across configurations.
func issueSummary(res *RunResult) string {
	kinds := res.Reporter.IssuesByKind()
	keys := make([]int, 0, len(kinds))
	for k := range kinds {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%d:%d;", k, kinds[core.ErrorKind(k)])
	}
	return s
}

// TestCheckCachingDetectionParityFig1 runs the Fig. 1 error-injection
// corpus under full EffectiveSan with the §5.3 check cache on and off:
// the caches are performance-only, so the detected issues must be
// identical case by case.
func TestCheckCachingDetectionParityFig1(t *testing.T) {
	cached := ToolEffectiveSan
	uncached := Ablated("nocache", ToolEffectiveSan)
	for _, c := range bugsuite.Cases() {
		prog, err := c.Program()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		rc, err := cached.Exec(prog, "main", io.Discard)
		if err != nil {
			t.Fatalf("%s cached: %v", c.Name, err)
		}
		ru, err := uncached.Exec(prog, "main", io.Discard)
		if err != nil {
			t.Fatalf("%s uncached: %v", c.Name, err)
		}
		if got, want := issueSummary(rc), issueSummary(ru); got != want {
			t.Errorf("%s: cached issues %q != uncached %q", c.Name, got, want)
		}
	}
}

// knobMatrix returns the eight §5.3 knob combinations: per-site inline
// cache × shared memo cache × check motion, each on and off (motion
// changes which checks survive and so how sites map to inline caches).
// The base tool is copied, so the matrix composes with quarantine and
// mode settings.
func knobMatrix(base *Tool) []*Tool {
	var tools []*Tool
	for _, inline := range []bool{false, true} {
		for _, shared := range []bool{false, true} {
			for _, nomotion := range []bool{false, true} {
				cp := *base
				cp.Runtime.NoInlineCache = inline
				cp.Runtime.NoCheckCache = shared
				cp.Instrument.NoCheckMotion = nomotion
				cp.Name = fmt.Sprintf("inline=%v shared=%v motion=%v",
					!inline, !shared, !nomotion)
				tools = append(tools, &cp)
			}
		}
	}
	return tools
}

// TestKnobMatrixDetectionParityFig1 runs the Fig. 1 error-injection
// corpus under every §5.3 knob combination: the caches and the elision
// pass are performance-only, so every combination must detect exactly
// the same issues on every case.
func TestKnobMatrixDetectionParityFig1(t *testing.T) {
	tools := knobMatrix(ToolEffectiveSan)
	for _, c := range bugsuite.Cases() {
		prog, err := c.Program()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		want := ""
		for i, tool := range tools {
			res, err := tool.Exec(prog, "main", io.Discard)
			if err != nil {
				t.Fatalf("%s under %s: %v", c.Name, tool.Name, err)
			}
			got := issueSummary(res)
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: %s issues %q != %s issues %q",
					c.Name, tool.Name, got, tools[0].Name, want)
			}
		}
	}
}

// TestKnobMatrixDetectionParityFig7 proves the same parity on the Fig. 7
// SPEC workloads: identical issue sets under every knob combination, and
// live inline-cache counters whenever the inline level is on.
func TestKnobMatrixDetectionParityFig7(t *testing.T) {
	tools := knobMatrix(ToolEffectiveSan)
	var inlineHits uint64
	for _, name := range []string{"perlbench", "mcf", "xalancbmk"} {
		b := spec.ByName(name)
		if b == nil {
			t.Fatalf("no spec workload %q", name)
		}
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		want := ""
		for i, tool := range tools {
			res, err := tool.Exec(prog, b.Entry, io.Discard)
			if err != nil {
				t.Fatalf("%s under %s: %v", name, tool.Name, err)
			}
			inlineTraffic := res.Stats.InlineCacheHits + res.Stats.InlineCacheMisses
			if tool.Runtime.NoInlineCache && inlineTraffic != 0 {
				t.Errorf("%s/%s: disabled inline cache saw %d lookups",
					name, tool.Name, inlineTraffic)
			}
			if !tool.Runtime.NoInlineCache {
				inlineHits += res.Stats.InlineCacheHits
			}
			got := issueSummary(res)
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: %s issues %q != %s issues %q",
					name, tool.Name, got, tools[0].Name, want)
			}
		}
	}
	// Workloads whose checks all resolve on the exact-match fast path (or
	// as char-view coercions) never reach the cache levels, so the hit
	// requirement is aggregate, not per workload.
	if inlineHits == 0 {
		t.Error("inline cache never hit across the Fig. 7 subset")
	}
}

// TestInlineCacheStandaloneFig7: with the shared memo cache (and its
// exact-match fast path) disabled, the per-site inline caches alone
// absorb the site-stable check traffic of a Fig. 7 workload — the
// configuration that isolates the level-1 contribution. (Under default
// settings the fast path serves the base-pointer checks that dominate
// these synthetic workloads before any cache level is consulted; the
// level-vs-level latency comparison on a site-stable sub-object workload
// is BenchmarkTypeCheckCached.)
func TestInlineCacheStandaloneFig7(t *testing.T) {
	b := spec.ByName("perlbench")
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	inlineOnly := *ToolEffectiveSan // shared cache off, inline on
	inlineOnly.Runtime.NoCheckCache = true
	ri, err := inlineOnly.Exec(prog, b.Entry, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := Ablated("nocache", ToolEffectiveSan).Exec(prog, b.Entry, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Stats.InlineCacheHitRate() < 0.5 {
		t.Errorf("standalone inline hit rate %.2f, want >= 0.5 on a site-stable workload",
			ri.Stats.InlineCacheHitRate())
	}
	if ri.Stats.LayoutMatches >= ru.Stats.LayoutMatches {
		t.Errorf("inline caches elided no layout matches: %d with vs %d without",
			ri.Stats.LayoutMatches, ru.Stats.LayoutMatches)
	}
	if got, want := issueSummary(ri), issueSummary(ru); got != want {
		t.Errorf("issue parity broken: %q vs %q", got, want)
	}
}

// TestCheckCacheHitRateFig7 verifies the acceptance criterion on real
// workloads: under the Fig. 7 SPEC programs the cached configuration
// hits the memo cache and performs strictly fewer layout-table matches
// than the uncached one, while detecting exactly the same issues.
func TestCheckCacheHitRateFig7(t *testing.T) {
	subset := []string{"perlbench", "mcf", "hmmer", "xalancbmk"}
	for _, name := range subset {
		b := spec.ByName(name)
		if b == nil {
			t.Fatalf("no spec workload %q", name)
		}
		prog, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		rc, err := ToolEffectiveSan.Exec(prog, b.Entry, io.Discard)
		if err != nil {
			t.Fatalf("%s cached: %v", name, err)
		}
		ru, err := Ablated("nocache", ToolEffectiveSan).Exec(prog, b.Entry, io.Discard)
		if err != nil {
			t.Fatalf("%s uncached: %v", name, err)
		}
		// The fast path is a degenerate (computed) cache hit: either way
		// the layout table was not consulted, which is the §5.3 win.
		if rc.Stats.CheckCacheHits+rc.Stats.CheckFastPath == 0 {
			t.Errorf("%s: no check-cache hits", name)
		}
		if rc.Stats.LayoutMatches >= ru.Stats.LayoutMatches && ru.Stats.LayoutMatches > 0 {
			t.Errorf("%s: cached layout matches %d, want fewer than uncached %d",
				name, rc.Stats.LayoutMatches, ru.Stats.LayoutMatches)
		}
		if rc.Stats.TypeChecks != ru.Stats.TypeChecks {
			t.Errorf("%s: type-check counts diverge: %d vs %d",
				name, rc.Stats.TypeChecks, ru.Stats.TypeChecks)
		}
		if got, want := issueSummary(rc), issueSummary(ru); got != want {
			t.Errorf("%s: cached issues %q != uncached %q", name, got, want)
		}
	}
}
