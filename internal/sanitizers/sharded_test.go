package sanitizers

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bugsuite"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/spec"
)

// parityTool is the configuration the 1-vs-N detection-parity suite
// runs: full EffectiveSan with a quarantine large enough that freed
// slots are never reused within a run. Without it, cross-worker slot
// reuse is scheduling-dependent — worker A's dangling pointer may
// observe FREE (use-after-free) or worker B's fresh object (type
// confusion) depending on who allocates first — so the *bucket* of a
// seeded temporal issue would be racy even though an issue is always
// reported. Parity is a per-configuration property; the quarantined
// config makes it exact.
func parityTool() *Tool {
	cp := *ToolEffectiveSan
	cp.Name = "EffectiveSan-parity"
	cp.Runtime.Quarantine = 1 << 30
	return &cp
}

// issueKeys returns the reporter's distinct issue buckets as canonical
// strings (kind, static type, dynamic type, offset — the paper's §6.1
// bucketing), ignoring occurrence counts (N workers see N× occurrences)
// and first-site strings (racy by nature).
func issueKeys(rep *core.Reporter) []string {
	issues := rep.Issues()
	keys := make([]string, 0, len(issues))
	for _, is := range issues {
		keys = append(keys, fmt.Sprintf("%v|%s|%s|%d", is.Kind, is.StaticType, is.DynamicType, is.Offset))
	}
	sort.Strings(keys)
	return keys
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestShardedDetectionParityFig1 runs every error-injection case of the
// Fig. 1 corpus single-threaded and on a 4-worker shared runtime and
// asserts the distinct-issue sets are identical — the sharded mode is a
// performance mode, never a detection mode.
func TestShardedDetectionParityFig1(t *testing.T) {
	tool := parityTool()
	for _, c := range bugsuite.Cases() {
		prog, err := c.Program()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		r1, err := tool.Exec(prog, "main", io.Discard)
		if err != nil {
			t.Fatalf("%s x1: %v", c.Name, err)
		}
		rn, err := tool.ExecSharded(prog, "main", 4, 4, io.Discard)
		if err != nil {
			t.Fatalf("%s x4: %v", c.Name, err)
		}
		k1, kn := issueKeys(r1.Reporter), issueKeys(rn.Reporter)
		if !sameKeys(k1, kn) {
			t.Errorf("%s: issue sets diverge\n 1-thread: %v\n 4-thread: %v", c.Name, k1, kn)
		}
	}
}

// TestShardedDetectionParityFig7 does the same over the Fig. 7 SPEC
// workloads: every seeded issue a single-threaded run finds, a 3-worker
// run over one shared runtime finds too, and nothing else.
func TestShardedDetectionParityFig7(t *testing.T) {
	tool := parityTool()
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
		rn, err := tool.ExecSharded(prog, b.Entry, 3, 3, io.Discard)
		if err != nil {
			t.Fatalf("%s x3: %v", b.Name, err)
		}
		k1, kn := issueKeys(r1.Reporter), issueKeys(rn.Reporter)
		// Workloads with seeded issues must stay detectable under the
		// parity config (workloads whose paper count is 0 stay clean).
		if b.PaperIssues > 0 && len(k1) == 0 {
			t.Errorf("%s: no issues detected single-threaded; corpus inert?", b.Name)
		}
		if !sameKeys(k1, kn) {
			t.Errorf("%s: issue sets diverge\n 1-thread: %v\n 3-thread: %v", b.Name, k1, kn)
		}
	}
}

// TestExecAndOneWorkerShardedAgree pins that Exec and ExecSharded run on
// one substrate: on a Fig. 7 workload, a one-worker sharded run of the
// same tool instruments the same program and computes the same value,
// issue buckets and check volume as Exec.
func TestExecAndOneWorkerShardedAgree(t *testing.T) {
	b := spec.ByName("h264ref") // seeded bounds errors: both tools report
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, tool := range []*Tool{ToolEffectiveSan, ToolEffBounds} {
		r1, err := tool.Exec(prog, b.Entry, io.Discard)
		if err != nil {
			t.Fatalf("%s Exec: %v", tool.Name, err)
		}
		rs, err := tool.ExecSharded(prog, b.Entry, 1, 1, io.Discard)
		if err != nil {
			t.Fatalf("%s ExecSharded: %v", tool.Name, err)
		}
		if !reflect.DeepEqual(r1.InstrStats, rs.InstrStats) {
			t.Errorf("%s: instrumentation differs:\n Exec        %+v\n ExecSharded %+v", tool.Name, r1.InstrStats, rs.InstrStats)
		}
		if r1.Value != rs.Value {
			t.Errorf("%s: value %d by Exec, %d by ExecSharded", tool.Name, r1.Value, rs.Value)
		}
		if k1, ks := issueKeys(r1.Reporter), issueKeys(rs.Reporter); len(k1) == 0 || !sameKeys(k1, ks) {
			t.Errorf("%s: issue sets diverge\n Exec:        %v\n ExecSharded: %v", tool.Name, k1, ks)
		}
		if r1.Stats.TypeChecks != rs.Stats.TypeChecks || r1.Stats.BoundsChecks != rs.Stats.BoundsChecks {
			t.Errorf("%s: checks %d/%d by Exec, %d/%d by ExecSharded", tool.Name,
				r1.Stats.TypeChecks, r1.Stats.BoundsChecks, rs.Stats.TypeChecks, rs.Stats.BoundsChecks)
		}
	}
}

// TestExecShardedPool covers the worker-pool mechanics: job partitioning
// over the shared queue, per-worker stats views summing to the
// aggregate, and the aggregate being folded back into the runtime. It
// also pins the cache levels under contention: the per-site inline
// caches hit in a sharded run, and with them off (the no-inline
// ablation) the shared memo cache serves their traffic instead.
func TestExecShardedPool(t *testing.T) {
	b := spec.ByName("lbm")
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	tool := ToolEffectiveSan.Counting()
	const jobs, threads = 6, 3
	res, err := tool.ExecSharded(prog, b.Entry, jobs, threads, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workers) != threads {
		t.Fatalf("%d worker reports, want %d", len(res.Workers), threads)
	}
	var jobsDone int
	var sum core.StatsSnapshot
	for _, w := range res.Workers {
		jobsDone += w.Jobs
		sum = sum.Add(w.Stats)
	}
	if jobsDone != jobs {
		t.Fatalf("workers completed %d jobs, want %d", jobsDone, jobs)
	}
	if sum != res.Stats {
		t.Fatalf("aggregate stats != sum of worker stats:\n%+v\nvs\n%+v", res.Stats, sum)
	}
	if res.Stats.TypeChecks == 0 || res.Stats.BoundsChecks == 0 {
		t.Fatalf("dead counters: %+v", res.Stats)
	}
	// The same corpus single-threaded must execute exactly the same
	// number of checks — sharding repartitions work, it never changes it.
	res1, err := tool.ExecSharded(prog, b.Entry, jobs, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.TypeChecks != res.Stats.TypeChecks ||
		res1.Stats.BoundsChecks != res.Stats.BoundsChecks {
		t.Fatalf("check volume changed with threading: x1 %d/%d vs x%d %d/%d",
			res1.Stats.TypeChecks, res1.Stats.BoundsChecks, threads,
			res.Stats.TypeChecks, res.Stats.BoundsChecks)
	}
	if got := res.Stats.InlineCacheHitRate(); got <= 0 {
		t.Errorf("inline hit rate %.3f, want > 0", got)
	}
	noInline, err := Ablated("no-inline", tool).ExecSharded(prog, b.Entry, jobs, threads, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := noInline.Stats.InlineCacheHitRate(); got != 0 {
		t.Errorf("no-inline: inline hit rate %.3f, want 0", got)
	}
	if got := noInline.Stats.CheckCacheHitRate(); got <= 0 {
		t.Errorf("no-inline: shared hit rate %.3f, want > 0", got)
	}
}

// TestExecShardedUninstrumented covers the plain-baseline pool (shared
// low-fat heap, no runtime).
func TestExecShardedUninstrumented(t *testing.T) {
	prog, err := cc.Compile(`
int main() {
    long acc = 0;
    for (int i = 0; i < 100; i++) {
        long *p = malloc(8 * sizeof(long));
        p[3] = (long)i;
        acc += p[3];
        free(p);
    }
    return (int)acc;
}`, ctypes.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ToolUninstrumented.ExecSharded(prog, "main", 4, 4, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workers) != 4 {
		t.Fatalf("%d worker reports, want 4", len(res.Workers))
	}
	if res.Value != 4950 {
		t.Fatalf("value = %d, want 4950", res.Value)
	}
	if res.Stats.TypeChecks != 0 {
		t.Fatalf("uninstrumented run counted %d type checks", res.Stats.TypeChecks)
	}
	if res.HeapPeak == 0 {
		t.Fatal("heap peak not reported")
	}
}

// TestExecShardedRejectsBaselines pins the supported-surface contract:
// hook-based baselines have no thread-safe shadow state.
func TestExecShardedRejectsBaselines(t *testing.T) {
	prog, err := cc.Compile(`int main() { return 0; }`, ctypes.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	asan := &Tool{Name: "AddressSanitizer", MakeSan: func() Sanitizer { return NewASan() }}
	if _, err := asan.ExecSharded(prog, "main", 4, 2, io.Discard); err == nil {
		t.Fatal("sharded baseline run unexpectedly succeeded")
	}
}
