package progen

import (
	"io"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/sanitizers"
)

// TestDeterminism: equal seeds must produce identical sources.
func TestDeterminism(t *testing.T) {
	a := Generate(42, Options{})
	b := Generate(42, Options{})
	if a != b {
		t.Fatal("Generate is not deterministic")
	}
	if a == Generate(43, Options{}) {
		t.Fatal("different seeds produced identical programs")
	}
}

// TestGeneratedProgramsCompile: a spread of seeds must all compile.
func TestGeneratedProgramsCompile(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		src := Generate(seed, Options{})
		if _, err := cc.Compile(src, ctypes.NewTable()); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
	}
}

// TestDifferentialSoundness is the core property: for every seed, the
// program's result is identical under the uninstrumented interpreter and
// all three EffectiveSan variants, and no variant reports anything (the
// programs are clean by construction). Any report is a false positive;
// any result change is an instrumentation bug.
func TestDifferentialSoundness(t *testing.T) {
	tools := []*sanitizers.Tool{
		sanitizers.ToolUninstrumented,
		sanitizers.ToolEffectiveSan,
		sanitizers.ToolEffBounds,
		sanitizers.ToolEffType,
	}
	for seed := int64(0); seed < 25; seed++ {
		src := Generate(seed, Options{})
		var want uint64
		for i, tool := range tools {
			prog, err := cc.Compile(src, ctypes.NewTable())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, err := tool.Exec(prog, "main", io.Discard)
			if err != nil {
				t.Fatalf("seed %d under %s: %v", seed, tool.Name, err)
			}
			if res.Reporter.Total() > 0 {
				t.Errorf("seed %d under %s: FALSE POSITIVE\n%s",
					seed, tool.Name, res.Reporter.Log())
			}
			if i == 0 {
				want = res.Value
			} else if res.Value != want {
				t.Errorf("seed %d under %s: result %d, want %d (semantics changed)",
					seed, tool.Name, res.Value, want)
			}
		}
	}
}

// TestBaselinesNoFalsePositives runs a smaller seed spread under every
// baseline sanitizer model: clean programs must stay silent everywhere.
func TestBaselinesNoFalsePositives(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		src := Generate(seed, Options{})
		for _, tool := range sanitizers.Baselines() {
			prog, err := cc.Compile(src, ctypes.NewTable())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, err := tool.Exec(prog, "main", io.Discard)
			if err != nil {
				t.Fatalf("seed %d under %s: %v", seed, tool.Name, err)
			}
			if res.Reporter.Total() > 0 {
				t.Errorf("seed %d under %s: FALSE POSITIVE\n%s",
					seed, tool.Name, res.Reporter.Log())
			}
		}
	}
}

// TestShapeOptions: options actually change the generated shape.
func TestShapeOptions(t *testing.T) {
	small := Generate(7, Options{Types: 1, Funcs: 1, Rounds: 1})
	big := Generate(7, Options{Types: 6, Funcs: 2, Rounds: 4})
	if len(big) <= len(small) {
		t.Fatal("larger options did not grow the program")
	}
	base := Generate(7, Options{})
	if Generate(7, Options{Diamonds: 2}) == base || Generate(7, Options{Interior: true}) == base {
		t.Fatal("diamond/interior options did not change the program")
	}
	// New options must not perturb the RNG stream of the base shape:
	// old seeds keep producing byte-identical base programs.
	if Generate(7, Options{}) != base {
		t.Fatal("option plumbing broke base determinism")
	}
}

// TestDiamondInteriorSoundness extends the differential net to the
// diamond-heavy and interior-pointer shapes: for a spread of seeds the
// programs stay clean (no reports) and semantics-preserving under every
// EffectiveSan variant AND with check elision on and off — the shapes
// were added precisely to stress the §5.3 optimiser, so they must never
// change what the program computes.
func TestDiamondInteriorSoundness(t *testing.T) {
	tools := []*sanitizers.Tool{
		sanitizers.ToolUninstrumented,
		sanitizers.ToolEffectiveSan,
		sanitizers.Ablated("no-opt", sanitizers.ToolEffectiveSan),
		sanitizers.ToolEffBounds,
		sanitizers.ToolEffType,
	}
	for seed := int64(0); seed < 12; seed++ {
		src := Generate(seed, Options{Diamonds: 1 + int(seed%3), Interior: seed%2 == 0})
		var want uint64
		for i, tool := range tools {
			prog, err := cc.Compile(src, ctypes.NewTable())
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			res, err := tool.Exec(prog, "main", io.Discard)
			if err != nil {
				t.Fatalf("seed %d under %s: %v", seed, tool.Name, err)
			}
			if res.Reporter.Total() > 0 {
				t.Errorf("seed %d under %s: FALSE POSITIVE\n%s",
					seed, tool.Name, res.Reporter.Log())
			}
			if i == 0 {
				want = res.Value
			} else if res.Value != want {
				t.Errorf("seed %d under %s: result %d, want %d (semantics changed)",
					seed, tool.Name, res.Value, want)
			}
		}
	}
}

// TestAllocHeavySoundness extends the differential net to the
// alloc-heavy shape: tight malloc/free churn must stay clean (no
// reports) and semantics-preserving under every variant, sharded or
// not — it exists to stress the allocator, not to change detection.
func TestAllocHeavySoundness(t *testing.T) {
	tools := []*sanitizers.Tool{
		sanitizers.ToolUninstrumented,
		sanitizers.ToolEffectiveSan,
		sanitizers.ToolEffBounds,
		sanitizers.ToolEffType,
	}
	for seed := int64(0); seed < 8; seed++ {
		src := Generate(seed, Options{Types: 2, Rounds: 4, AllocHeavy: true})
		var want uint64
		for i, tool := range tools {
			prog, err := cc.Compile(src, ctypes.NewTable())
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			res, err := tool.Exec(prog, "main", io.Discard)
			if err != nil {
				t.Fatalf("seed %d under %s: %v", seed, tool.Name, err)
			}
			if res.Reporter.Total() > 0 {
				t.Errorf("seed %d under %s: FALSE POSITIVE\n%s",
					seed, tool.Name, res.Reporter.Log())
			}
			if i == 0 {
				want = res.Value
			} else if res.Value != want {
				t.Errorf("seed %d under %s: result %d, want %d (semantics changed)",
					seed, tool.Name, res.Value, want)
			}
		}
		// Sharded on per-worker magazines: same result, no reports.
		prog, err := cc.Compile(src, ctypes.NewTable())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sanitizers.ToolEffectiveSan.Counting().ExecSharded(prog, "main", 4, 2, io.Discard)
		if err != nil {
			t.Fatalf("seed %d sharded: %v", seed, err)
		}
		if res.Reporter.Total() > 0 {
			t.Errorf("seed %d sharded: FALSE POSITIVE", seed)
		}
		if res.Value != want {
			t.Errorf("seed %d sharded: result %d, want %d", seed, res.Value, want)
		}
	}
}

// TestLibCallsSoundness extends the differential net to the
// library-call shape: LibCalls programs drive every intrinsic strictly
// in bounds, so they must stay clean (no reports) and
// semantics-preserving under every variant and baseline — intrinsic
// introspection must never change what a clean program computes.
func TestLibCallsSoundness(t *testing.T) {
	tools := []*sanitizers.Tool{
		sanitizers.ToolUninstrumented,
		sanitizers.ToolEffectiveSan,
		sanitizers.ToolEffBounds,
		sanitizers.ToolEffType,
	}
	for seed := int64(0); seed < 12; seed++ {
		src := Generate(seed, Options{Types: 1, Rounds: 2, LibCalls: true})
		var want uint64
		for i, tool := range tools {
			prog, err := cc.Compile(src, ctypes.NewTable())
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			res, err := tool.Exec(prog, "main", io.Discard)
			if err != nil {
				t.Fatalf("seed %d under %s: %v", seed, tool.Name, err)
			}
			if res.Reporter.Total() > 0 {
				t.Errorf("seed %d under %s: FALSE POSITIVE\n%s",
					seed, tool.Name, res.Reporter.Log())
			}
			if i == 0 {
				want = res.Value
			} else if res.Value != want {
				t.Errorf("seed %d under %s: result %d, want %d (semantics changed)",
					seed, tool.Name, res.Value, want)
			}
		}
	}
	// The clean shape stays silent under the baseline models too.
	for seed := int64(0); seed < 4; seed++ {
		src := Generate(seed, Options{Types: 1, Rounds: 1, LibCalls: true})
		for _, tool := range sanitizers.Baselines() {
			prog, err := cc.Compile(src, ctypes.NewTable())
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, err := tool.Exec(prog, "main", io.Discard)
			if err != nil {
				t.Fatalf("seed %d under %s: %v", seed, tool.Name, err)
			}
			if res.Reporter.Total() > 0 {
				t.Errorf("seed %d under %s: FALSE POSITIVE\n%s",
					seed, tool.Name, res.Reporter.Log())
			}
		}
	}
}

// TestLibFaultsDetected: LibFaults programs carry five contained
// library faults; full EffectiveSan must report (the difftest oracle
// loop asserts the cross-config agreement), and the operations must
// still compute the same value as the uninstrumented run.
func TestLibFaultsDetected(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		src := Generate(seed, Options{Types: 1, Rounds: 1, LibCalls: true, LibFaults: true})
		run := func(tool *sanitizers.Tool) *sanitizers.RunResult {
			prog, err := cc.Compile(src, ctypes.NewTable())
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			res, err := tool.Exec(prog, "main", io.Discard)
			if err != nil {
				t.Fatalf("seed %d under %s: %v", seed, tool.Name, err)
			}
			return res
		}
		plain := run(sanitizers.ToolUninstrumented)
		full := run(sanitizers.ToolEffectiveSan)
		if full.Value != plain.Value {
			t.Errorf("seed %d: checked value %d != uninstrumented %d (checks changed semantics)",
				seed, full.Value, plain.Value)
		}
		kinds := full.Reporter.IssuesByKind()
		for _, want := range []core.ErrorKind{core.OverlapError, core.BoundsError, core.BadFree} {
			if kinds[want] == 0 {
				t.Errorf("seed %d: no %s reported\n%s", seed, want, full.Reporter.Log())
			}
		}
	}
}

// TestLibShapeOptions: the library options add the helpers and leave
// the base RNG stream untouched.
func TestLibShapeOptions(t *testing.T) {
	base := Generate(7, Options{})
	lib := Generate(7, Options{LibCalls: true})
	if lib == base {
		t.Fatal("LibCalls did not change the program")
	}
	for _, fn := range []string{"lib_mem", "lib_str", "lib_sort", "qsort"} {
		if !strings.Contains(lib, fn) {
			t.Fatalf("lib-calls source missing %s", fn)
		}
	}
	faults := Generate(7, Options{LibCalls: true, LibFaults: true})
	for _, fn := range []string{"fault_overlap", "fault_field", "fault_interior", "fault_strlen", "fault_sort"} {
		if !strings.Contains(faults, fn) {
			t.Fatalf("lib-faults source missing %s", fn)
		}
	}
	if Generate(7, Options{}) != base {
		t.Fatal("LibCalls plumbing broke base determinism")
	}
}

// TestAllocHeavyShape: the option adds the churn helpers and leaves the
// base RNG stream untouched.
func TestAllocHeavyShape(t *testing.T) {
	base := Generate(7, Options{})
	heavy := Generate(7, Options{AllocHeavy: true})
	if heavy == base {
		t.Fatal("AllocHeavy did not change the program")
	}
	for _, fn := range []string{"churn_2", "churn_515", "churn_node"} {
		if !strings.Contains(heavy, fn) {
			t.Fatalf("alloc-heavy source missing %s", fn)
		}
	}
	if Generate(7, Options{}) != base {
		t.Fatal("AllocHeavy plumbing broke base determinism")
	}
}
