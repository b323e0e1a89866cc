package sanitizers_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/sanitizers"
)

const costGoldenPath = "testdata/cost.golden"

// TestCostGolden pins the Fig. 8 cost column (harness.RunCost) of every
// bar on every program, one line per bar and program. A bar's cost
// prices the MIR steps its run executed and each type check by the
// cascade level that resolved it, so a change to the interpreter, the
// runtime or memory that keeps this file byte-identical has kept every
// executed step and check counter. Regenerate deliberately with
// `go test ./internal/sanitizers -run CostGolden -update`.
func TestCostGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Fig. 8 bar")
	}
	rows, err := harness.Fig8(io.Discard, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range rows {
		for _, bar := range harness.Fig8BarNames() {
			fmt.Fprintf(&b, "%s %s cost=%.1f\n", r.Name, bar, r.Cost[bar])
		}
	}
	sanitizers.CheckGolden(t, costGoldenPath, b.String())
}
