package sanitizers

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/spec"
)

const statsGoldenPath = "testdata/stats.golden"

// statsDump runs every Fig. 7 SPEC kernel under EffectiveSan in precise
// mode and renders each run's full counter snapshot, one counter per
// line: the check counts (type, bounds, narrow, escape), every §5.3
// cache level and the allocation and layout counters.
func statsDump(t *testing.T) string {
	var b strings.Builder
	for _, bm := range spec.Benchmarks() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		res, err := ToolEffectiveSan.Exec(prog, bm.Entry, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		v := reflect.ValueOf(res.Stats)
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(&b, "spec/%s %s=%d\n", bm.Name, v.Type().Field(i).Name, v.Field(i).Uint())
		}
	}
	return b.String()
}

// TestStatsGolden pins the runtime counters of the SPEC kernels exactly:
// how the interpreter dispatches checks or tallies their counts may
// change, the counts may not. Regenerate deliberately with
// `go test ./internal/sanitizers -run StatsGolden -update`.
func TestStatsGolden(t *testing.T) {
	checkGolden(t, statsGoldenPath, statsDump(t))
}
