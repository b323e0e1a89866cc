package sanitizers

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/bugsuite"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/instrument"
	"repro/internal/mir"
	"repro/internal/spec"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from the current runtime")

const reportsGoldenPath = "testdata/reports.golden"

// renderReports is the report bytes of one run: the program's value,
// the total error count and every issue's rendered message in first-seen
// order (so FirstSite and the bucket's static-type text are pinned too).
func renderReports(name string, value uint64, rep *core.Reporter) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s value=%d total=%d\n", name, value, rep.Total())
	for _, is := range rep.Issues() {
		fmt.Fprintf(&b, "%s   %s\n", name, is.Message())
	}
	return b.String()
}

// reportProbeSrc exercises the two report shapes the corpora below reach
// least directly: an intrinsic's argument label on a sub-object overflow
// ("memcpy dst"), and a sub-object overflow whose bounds come from a
// non-trivial type check.
const reportProbeSrc = `
struct Probe { int head[2]; int tail; };

void poke(int *q) {
    q[2] = 5;
}

int main() {
    struct Probe *p = new struct Probe;
    int src[3];
    src[0] = 1; src[1] = 2; src[2] = 3;
    memcpy(p->head, src, 12);
    poke(p->head);
    int r = p->tail;
    free(p);
    return r;
}`

// stripBoundsTypes clears the static type of every bounds check in fn,
// a shape instrumentation never emits but the interpreter accepts: its
// report must render the type as "".
func stripBoundsTypes(p *mir.Program, fn string) {
	for _, blk := range p.Funcs[fn].Blocks {
		for i := range blk.Instrs {
			if blk.Instrs[i].Op == mir.OpBoundsCheck {
				blk.Instrs[i].Type = nil
			}
		}
	}
}

// reportDump runs the Fig. 7 SPEC kernels, the bugsuite and the probe
// under EffectiveSan, and the probe again with poke's bounds checks
// stripped of their static type, and renders every report.
func reportDump(t *testing.T) string {
	var b strings.Builder
	run := func(name string, tool *Tool, prog *mir.Program, entry string) *RunResult {
		res, err := tool.Exec(prog, entry, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b.WriteString(renderReports(name, res.Value, res.Reporter))
		return res
	}
	precise := ToolEffectiveSan
	for _, bm := range spec.Benchmarks() {
		prog, err := bm.Program()
		if err != nil {
			t.Fatal(err)
		}
		run("spec/"+bm.Name, precise, prog, bm.Entry)
	}
	for _, c := range bugsuite.Cases() {
		prog, err := c.Program()
		if err != nil {
			t.Fatal(err)
		}
		run("bugsuite/"+c.Name+" precise", precise, prog, "main")
	}
	probe, err := cc.Compile(reportProbeSrc, ctypes.NewTable())
	if err != nil {
		t.Fatal(err)
	}
	run("probe precise", precise, probe, "main")

	ip, _ := instrument.Instrument(probe, precise.InstrumentOptions("main"))
	stripBoundsTypes(ip, "poke")
	rt := core.NewRuntime(precise.RuntimeOptions(ip.Types))
	in, err := mir.New(ip, mir.Options{Env: mir.NewEffEnv(rt)})
	if err != nil {
		t.Fatal(err)
	}
	v, err := in.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	// The label predates the removal of the deferred-check mode; it is
	// kept so the golden's lines stay byte-identical.
	b.WriteString(renderReports("probe nil-type epoch=false", v, rt.Reporter))
	return b.String()
}

// TestReportsGolden pins the rendered report bytes — every bucket's
// static and dynamic type text, offset, first site and count — over the
// SPEC kernels, the bugsuite and the probes above. Changes to how the
// interpreter or the runtime carry a check's static type must leave this
// file byte-identical. Regenerate deliberately with
// `go test ./internal/sanitizers -run ReportsGolden -update`.
func TestReportsGolden(t *testing.T) {
	got := reportDump(t)
	for _, want := range []string{
		"access of () outside bounds",           // nil static type
		"access of (memcpy dst) outside bounds", // intrinsic label
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report dump lacks %q", want)
		}
	}
	checkGolden(t, reportsGoldenPath, got)
}

// checkGolden requires got to equal the file at path byte for byte,
// naming the first differing line; with -update it rewrites the file.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("dump differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
