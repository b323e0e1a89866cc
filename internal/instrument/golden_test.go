package instrument

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bugsuite"
	"repro/internal/mir"
	"repro/internal/progen"
	"repro/internal/spec"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/static_verdicts.golden from the current analysis")

const goldenPath = "testdata/static_verdicts.golden"

type goldenProgram struct{ name, src, entry string }

// goldenPrograms is the corpus the verdict golden file pins: every
// Fig. 7 SPEC kernel, every bugsuite case, and progen programs of the
// benchmark's compile- and checks-workload shapes.
func goldenPrograms() []goldenProgram {
	var ps []goldenProgram
	for _, b := range spec.Benchmarks() {
		ps = append(ps, goldenProgram{"spec/" + b.Name, b.Source, b.Entry})
	}
	for _, c := range bugsuite.Cases() {
		ps = append(ps, goldenProgram{"bugsuite/" + c.Name, c.Src, "main"})
	}
	gen := func(prefix string, seed int64, opts progen.Options) {
		ps = append(ps, goldenProgram{fmt.Sprintf("progen/%s-%d", prefix, seed), progen.Generate(seed, opts), "main"})
	}
	// The compile workload: large programs, short runs.
	for k := int64(1); k <= 8; k++ {
		opts := progen.Options{Types: 4, Funcs: 2, Rounds: 256, Diamonds: 4, Interior: true}
		switch k % 4 {
		case 1:
			opts.LoopHeavy = true
		case 2:
			opts.TempHeavy = true
		case 3:
			opts.StaticSafe = true
		case 0:
			opts.LibCalls = true
		}
		gen("compile", k, opts)
	}
	// The checks workload: sub-object type checks and a type explosion.
	for k := int64(1); k <= 4; k++ {
		gen("checks", k, progen.Options{
			Types: 3, Rounds: 1600, Interior: true, Diamonds: 2,
			LoopHeavy: true, TempHeavy: true, LibCalls: true,
		})
	}
	gen("types", 5, progen.Options{TypeExplosion: 256, Rounds: 40})
	return ps
}

// staticVerdictDump renders, for one program, every mir.AnalyzeSafety
// verdict on exactly the program the static pass sees (instrumented,
// not yet optimised) and the full Stats of a Full and a BoundsOnly
// instrumentation.
func staticVerdictDump(t *testing.T, gp goldenProgram) string {
	prog := compileStatic(t, gp.src)
	var b strings.Builder

	inserted := prog.Clone()
	var ignored Stats
	for _, f := range inserted.Funcs {
		instrumentFunc(inserted, f, Options{Variant: Full}, &ignored)
	}
	// Rooted at the entry (what Instrument runs) and unrooted (every
	// function under ⊤ arguments), which reaches different facts.
	for _, roots := range [][]string{{gp.entry}, nil} {
		res := mir.AnalyzeSafety(inserted, roots)
		names := make([]string, 0, len(res.Verdicts))
		for name := range res.Verdicts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, v := range res.Verdicts[name] {
				fmt.Fprintf(&b, "%s roots=%d %s %d:%d %v %s\n",
					gp.name, len(roots), name, v.Block, v.Index, v.Verdict, v.Reason)
			}
		}
	}

	// BoundsOnly runs the same static pass over its own check shapes.
	for _, v := range []Variant{Full, BoundsOnly} {
		_, st := Instrument(prog, Options{Variant: v, StaticEntry: gp.entry})
		fmt.Fprintf(&b, "%s %v stats %+v\n", gp.name, v, st)
	}
	return b.String()
}

// TestStaticVerdictsGolden pins every static safety verdict, reason
// string and Stats counter over the golden corpus: any change to the
// abstract interpretation's representation or speed must leave this
// file byte-identical. Regenerate deliberately with
// `go test ./internal/instrument -run StaticVerdictsGolden -update`.
func TestStaticVerdictsGolden(t *testing.T) {
	var b strings.Builder
	for _, gp := range goldenPrograms() {
		b.WriteString(staticVerdictDump(t, gp))
	}
	got := b.String()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
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
			t.Fatalf("verdict dump differs from %s at line %d:\n got: %s\nwant: %s", goldenPath, i+1, g, w)
		}
	}
}
