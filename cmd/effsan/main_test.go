package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bugsuite"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/sanitizers"
)

// findCase pulls one named case out of the bugsuite corpus.
func findCase(t *testing.T, name string) *bugsuite.Case {
	t.Helper()
	for _, c := range bugsuite.Cases() {
		if c.Name == name {
			return &c
		}
	}
	t.Fatalf("bugsuite case %q missing", name)
	return nil
}

// TestWarnStaticFlagsBugsuiteCase drives the -warn-static compile-only
// mode over the bugsuite's static-oob case: the constant out-of-bounds
// global access must produce at least one diagnostic naming the
// allocation, with exit code 1 — and the runtime report for the same
// program must be unchanged (the flagged checks are kept, not deleted).
func TestWarnStaticFlagsBugsuiteCase(t *testing.T) {
	c := findCase(t, "static-oob")
	prog, err := c.Program()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := runWarnStatic(prog, "main", &out); code != 1 {
		t.Fatalf("exit code %d, want 1; output:\n%s", code, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "warning:") || !strings.Contains(text, "always fails") {
		t.Errorf("diagnostic text malformed:\n%s", text)
	}
	if !strings.Contains(text, "gtab") {
		t.Errorf("diagnostic does not name the overflowed allocation:\n%s", text)
	}
	if !strings.Contains(text, "main") {
		t.Errorf("diagnostic does not name the containing function:\n%s", text)
	}

	// The runtime report is byte-identical to the case's pinned Expect:
	// -warn-static surfaces the site at compile time but the check stays.
	prog2, err := c.Program()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sanitizers.ToolEffectiveSan.Exec(prog2, "main", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[core.ErrorKind]bool{}
	for _, is := range res.Reporter.Issues() {
		kinds[is.Kind] = true
	}
	for _, k := range c.Expect {
		if !kinds[k] {
			t.Errorf("runtime run missed %s (issues: %v)", k, res.Reporter.Issues())
		}
	}
}

// TestWarnStaticCleanProgram: a provably-clean program produces no
// diagnostics and exit code 0.
func TestWarnStaticCleanProgram(t *testing.T) {
	c := findCase(t, "clean-matrix")
	prog, err := c.Program()
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := runWarnStatic(prog, "main", &out); code != 0 {
		t.Fatalf("clean program exit code %d, want 0; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no STATIC-UNSAFE") {
		t.Errorf("clean-program output malformed:\n%s", out.String())
	}
}

// TestProfiles checks that -cpuprofile and -memprofile write both
// profiles once the invocation finishes.
func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := startProfiles(cpu, mem); err != nil {
		t.Fatal(err)
	}
	c := findCase(t, "object-overflow")
	prog, err := c.Program()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sanitizers.ToolEffectiveSan.Exec(prog, "main", io.Discard); err != nil {
		t.Fatal(err)
	}
	stopProfiles()
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (%v)", p, err)
		}
	}
}

// TestCheckFlags pins the usage errors main turns into exit code 2:
// -abort with -tool used to be accepted and silently ignored.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name       string
		nargs      int
		tool       string
		abortAfter uint64
		wantErr    bool
	}{
		{"effectivesan", 1, "", 0, false},
		{"effectivesan abort", 1, "", 3, false},
		{"baseline", 1, "AddressSanitizer", 0, false},
		{"baseline abort", 1, "AddressSanitizer", 3, true},
		{"no program", 0, "", 0, true},
		{"two programs", 2, "", 0, true},
	}
	for _, c := range cases {
		err := checkFlags(c.nargs, c.tool, c.abortAfter)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: checkFlags = %v, want error %v", c.name, err, c.wantErr)
		}
	}
}

// TestAbortReportsOneEvent drives -abort through Tool.Exec: on a program
// with two errors, -abort 1 stops at the first, names the abort on the
// error stream and still reports the one event it found; without -abort
// both are reported.
func TestAbortReportsOneEvent(t *testing.T) {
	const src = `
struct S { int a; };
struct T { float f; };

int main() {
    int *p = malloc(4 * sizeof(int));
    p[4] = 1;
    struct S *s = new struct S;
    struct T *q = (struct T *)s;
    q->f = 1.0;
    free(p);
    return 0;
}`
	for _, c := range []struct {
		abortAfter uint64
		events     string
		aborted    bool
	}{
		{0, "2 error event(s)", false},
		{1, "1 error event(s)", true},
	} {
		prog, err := cc.Compile(src, ctypes.NewTable())
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := newTool("", "full", 0, c.abortAfter)
		if err != nil {
			t.Fatal(err)
		}
		var out, errOut strings.Builder
		if err := run(&out, &errOut, prog, cfg, "main", false); err != nil {
			t.Fatalf("-abort %d: %v", c.abortAfter, err)
		}
		if !strings.Contains(out.String(), c.events) {
			t.Errorf("-abort %d: report lacks %q:\n%s", c.abortAfter, c.events, out.String())
		}
		if got := strings.Contains(errOut.String(), "aborting after 1 errors"); got != c.aborted {
			t.Errorf("-abort %d: abort message %v, want %v (stderr %q)", c.abortAfter, got, c.aborted, errOut.String())
		}
	}
}
