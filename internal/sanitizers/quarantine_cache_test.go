package sanitizers

import (
	"io"
	"testing"

	"repro/internal/bugsuite"
	"repro/internal/core"
)

// The ROADMAP's quarantine × cache regression suite. Reuse-after-free
// detection depends on slot-reuse timing, and metadata rebinding is the
// only mutable input the check-cache key ignores by name — it is safe
// because the metadata type id changes on every rebind (free writes
// FREE, reuse writes the new type), so a stale (tid, k, s) entry can
// never validate. These tests pin that argument down: the temporal
// bugsuite cases, including the hot-cache ones that deliberately warm a
// check site before freeing under it, must be detected identically with
// every cache level on and off, at every quarantine setting.

// quarantineCases are the corpus programs whose detection depends on
// free/reuse timing interacting with check caching.
var quarantineCases = []string{
	"use-after-free",
	"reuse-after-free-difftype",
	"uaf-hot-cache",
	"reuse-after-free-hot-cache",
}

// TestQuarantineCacheMatrix runs each case under the full §5.3 knob
// matrix at three quarantine settings. Within one quarantine setting,
// every knob combination must report exactly the same issues — and the
// use-after-free itself must actually be detected, not merely agreed
// upon.
func TestQuarantineCacheMatrix(t *testing.T) {
	for _, quarantine := range []uint64{0, 4 << 10, 1 << 20} {
		base := *ToolEffectiveSan
		base.Runtime.Quarantine = quarantine
		tools := knobMatrix(&base)
		for _, name := range quarantineCases {
			c := bugsuite.ByName(name)
			if c == nil {
				t.Fatalf("no bugsuite case %q", name)
			}
			prog, err := c.Program()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := ""
			var wantKinds map[core.ErrorKind]int
			for i, tool := range tools {
				res, err := tool.Exec(prog, "main", io.Discard)
				if err != nil {
					t.Fatalf("%s (q=%d) under %s: %v", name, quarantine, tool.Name, err)
				}
				got := issueSummary(res)
				if i == 0 {
					want = got
					wantKinds = res.Reporter.IssuesByKind()
					continue
				}
				if got != want {
					t.Errorf("%s (q=%d): %s issues %q != %s issues %q",
						name, quarantine, tool.Name, got, tools[0].Name, want)
				}
			}
			// The temporal bug must be visible as a use-after-free or (for
			// recycled slots) a type error — a clean run means some cache
			// level masked the rebind.
			if wantKinds[core.UseAfterFree]+wantKinds[core.TypeError] == 0 {
				t.Errorf("%s (q=%d): temporal bug undetected in all configurations: %v",
					name, quarantine, wantKinds)
			}
		}
	}
}

// TestHotCacheSiteSurvivesFree zooms into the mechanism on the
// uaf-hot-cache case: under the default tool the hot site's inline
// entry sees real traffic before the free, and the use-after-free is
// still reported — the FREE rebind changes the metadata type id, which
// every cache level keys on.
func TestHotCacheSiteSurvivesFree(t *testing.T) {
	c := bugsuite.ByName("uaf-hot-cache")
	prog, err := c.Program()
	if err != nil {
		t.Fatal(err)
	}
	// Disable the shared cache so the loop's checks exercise the inline
	// level rather than the exact-match fast path.
	tool := *ToolEffectiveSan
	tool.Runtime.NoCheckCache = true
	tool.Runtime.Quarantine = 1 << 20
	res, err := tool.Exec(prog, "main", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.InlineCacheHits == 0 {
		t.Fatal("the hot site never hit its inline entry; the case lost its point")
	}
	if res.Reporter.IssuesByKind()[core.UseAfterFree] == 0 {
		t.Fatalf("use-after-free masked by a hot inline entry:\n%s", res.Reporter.Log())
	}
}
