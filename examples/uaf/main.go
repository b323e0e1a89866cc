// Temporal errors through the FREE type (§3).
//
// EffectiveSan binds deallocated objects to the special FREE type,
// reducing use-after-free and double-free to type errors. Reuse-after-
// free is caught when the recycled slot holds a different type — and,
// demonstrably, missed when it holds the same type (the paper's
// documented partiality, Fig. 1 §). A quarantine delays reuse and
// converts reuse-after-free back into detectable use-after-free.
//
// Run with: go run ./examples/uaf
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cc"
	"repro/internal/ctypes"
	"repro/internal/sanitizers"
)

var cases = []struct {
	name string
	src  string
}{
	{"use-after-free", `
long *stash[1];
int main() {
    long *p = malloc(8 * sizeof(long));
    stash[0] = p;
    free(p);
    long *d = stash[0];
    return (int)d[0];
}`},
	{"double-free", `
int main() {
    long *p = malloc(8 * sizeof(long));
    free(p);
    free(p);
    return 0;
}`},
	{"reuse-after-free (different type)", `
long *stash[1];
int main() {
    long *p = malloc(8 * sizeof(long));
    stash[0] = p;
    free(p);
    double *q = malloc(8 * sizeof(double));  // recycles the slot
    q[0] = 2.5;
    long *d = stash[0];
    return (int)d[0];
}`},
	{"reuse-after-free (same type: the documented miss)", `
long *stash[1];
int main() {
    long *p = malloc(8 * sizeof(long));
    stash[0] = p;
    free(p);
    long *q = malloc(8 * sizeof(long));      // same type: undetectable
    q[0] = 9;
    long *d = stash[0];
    return (int)d[0];
}`},
}

func main() {
	for _, c := range cases {
		prog, err := cc.Compile(c.src, ctypes.NewTable())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res, err := sanitizers.ToolEffectiveSan.Exec(prog, "main", io.Discard)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-48s ", c.name+":")
		if res.Reporter.Total() > 0 {
			fmt.Println("DETECTED")
			fmt.Print("    " + res.Reporter.Log())
		} else {
			fmt.Println("missed")
		}
	}

	// With a quarantine, the same-type reuse slot is NOT recycled
	// immediately, so the dangling use still sees FREE.
	fmt.Println("\nwith a 1 MiB quarantine (delayed reuse):")
	prog, _ := cc.Compile(cases[3].src, ctypes.NewTable())
	q := *sanitizers.ToolEffectiveSan
	q.Name = "EffectiveSan+quarantine"
	q.Runtime.Quarantine = 1 << 20
	res, err := q.Exec(prog, "main", io.Discard)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%-48s ", cases[3].name+":")
	if res.Reporter.Total() > 0 {
		fmt.Println("DETECTED")
		fmt.Print("    " + res.Reporter.Log())
	} else {
		fmt.Println("missed")
	}
}
