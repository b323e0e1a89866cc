// Sub-object bounds detection: the paper's §1 motivating example.
//
//	struct account {int number[8]; float balance;}
//
// An overflow from number[] into balance stays inside the allocation, so
// allocation-bounds tools (AddressSanitizer, LowFat, BaggyBounds) cannot
// see it. EffectiveSan derives the int[8] sub-object bounds from the
// dynamic type at the type check and catches the overflow; its own
// bounds-only variant (allocation bounds, like LowFat) demonstrably does
// not — run and compare.
//
// Run with: go run ./examples/subobject
package main

import (
	"fmt"
	"os"

	"repro/internal/cc"
	"repro/internal/ctypes"
	"repro/internal/sanitizers"
)

const src = `
struct account { int number[8]; float balance; };

int main() {
    struct account *acct = new struct account;
    acct->balance = 1000.0;
    int *number = acct->number;
    // Writes number[0..8]: the last write lands on balance.
    for (int i = 0; i <= 8; i++) {
        number[i] = 7;
    }
    float b = acct->balance;   // 9.8e-45: the account balance is gone
    free(acct);
    return (int)b;
}
`

func main() {
	prog, err := cc.Compile(src, ctypes.NewTable())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, tool := range []*sanitizers.Tool{
		sanitizers.ToolEffectiveSan,
		sanitizers.ToolEffBounds,
		{Name: "AddressSanitizer", MakeSan: func() sanitizers.Sanitizer {
			return sanitizers.NewASan()
		}},
	} {
		// Each Exec builds a fresh environment, so runs are independent.
		res, err := tool.Exec(prog, "main", os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-22s ", tool.Name+":")
		if n := res.Reporter.NumIssues(); n > 0 {
			fmt.Printf("DETECTED (%d issue)\n", n)
			fmt.Print("    " + res.Reporter.Log())
		} else {
			fmt.Println("missed (overflow stays inside the allocation)")
		}
	}
}
