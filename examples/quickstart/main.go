// Quickstart: using the EffectiveSan runtime API directly.
//
// This example exercises the paper's core mechanism without the compiler
// pipeline: it builds C types, allocates dynamically typed objects
// (type_malloc), and performs type_check / bounds_check operations,
// showing how one mechanism detects type confusion, sub-object
// overflows, and use-after-free.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ctypes"
)

func main() {
	tb := ctypes.NewTable()
	rt := core.NewRuntime(core.Options{Types: tb})

	// The paper's Example 1 types:
	//   struct S {int a[3]; char *s;};
	//   struct T {float f; struct S t;};
	tb.MustParse("struct S { int a[3]; char *s; }")
	T := tb.MustParse("struct T { float f; struct S t; }")

	p, err := rt.New(T, core.HeapAlloc)
	if err != nil {
		panic(err)
	}
	fmt.Printf("allocated a struct T at %#x (dynamic type bound at allocation)\n\n", p)

	// Example 5: an interior pointer to t.a[2] checked against int[]
	// succeeds and yields the int[3] sub-object bounds.
	q := p + 16 // &p->t.a[2] under x86_64 layout
	b := rt.TypeCheck(q, ctypes.Int, "quickstart")
	fmt.Printf("type_check(&p->t.a[2], int[])    -> bounds %v (the int[3] sub-object)\n", b)

	// The same pointer checked against double[] is type confusion.
	rt.TypeCheck(q, ctypes.Double, "quickstart")
	fmt.Printf("type_check(&p->t.a[2], double[]) -> %d error(s) logged\n\n", rt.Reporter.Total())

	// Sub-object bounds enforcement: walking past int[3] with the bounds
	// from the type check is caught even though the access stays inside
	// the allocation (the §1 account example in miniature).
	overflow := q + 8 // one past a[2] is a[3]: outside int[3]
	ok := rt.BoundsCheck(overflow, 4, b, ctypes.Int, "quickstart")
	fmt.Printf("bounds_check(&p->t.a[3])         -> in bounds? %v\n\n", ok)

	// Use-after-free: the freed object is rebound to the FREE type, so
	// the next type check fails.
	rt.TypeFree(p, "quickstart")
	rt.TypeCheck(p, ctypes.Float, "quickstart")

	fmt.Println("error log:")
	fmt.Print(rt.Reporter.Log())

	st := rt.Stats()
	fmt.Printf("\nstats: %d type checks, %d bounds checks, %d narrows\n",
		st.TypeChecks, st.BoundsChecks, st.BoundsNarrows)

	// The type metadata also powers reflection (§5): ask the runtime what
	// lives at an arbitrary pointer.
	p2, _ := rt.New(T, core.HeapAlloc)
	fmt.Println("\nreflection (Describe):")
	fmt.Println(rt.Describe(p2 + 16))
}
