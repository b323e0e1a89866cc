package mir_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/ctypes"
)

// opsSrc holds one loop per op class: integer arithmetic, compare and
// branch, loads and stores, and a field/index walk through a pointer
// parameter, whose every access EffectiveSan bounds-checks.
const opsSrc = `
struct node { long key; long pad[4]; };

long opsArith(long n) {
    long a = 1;
    long b = 3;
    for (long i = 0; i < n; i++) {
        a = a * 3 + b;
        b = (b ^ a) >> 3;
        a = a - (b & 255) + (i << 1);
    }
    return a + b;
}

long opsBranch(long n) {
    long c = 0;
    for (long i = 0; i < n; i++) {
        if ((i & 3) == 0) { c = c + 1; } else if (i < c) { c = c - 2; }
        if (c > 100) { c = 0; }
    }
    return c;
}

long opsMem(long n) {
    long *v = malloc(64 * sizeof(long));
    for (long i = 0; i < n; i++) { v[i & 63] = v[(i + 1) & 63] + i; }
    long r = v[7];
    free(v);
    return r;
}

long walk(struct node *ns, long n) {
    long s = 0;
    for (long i = 0; i < n; i++) {
        ns[i & 15].key = s;
        s = s + ns[(i + 3) & 15].pad[i & 3];
    }
    return s;
}

// opsTypeCheck loads a pointer from a table on every iteration, and
// EffectiveSan type-checks each: on even iterations it is the
// allocation's base, which takes the exact-match fast path, and on odd
// ones an element's base, which hits the load site's inline cache.
long opsTypeCheck(long n) {
    struct node *ns = malloc(16 * sizeof(struct node));
    struct node **ps = malloc(16 * sizeof(struct node *));
    for (long i = 0; i < 16; i++) { ps[i] = ns + i; ns[i].key = i; }
    long s = 0;
    for (long i = 0; i < n; i++) {
        struct node *q = ps[(i & 1) * (i & 15)];
        s = s + q->key;
    }
    free(ps);
    free(ns);
    return s;
}

long opsWalk(long n) {
    struct node *ns = malloc(16 * sizeof(struct node));
    memset(ns, 1, 16 * sizeof(struct node));
    long s = walk(ns, n);
    free(ns);
    return s;
}
`

// BenchmarkInterpOps measures dispatch per op class: each case runs one
// loop of the op class 10,000 times and reports the time per executed
// MIR instruction (ns/instr) next to the instructions per Run. The walk
// runs uninstrumented and under EffectiveSan, where type, bounds and
// escape checks join the loop; "typecheck" runs under EffectiveSan a
// loop that type-checks a loaded pointer per iteration, half of them on
// the fast path and half through the inline cache.
func BenchmarkInterpOps(b *testing.B) {
	p, err := cc.Compile(opsSrc, ctypes.NewTable())
	if err != nil {
		b.Fatal(err)
	}
	const n = 10000
	for _, c := range []struct {
		name string
		eff  bool
		fn   string
	}{
		{"arith", false, "opsArith"},
		{"branch", false, "opsBranch"},
		{"loadstore", false, "opsMem"},
		{"walk", false, "opsWalk"},
		{"walk-effectivesan", true, "opsWalk"},
		{"typecheck", true, "opsTypeCheck"},
	} {
		b.Run(c.name, func(b *testing.B) {
			in, _ := newInterp(b, p, c.eff)
			_, steps, err := in.RunSteps(c.fn, n)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := in.RunSteps(c.fn, n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(steps), "ns/instr")
			b.ReportMetric(float64(steps), "instrs/op")
		})
	}
}
