package intrinsics_test

import (
	"io"
	"sort"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/sanitizers"
)

// The intrinsic edge-case table. Each source runs under the
// uninstrumented interpreter and a spread of checked configurations:
// every configuration must compute the same value (checks observe, they
// never change the operation), and the checked configurations must
// report exactly the expected error kinds — none for the clean edge
// cases.
var edgeCases = []struct {
	name string
	src  string
	want []core.ErrorKind // expected distinct report kinds (nil = clean)
	val  int64            // expected return value; -1 = only cross-config equality
}{
	{
		name: "zero-length-ops-and-bounds-edge",
		// Zero-length memcpy/memmove/memset are clean even with the
		// pointer exactly at the allocation's upper bound (p == Hi,
		// size == 0 passes Contains).
		src: `int main() {
    long *a = malloc(4 * 8);
    long *b = malloc(4 * 8);
    memcpy(a, b, 0);
    memcpy(a + 4, b, 0);
    memmove(a, b, 0);
    memset(a + 4, 9, 0);
    free(a);
    free(b);
    return 7;
}`,
		val: 7,
	},
	{
		name: "strcpy-exact-fit",
		// strlen(s) == 5, both buffers hold exactly 6 bytes: the copy
		// and its terminator fill the destination to the last byte.
		src: `int main() {
    char *s = malloc(6);
    char *d = malloc(6);
    for (int i = 0; i < 5; i++) { s[i] = (char)(65 + i); }
    s[5] = (char)0;
    strcpy(d, s);
    int r = (int)strlen(d);
    free(s);
    free(d);
    return r;
}`,
		val: 5,
	},
	{
		name: "strlen-nul-at-bounds-edge",
		// The NUL is the allocation's last byte: the scan reads exactly
		// size bytes — in bounds, clean.
		src: `int main() {
    char *s = malloc(4);
    s[0] = (char)72;
    s[1] = (char)73;
    s[2] = (char)74;
    s[3] = (char)0;
    int r = (int)strlen(s);
    free(s);
    return r;
}`,
		val: 3,
	},
	{
		name: "memmove-overlap-both-directions",
		// dst > src forces the backward walk, dst < src the forward
		// walk; both are legal for memmove and must shift correctly.
		src: `int main() {
    long *a = malloc(5 * 8);
    for (int i = 0; i < 5; i++) { a[i] = (long)(i + 1); }
    memmove(a + 1, a, 4 * 8);
    memmove(a, a + 1, 4 * 8);
    long acc = 0;
    for (int i = 0; i < 5; i++) { acc += a[i] * (long)(i + 1); }
    free(a);
    return (int)acc;
}`,
		val: 50,
	},
	{
		name: "qsort-empty-single-and-full",
		src: `int cmp(long *x, long *y) {
    if (*x < *y) { return 0 - 1; }
    if (*x > *y) { return 1; }
    return 0;
}
int main() {
    long *v = malloc(4 * 8);
    qsort(v, 0, 8, cmp);
    v[0] = 3;
    qsort(v, 1, 8, cmp);
    v[1] = 1;
    v[2] = 2;
    v[3] = 0;
    qsort(v, 4, 8, cmp);
    long acc = v[0] + 10 * v[1] + 100 * v[2] + 1000 * v[3];
    free(v);
    return (int)acc;
}`,
		val: 3210,
	},
	{
		name: "strncpy-pad-and-truncate",
		// n past the NUL zero-pads the remainder; n short of the NUL
		// copies exactly n bytes and writes no terminator — d[2] keeps
		// the 'H' from the first copy, so both strlen calls see 3.
		src: `int main() {
    char *s = malloc(8);
    char *d = malloc(8);
    for (int i = 0; i < 3; i++) { s[i] = (char)(70 + i); }
    s[3] = (char)0;
    for (int i = 0; i < 8; i++) { d[i] = (char)90; }
    strncpy(d, s, 8);
    int r = (int)strlen(d);
    strncpy(d, s, 2);
    r = r + 10 * (int)strlen(d);
    free(s);
    free(d);
    return r;
}`,
		val: 33,
	},
	{
		name: "memcpy-overlap-reported",
		// The operation still completes (overlap-safe copy, identical in
		// every configuration); the contract violation is reported once.
		src: `int main() {
    long *a = malloc(4 * 8);
    for (int i = 0; i < 4; i++) { a[i] = (long)(i + 1); }
    memcpy(a, a + 1, 3 * 8);
    long acc = a[0] + a[3];
    free(a);
    return (int)acc;
}`,
		want: []core.ErrorKind{core.OverlapError},
		val:  6,
	},
	{
		name: "strlen-unterminated-reported",
		// The buffer is filled end to end; the slot-clamped scan
		// terminates deterministically in the zeroed slot padding and
		// the overread is reported. The exact length depends on the
		// slot class, so only cross-config value equality is asserted.
		src: `int main() {
    char *b = malloc(8);
    memset(b, 65, 8);
    int r = (int)strlen(b);
    free(b);
    return r;
}`,
		want: []core.ErrorKind{core.BoundsError},
		val:  -1,
	},
}

func kindSet(r *core.Reporter) string {
	var ks []string
	for k := range r.IssuesByKind() {
		ks = append(ks, k.String())
	}
	sort.Strings(ks)
	return strings.Join(ks, ",")
}

func TestIntrinsicEdgeCases(t *testing.T) {
	checked := []*sanitizers.Tool{
		sanitizers.ToolEffectiveSan,
		sanitizers.Ablated("nocache", sanitizers.ToolEffectiveSan),
		sanitizers.Ablated("no-opt", sanitizers.ToolEffectiveSan),
	}
	for _, tc := range edgeCases {
		t.Run(tc.name, func(t *testing.T) {
			var wantKinds []string
			for _, k := range tc.want {
				wantKinds = append(wantKinds, k.String())
			}
			sort.Strings(wantKinds)
			want := strings.Join(wantKinds, ",")

			run := func(tool *sanitizers.Tool) *sanitizers.RunResult {
				prog, err := cc.Compile(tc.src, ctypes.NewTable())
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				res, err := tool.Exec(prog, "main", io.Discard)
				if err != nil {
					t.Fatalf("%s: %v", tool.Name, err)
				}
				return res
			}

			plain := run(sanitizers.ToolUninstrumented)
			if tc.val >= 0 && plain.Value != uint64(tc.val) {
				t.Fatalf("uninstrumented value = %d, want %d", plain.Value, tc.val)
			}
			for _, tool := range checked {
				res := run(tool)
				if res.Value != plain.Value {
					t.Errorf("%s: value %d != uninstrumented %d (checks changed the operation)",
						tool.Name, res.Value, plain.Value)
				}
				if got := kindSet(res.Reporter); got != want {
					t.Errorf("%s: report kinds [%s], want [%s]\n%s",
						tool.Name, got, want, res.Reporter.Log())
				}
				if res.InstrStats.IntrinsicSites == 0 {
					t.Errorf("%s: no check sites reserved for the intrinsic calls", tool.Name)
				}
			}
		})
	}
}

// TestIntrinsicsShadowedByProgramFunctions: a program that defines its
// own strlen gets the program function, not the intrinsic.
func TestIntrinsicsShadowedByProgramFunctions(t *testing.T) {
	src := `int strlen(char *s) { return 42; }
int main() {
    char *b = malloc(4);
    b[0] = (char)0;
    int r = strlen(b);
    free(b);
    return r;
}`
	prog, err := cc.Compile(src, ctypes.NewTable())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := sanitizers.ToolEffectiveSan.Exec(prog, "main", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 42 {
		t.Fatalf("value = %d, want 42 (program function must shadow the intrinsic)", res.Value)
	}
	if res.Reporter.Total() > 0 {
		t.Fatalf("unexpected reports:\n%s", res.Reporter.Log())
	}
}
