// Package progen generates random, deterministic, memory-safe mini-C
// programs for differential testing.
//
// Every generated program is clean by construction — indices are reduced
// modulo the array length, objects are freed exactly once at the end of
// their scope, pointer types are never confused — so a correct sanitizer
// must (a) report nothing and (b) not change the program's result. The
// test suites run each program under the uninstrumented interpreter,
// every EffectiveSan variant, and every baseline sanitizer model, and
// compare: any report is a false positive, any result difference is an
// instrumentation bug. This is the repository's soundness regression
// net.
package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Options bound the generated program's shape.
type Options struct {
	// Types is the number of struct types to generate (default 3).
	Types int
	// Funcs is the number of sweep functions per type (default 1).
	Funcs int
	// Rounds is the main loop's iteration count (default 8).
	Rounds int
	// Diamonds is the number of diamond helper functions to emit
	// (default 0). Each takes two long* parameters and a mode,
	// dereferences both pointers on each arm of one or more chained
	// branches, and dereferences them again at every join — the shape
	// whose join re-checks are redundant on every incoming path but
	// justified by no dominating block, so only path-sensitive check
	// elision removes them (the §5.3 diamond-join gap).
	Diamonds int
	// Interior routes fixed-size int spans through an interior-pointer
	// helper: main passes pointers to array fields INSIDE heap structs
	// (&xs[i].body decayed), so the callee's entry type check resolves
	// at a sub-object offset instead of the exact-match fast path —
	// the workload shape that exercises the per-site inline caches.
	Interior bool
	// AllocHeavy emits tight malloc/free churn helpers across mixed
	// size classes (16 B to past the 4 KiB class boundary, plus a
	// node-churn and a batch build/drop loop) and drives them every
	// round from main — the allocation-bound workload whose throughput
	// is gated by the heap's locking discipline, not by checks. It backs
	// the magazine tests of sharded runs (spec.AllocHeavy).
	AllocHeavy bool
	// LoopHeavy emits loop-dominated helpers whose headers re-evaluate a
	// loop-invariant field (c->lim, c->step) every iteration — the
	// bounds check and its field-address chain are invariant and sit in
	// a block dominating every exit and latch, so the §5.3 hoisting pass
	// moves them to the preheader. Backs the Fig. 8 loop-heavy row
	// (check motion on/off ablation).
	LoopHeavy bool
	// TempHeavy emits helpers that recompute the same pointer cast into
	// fresh temporaries — before a branch, on each arm, and at the join —
	// so register-keyed elision sees distinct registers but
	// value-numbered provenance proves one value and replaces the
	// re-checks with bounds-register copies. Backs the Fig. 8 temp-heavy
	// row (check motion on/off ablation).
	TempHeavy bool
	// LibCalls emits library-call-heavy helpers driving the libc
	// intrinsics — memset/memcpy, overlapping memmove in both walk
	// directions, strcpy/strncpy/strlen over properly terminated
	// buffers, and qsort with a well-behaved comparator — strictly
	// within bounds. Clean by construction like every other progen
	// workload; the workload under the differential-fuzz oracle
	// (internal/difftest).
	LibCalls bool
	// StaticSafe emits the statically-provable workload: constant-extent
	// global and local arrays walked by loops whose bounds the
	// interprocedural abstract interpretation (internal/mir.AnalyzeSafety)
	// proves — `for (i = 0; i < N; i++)` over `T tab[N]` — plus a
	// monomorphic downcast helper re-deriving the allocation's own type
	// at offset 0 and a char-coercion byte walk. Every check in these
	// helpers is provably in-bounds by STATIC reasoning alone: no
	// dominating dynamic check covers them (the arrays are globals and
	// locals, each helper sees the pointer fresh), so the PR-2/4/6
	// dynamic passes cannot remove them — only the static safety pass
	// can. Backs the Fig. 8 no-static row.
	StaticSafe bool
	// TypeExplosion emits this many extra struct types — the
	// type-population stress for the layout-metadata layer. The shapes
	// mix (a) layout-isomorphic families (identical field layouts under
	// distinct tags and field names, which the structural intern pool
	// must collapse to one table core), (b) genuinely distinct shapes
	// (bounded-extent array pairs, so per-table size stays constant), and
	// (c) types embedding the previous named type by value (which must
	// NOT intern: nested named records differ structurally). main heats
	// every type each round through chunked helpers whose accesses
	// resolve at a nonzero element offset, forcing a real layout-table
	// build per type. Backs bench's checks workload, the difftest
	// input's eleventh byte and the sanitizers interning witness.
	TypeExplosion int
	// LibFaults additionally emits CONTAINED library-call faults:
	// overlapping memcpy, strcpy overflowing an array field into its
	// sibling within one struct, free of an interior pointer, strlen
	// over an unterminated buffer, and a qsort comparator reading one
	// element past its argument. Every fault stays inside its own
	// allocation's low-fat slot and every operation computes the same
	// result in every configuration (allocation slots are zeroed, scans
	// are slot-clamped, a rejected free leaves the object live), so the
	// programs remain differentially deterministic: configurations must
	// agree on the VALUE and on the REPORT BUCKETS. This deliberately
	// breaks progen's "a correct sanitizer reports nothing" contract —
	// LibFaults programs feed the difftest oracle loop only and are
	// excluded from the soundness suites and spec workloads.
	LibFaults bool
}

func (o *Options) fill() {
	if o.Types <= 0 {
		o.Types = 3
	}
	if o.Funcs <= 0 {
		o.Funcs = 1
	}
	if o.Rounds <= 0 {
		o.Rounds = 8
	}
}

// scalar field candidates with their mini-C spelling.
var scalars = []string{"char", "short", "int", "long", "float", "double"}

type field struct {
	name string
	typ  string // scalar name, or "arr:int:N", or "rec:StructName"
	n    int
	rec  string
}

type genType struct {
	name   string
	fields []field
}

// Generate returns a deterministic mini-C program for the given seed.
// Equal seeds and options produce byte-identical sources.
func Generate(seed int64, opts Options) string {
	opts.fill()
	r := rand.New(rand.NewSource(seed))
	g := &gen{r: r}

	for i := 0; i < opts.Types; i++ {
		g.emitType(i)
	}
	for _, t := range g.types {
		for f := 0; f < opts.Funcs; f++ {
			g.emitSweep(t, f)
		}
	}
	g.emitListType()
	for d := 0; d < opts.Diamonds; d++ {
		g.emitDiamond(d)
	}
	if opts.Interior {
		g.emitInterior()
	}
	if opts.AllocHeavy {
		g.emitAllocHeavy()
	}
	if opts.LoopHeavy {
		g.emitLoopHeavy()
	}
	if opts.TempHeavy {
		g.emitTempHeavy()
	}
	if opts.LibCalls {
		g.emitLibCalls()
	}
	if opts.StaticSafe {
		g.emitStaticSafe()
	}
	if opts.TypeExplosion > 0 {
		g.emitTypeExplosion(opts.TypeExplosion)
	}
	if opts.LibFaults {
		g.emitLibFaults()
	}
	g.emitMain(opts)
	return g.sb.String()
}

type gen struct {
	r     *rand.Rand
	sb    strings.Builder
	types []genType
	// StaticSafe extents, drawn at emit time so the declarations and the
	// main-side call constants agree.
	statTabN, statRecN, statLocN int
	// xChunks is the number of TypeExplosion heat helpers emitted, so
	// emitMain knows how many xheat_<c>() calls to drive per round.
	xChunks int
}

func (g *gen) pf(format string, args ...any) {
	fmt.Fprintf(&g.sb, format, args...)
}

// emitType declares struct Gen<i> with 2-5 random fields; later types may
// embed earlier ones. Occasionally a companion union is declared and
// embedded (accessed through one member only, so the program stays
// well-defined).
func (g *gen) emitType(i int) {
	t := genType{name: fmt.Sprintf("Gen%d", i)}
	nf := 2 + g.r.Intn(4)
	for f := 0; f < nf; f++ {
		name := fmt.Sprintf("f%d", f)
		switch pick := g.r.Intn(12); {
		case pick < 6: // scalar
			t.fields = append(t.fields, field{name: name, typ: scalars[g.r.Intn(len(scalars))]})
		case pick < 9: // small array
			t.fields = append(t.fields, field{name: name, typ: "arr",
				n: 2 + g.r.Intn(6)})
		case pick < 11: // nested earlier struct
			if len(g.types) == 0 {
				t.fields = append(t.fields, field{name: name, typ: "long"})
			} else {
				t.fields = append(t.fields, field{name: name, typ: "rec",
					rec: g.types[g.r.Intn(len(g.types))].name})
			}
		default: // embedded union, used via its long member only
			uname := fmt.Sprintf("GenU%d_%d", i, f)
			g.pf("union %s { long asLong%s; double asDouble%s; };\n\n", uname, uname, uname)
			t.fields = append(t.fields, field{name: name, typ: "union", rec: uname})
		}
	}
	g.pf("struct %s {\n", t.name)
	for _, f := range t.fields {
		switch f.typ {
		case "arr":
			g.pf("    int %s[%d];\n", f.name, f.n)
		case "rec":
			g.pf("    struct %s %s;\n", f.rec, f.name)
		case "union":
			g.pf("    union %s %s;\n", f.rec, f.name)
		default:
			g.pf("    %s %s;\n", f.typ, f.name)
		}
	}
	g.pf("};\n\n")
	g.types = append(g.types, t)
}

// emitSweep emits a function walking an array of t, reading and writing
// fields strictly in bounds, and returning a checksum.
func (g *gen) emitSweep(t genType, idx int) {
	fn := fmt.Sprintf("sweep_%s_%d", t.name, idx)
	g.pf("long %s(struct %s *xs, int n) {\n", fn, t.name)
	g.pf("    long acc = 0;\n")
	g.pf("    for (int i = 0; i < n; i++) {\n")
	for _, f := range t.fields {
		switch f.typ {
		case "arr":
			j := g.r.Intn(f.n)
			g.pf("        xs[i].%s[%d] = xs[i].%s[%d] + i;\n", f.name, j, f.name, (j+1)%f.n)
			g.pf("        acc += (long)xs[i].%s[%d];\n", f.name, j)
		case "rec":
			// Touch the first scalar reachable inside the nested record.
			inner := g.findScalarPath(f.rec)
			if inner != "" {
				g.pf("        acc += (long)xs[i].%s.%s;\n", f.name, inner)
			}
		case "union":
			g.pf("        xs[i].%s.asLong%s = (long)i;\n", f.name, f.rec)
			g.pf("        acc += xs[i].%s.asLong%s;\n", f.name, f.rec)
		case "float", "double":
			g.pf("        xs[i].%s = xs[i].%s + 1.0;\n", f.name, f.name)
			g.pf("        acc += (long)xs[i].%s;\n", f.name)
		default:
			g.pf("        xs[i].%s = (%s)(i + %d);\n", f.name, f.typ, g.r.Intn(50))
			g.pf("        acc += (long)xs[i].%s;\n", f.name)
		}
	}
	g.pf("    }\n    return acc;\n}\n\n")
}

// findScalarPath returns a dotted path to some scalar field inside the
// named struct (possibly through nesting), or "".
func (g *gen) findScalarPath(name string) string {
	for _, t := range g.types {
		if t.name != name {
			continue
		}
		for _, f := range t.fields {
			switch f.typ {
			case "arr":
				return fmt.Sprintf("%s[0]", f.name)
			case "rec":
				if sub := g.findScalarPath(f.rec); sub != "" {
					return f.name + "." + sub
				}
			case "union":
				return fmt.Sprintf("%s.asLong%s", f.name, f.rec)
			default:
				return f.name
			}
		}
	}
	return ""
}

// emitListType declares a linked-list node and its build/sum/free
// functions — the pointer-chasing component (rule (c) checks).
func (g *gen) emitListType() {
	g.pf(`struct GenNode { struct GenNode *next; long v; };

struct GenNode *gen_push(struct GenNode *head, long v) {
    struct GenNode *n = new struct GenNode;
    n->v = v;
    n->next = head;
    return n;
}

long gen_sum(struct GenNode *head) {
    long s = 0;
    while (head != null) {
        s += head->v;
        head = head->next;
    }
    return s;
}

void gen_drop(struct GenNode *head) {
    while (head != null) {
        struct GenNode *n = head->next;
        free(head);
        head = n;
    }
}

`)
}

// emitDiamond emits diamond function d: both pointer parameters are
// dereferenced on each arm of 1-3 chained branches AND at each join.
// No dereference happens before the first branch, so the first join's
// re-checks are available on every incoming path yet dominated by no
// earlier check — elidable only path-sensitively.
func (g *gen) emitDiamond(d int) {
	chain := 1 + g.r.Intn(3)
	g.pf("long diamond_%d(long *p, long *q, int mode) {\n", d)
	g.pf("    long acc = 0;\n")
	for k := 0; k < chain; k++ {
		g.pf("    if (mode > %d) {\n", k)
		g.pf("        *p = *p + %d;\n", 1+g.r.Intn(5))
		g.pf("        acc += *q;\n")
		g.pf("    } else {\n")
		g.pf("        *q = *q + %d;\n", 1+g.r.Intn(5))
		g.pf("        acc += *p;\n")
		g.pf("    }\n")
		g.pf("    acc += *p + *q;\n")
	}
	g.pf("    return acc;\n}\n\n")
}

// emitInterior emits the interior-pointer helper and its carrier type:
// span_sum receives a pointer into the MIDDLE of a GenSpan heap object
// (the body array at byte offset 8), so its entry type check resolves
// at a sub-object offset — off the exact-match fast path, onto the
// per-site inline caches.
func (g *gen) emitInterior() {
	g.pf(`struct GenSpan { long tag; int body[8]; long tail; };

long span_sum(int *s, int n) {
    long acc = 0;
    for (int i = 0; i < n; i++) {
        s[i] = s[i] + 1;
        acc += (long)s[i];
    }
    return acc;
}

`)
}

// churnCounts are the long-array lengths of the alloc-heavy churn
// helpers: requests of 16 B to 4120 B, spanning the fine-grained
// 16-byte-step classes and reaching the per-octave classes past the
// 4 KiB boundary. (Instrumented runs add the 16-byte metadata header,
// shifting each request one step up; the spread across well-separated
// classes is what matters, not the exact class indices.)
var churnCounts = []int{2, 8, 32, 129, 515}

// emitAllocHeavy emits the malloc/free churn helpers: one tight
// alloc-touch-free loop per size class in churnCounts, plus a node churn
// over the linked-list type. Every allocation is written and read before
// being freed so the loop is a real workload, not dead code, and every
// free matches exactly one malloc — the program stays clean by
// construction, like everything progen generates.
func (g *gen) emitAllocHeavy() {
	for _, k := range churnCounts {
		g.pf("long churn_%d(int n) {\n", k)
		g.pf("    long acc = 0;\n")
		g.pf("    for (int i = 0; i < n; i++) {\n")
		g.pf("        long *p = malloc(%d * sizeof(long));\n", k)
		g.pf("        p[0] = (long)(i + %d);\n", k)
		g.pf("        p[%d] = p[0] + 1;\n", k-1)
		g.pf("        acc += p[%d];\n", k-1)
		g.pf("        free(p);\n")
		g.pf("    }\n")
		g.pf("    return acc;\n}\n\n")
	}
	g.pf(`long churn_node(int n) {
    long acc = 0;
    for (int i = 0; i < n; i++) {
        struct GenNode *m = new struct GenNode;
        m->v = (long)i;
        acc += m->v;
        free(m);
    }
    return acc;
}

`)
}

// emitLoopHeavy emits the loop-dominated helpers: loop_walk's while
// condition re-reads c->lim (field address chain + bounds check, all
// loop-invariant, in the header block that dominates the loop's only
// exit and its latch — the exact shape the hoisting pass moves to the
// preheader), and loop_nest stacks two such loops so the inner header's
// check lands in the inner preheader inside the outer body. Body
// accesses (data[0], c->step) deliberately stay: their blocks do not
// dominate the header exit, so a speculation-free hoister must leave
// them, pinning the pass's refusal side as well as its wins.
func (g *gen) emitLoopHeavy() {
	g.pf(`struct GenCtl { long lim; long step; };

long loop_walk(struct GenCtl *c, long *data) {
    long acc = 0;
    long i = 0;
    while (i < c->lim) {
        data[0] = data[0] + c->step;
        acc += data[0] + i;
        i = i + 1;
    }
    return acc;
}

long loop_nest(struct GenCtl *c, long *data) {
    long acc = 0;
    long i = 0;
    while (i < c->lim) {
        long j = 0;
        while (j < c->step) {
            data[1] = data[1] + 1;
            acc += data[1];
            j = j + 1;
        }
        acc += c->lim;
        i = i + 1;
    }
    return acc;
}

`)
}

// emitTempHeavy emits the recomputed-temporary helper: the same
// long* -> struct GenTmp* downcast (a legal one — the allocation really
// is a GenTmp array, so every check passes) is performed into four
// distinct temporaries: before the loop, on each branch arm, and at the
// join. Register-keyed elision cannot unify them; value numbering
// proves all four casts compute one value, so the three in-loop checks
// collapse to bounds-register copies from the first check's register.
func (g *gen) emitTempHeavy() {
	g.pf(`struct GenTmp { long a; long b; long c; };

long temp_walk(long *p, int n) {
    long acc = 0;
    struct GenTmp *t0 = (struct GenTmp *)p;
    t0->a = t0->a + 1;
    int i = 0;
    while (i < n) {
        if ((i & 1) > 0) {
            struct GenTmp *t1 = (struct GenTmp *)p;
            t1->b = t1->b + (long)i;
            acc += t1->b;
        } else {
            struct GenTmp *t2 = (struct GenTmp *)p;
            t2->c = t2->c + 1;
            acc += t2->c;
        }
        struct GenTmp *t3 = (struct GenTmp *)p;
        acc += t3->a;
        i = i + 1;
    }
    return acc;
}

`)
}

// emitLibCalls emits the clean library-call helpers: lib_mem exercises
// memset/memcpy and overlapping memmove in both walk directions,
// lib_str round-trips strcpy/strncpy/strlen over a properly terminated
// buffer (including the exact-fit case: the NUL lands on the last byte
// of the destination), and lib_sort drives qsort through a well-behaved
// comparator that re-enters the interpreter per comparison. All
// accesses stay strictly inside their allocations.
func (g *gen) emitLibCalls() {
	g.pf(`long lib_mem(long *a, long *b, int n) {
    memset(a, 0, n * 8);
    for (int i = 0; i < n; i++) { a[i] = (long)(i + %d); }
    memcpy(b, a, n * 8);
    memmove(a + 1, a, (n - 1) * 8);
    memmove(b, b + 1, (n - 1) * 8);
    long acc = 0;
    for (int i = 0; i < n; i++) { acc += a[i] + b[i]; }
    return acc;
}

long lib_str(char *s, char *d, int n) {
    for (int i = 0; i < n; i++) { s[i] = (char)(65 + (i & 15)); }
    s[n] = (char)0;
    strcpy(d, s);
    long acc = (long)strlen(d);
    strncpy(d, s, n);
    acc += (long)strlen(s) + (long)d[0];
    return acc;
}

int lib_cmp(long *x, long *y) {
    if (*x < *y) { return 0 - 1; }
    if (*x > *y) { return 1; }
    return 0;
}

long lib_sort(long *v, int n) {
    for (int i = 0; i < n; i++) { v[i] = (long)(((n - i) * %d) & %d); }
    qsort(v, n, 8, lib_cmp);
    long acc = 0;
    for (int i = 0; i < n; i++) { acc += v[i] * (long)(i + 1); }
    return acc;
}

`, 1+g.r.Intn(9), 3+g.r.Intn(11), 15+8*g.r.Intn(4))
}

// emitStaticSafe emits the statically-provable helpers over
// constant-extent allocations (see Options.StaticSafe). The backing
// stores are a global long array, a global struct array and a local
// array — never freed, never leaked — so the abstract interpreter's
// provenance survives to every check site:
//
//   - stat_walk / stat_tick walk a caller-supplied array with a
//     `for (i = 0; i < n; i++)` loop whose bound arrives
//     interprocedurally as a constant: branch refinement pins i below
//     the extent, so every bounds check is STATIC-SAFE;
//   - stat_cast re-derives the allocation's own element type from a
//     long* at offset 0 every iteration — the monomorphic downcast
//     whose type check resolves to whole-allocation bounds
//     memo-independently (the exact-match fast path);
//   - stat_bytes walks the bytes through a char*, the coercion the
//     runtime accepts at any in-bounds offset;
//   - stat_local proves a frame-local array: the alloca never escapes,
//     so its extent is exact.
//
// Each helper sees its pointer as a fresh parameter (Wide bounds at
// entry), so no dominating dynamic check exists for the elision/motion
// passes to reuse — these sites fall to static reasoning or nobody.
func (g *gen) emitStaticSafe() {
	g.statTabN = 8 + g.r.Intn(9) // long stat_tab[8..16]
	g.statRecN = 2 + g.r.Intn(5) // struct GenStat gstat[2..6]
	g.statLocN = 3 + g.r.Intn(4) // long buf[3..6]
	g.pf("long stat_tab[%d];\n\n", g.statTabN)
	g.pf("struct GenStat { long hits; long miss; };\n\n")
	g.pf("struct GenStat gstat[%d];\n\n", g.statRecN)
	g.pf(`long stat_walk(long *p, int n) {
    long acc = 0;
    for (int i = 0; i < n; i++) {
        p[i] = p[i] + (long)i;
        acc += p[i];
    }
    return acc;
}

long stat_tick(struct GenStat *s, int n) {
    long acc = 0;
    for (int i = 0; i < n; i++) {
        s[i].hits = s[i].hits + 1;
        s[i].miss = s[i].miss + 2;
        acc += s[i].hits + s[i].miss;
    }
    return acc;
}

long stat_cast(long *p, int n) {
    long acc = 0;
    int i = 0;
    while (i < n) {
        struct GenStat *t = (struct GenStat *)p;
        t->hits = t->hits + (long)i;
        acc += t->hits + t->miss;
        i = i + 1;
    }
    return acc;
}

long stat_bytes(char *c, int n) {
    long acc = 0;
    for (int i = 0; i < n; i++) {
        acc += (long)c[i];
    }
    return acc;
}

`)
	g.pf("long stat_local() {\n")
	g.pf("    long buf[%d];\n", g.statLocN)
	g.pf("    long acc = 0;\n")
	g.pf("    for (int i = 0; i < %d; i++) { buf[i] = (long)(i * %d); }\n",
		g.statLocN, 1+g.r.Intn(7))
	g.pf("    for (int i = 0; i < %d; i++) { acc += buf[i]; }\n", g.statLocN)
	g.pf("    return acc;\n}\n\n")
}

// xClasses are the TypeExplosion isomorphism classes: every scalar type
// drawn from class c has exactly this field-type sequence, so all of a
// class's types share one structural layout under distinct tags and
// field names — the shapes the intern pool must collapse.
var xClasses = [][]string{
	{"long", "long"},
	{"int", "int", "long"},
	{"double", "long", "int"},
	{"short", "short", "int", "long"},
	{"char", "long", "double"},
	{"int", "double"},
	{"long", "int", "int", "long"},
	{"float", "float", "long"},
}

// xHeatChunk is how many types each xheat_<c>() helper touches; chunking
// keeps individual function bodies (and their CFGs) small at thousands
// of types.
const xHeatChunk = 64

// emitTypeExplosion declares n struct types Tx0..Tx<n-1> (see
// Options.TypeExplosion for the shape mix) and the chunked heat helpers
// that malloc a 2-element array of each, touch element [1] — a nonzero
// offset, off the exact-match fast path, so the check resolves through
// the layout table and forces a build — and free it. Everything is a
// pure function of the index: no randomness, so the emitted population
// is identical across seeds and the layout build/intern counters are
// exactly reproducible.
func (g *gen) emitTypeExplosion(n int) {
	kind := func(i int) int {
		if i%5 == 4 {
			return 1 // distinct shape: bounded-extent int array pair
		}
		if i%7 == 3 && i >= 1 {
			return 2 // embeds the previous named type by value
		}
		return 0 // scalar isomorphism class i%8
	}
	for i := 0; i < n; i++ {
		g.pf("struct Tx%d {\n", i)
		switch kind(i) {
		case 1:
			d := i / 5
			g.pf("    int g%d_0[%d];\n", i, 2+d%19)
			g.pf("    int g%d_1[%d];\n", i, 2+(d/19)%17)
		case 2:
			g.pf("    struct Tx%d inner%d;\n", i-1, i)
			g.pf("    long tail%d;\n", i)
		default:
			for k, ft := range xClasses[i%8] {
				g.pf("    %s f%d_%d;\n", ft, i, k)
			}
		}
		g.pf("};\n\n")
	}
	// Shared interior-touch helpers, one per scalar flavour: the caller
	// passes a pointer to a field INSIDE element [xk] of a Tx
	// allocation, so the callee's entry type check resolves the scalar
	// static type against the allocation's Tx dynamic type at a nonzero
	// sub-object offset — off the exact-match fast path, through the
	// layout table of that Tx type. One shared site fed by every type
	// also defeats the per-site inline caches (the dynamic type changes
	// on every call), so each call reaches the layout cache.
	g.pf(`long xtouch_long(long *p) { p[0] = p[0] + 1; return p[0]; }
long xtouch_int(int *p) { p[0] = p[0] + 1; return (long)p[0]; }
long xtouch_short(short *p) { p[0] = (short)(p[0] + 1); return (long)p[0]; }
long xtouch_char(char *p) { p[0] = (char)(p[0] + 1); return (long)p[0]; }
long xtouch_float(float *p) { p[0] = p[0] + 1.0; return (long)p[0]; }
long xtouch_double(double *p) { p[0] = p[0] + 1.0; return (long)p[0]; }

`)
	g.xChunks = (n + xHeatChunk - 1) / xHeatChunk
	for c := 0; c < g.xChunks; c++ {
		g.pf("long xheat_%d() {\n", c)
		g.pf("    long acc = 0;\n")
		// The element index is loaded from the heap: loaded values are
		// Top to the static safety analysis (mir/absint), so the
		// accesses below survive to runtime — a constant [1] would be
		// proven in-bounds and deleted. The runtime value is still
		// deterministically 1, so the program stays clean by
		// construction.
		g.pf("    long *xi = malloc(1 * sizeof(long));\n")
		g.pf("    xi[0] = 1;\n")
		g.pf("    int xk = (int)xi[0];\n")
		for i := c * xHeatChunk; i < n && i < (c+1)*xHeatChunk; i++ {
			g.pf("    struct Tx%d *x%d = malloc(2 * sizeof(struct Tx%d));\n", i, i, i)
			switch kind(i) {
			case 1:
				g.pf("    x%d[xk].g%d_0[1] = %d;\n", i, i, 1+i%9)
				g.pf("    acc += xtouch_int(&x%d[xk].g%d_0[1]);\n", i, i)
			case 2:
				g.pf("    x%d[xk].tail%d = (long)%d;\n", i, i, 1+i%9)
				g.pf("    acc += xtouch_long(&x%d[xk].tail%d);\n", i, i)
			default:
				ft := xClasses[i%8][0]
				if ft == "float" || ft == "double" {
					g.pf("    x%d[xk].f%d_0 = x%d[xk].f%d_0 + 1.0;\n", i, i, i, i)
				} else {
					g.pf("    x%d[xk].f%d_0 = (%s)%d;\n", i, i, ft, 1+i%9)
				}
				g.pf("    acc += xtouch_%s(&x%d[xk].f%d_0);\n", ft, i, i)
			}
			g.pf("    free(x%d);\n", i)
		}
		g.pf("    free(xi);\n")
		g.pf("    return acc;\n}\n\n")
	}
}

// emitLibFaults emits the contained library-fault helpers (see
// Options.LibFaults for the determinism contract each relies on):
//
//   - fault_overlap: memcpy over overlapping ranges (the operation is
//     overlap-safe, so only the report differs from memmove);
//   - fault_field: strcpy whose source outruns the destination array
//     field, spilling into the sibling field of the same struct — the
//     sub-object overflow the paper's layout narrowing catches;
//   - fault_interior: free of a pointer into the middle of an
//     allocation (rejected, so the object stays live for the real free);
//   - fault_strlen: strlen over a buffer filled end to end with
//     non-NUL bytes — the slot-clamped scan terminates in the zeroed
//     slot padding and the overread is reported;
//   - fault_sort: a qsort comparator reading one element past each
//     argument, out of bounds when handed the last element.
func (g *gen) emitLibFaults() {
	g.pf(`struct GenPair { int head[4]; long tail; };

long fault_overlap(long *a, int n) {
    memcpy(a, a + 1, (n - 1) * 8);
    return a[0] + a[n - 2];
}

long fault_field(struct GenPair *p, char *s, int n) {
    for (int i = 0; i < n; i++) { s[i] = (char)(66 + (i & 7)); }
    s[n] = (char)0;
    strcpy(p->head, s);
    return p->tail + (long)s[0];
}

long fault_interior(int n) {
    long *p = malloc(n * 8);
    p[0] = (long)n;
    free(p + 1);
    long acc = p[0];
    free(p);
    return acc;
}

long fault_strlen(int n) {
    char *b = malloc(n);
    memset(b, 67, n);
    long acc = (long)strlen(b);
    free(b);
    return acc;
}

int fault_cmp(long *x, long *y) {
    return (int)(x[1] - y[1]);
}

long fault_sort(long *v, int n) {
    for (int i = 0; i < n; i++) { v[i] = (long)((n - i) & 7); }
    qsort(v, n, 8, fault_cmp);
    long acc = 0;
    for (int i = 0; i < n; i++) { acc += v[i]; }
    return acc;
}

`)
}

// emitMain drives everything: typed heap arrays, sweeps, a list, and a
// deterministic checksum return value.
func (g *gen) emitMain(opts Options) {
	g.pf("int main() {\n")
	g.pf("    long acc = 0;\n")
	counts := make([]int, len(g.types))
	for ti, t := range g.types {
		count := 3 + g.r.Intn(6)
		counts[ti] = count
		g.pf("    struct %s *a%d = malloc(%d * sizeof(struct %s));\n",
			t.name, ti, count, t.name)
		for f := 0; f < opts.Funcs; f++ {
			g.pf("    for (int r = 0; r < %d; r++) { acc += sweep_%s_%d(a%d, %d); }\n",
				opts.Rounds, t.name, f, ti, count)
		}
	}
	if opts.Interior {
		// Dedicated sub-object spans, plus every array field the
		// generated types happen to carry.
		spanCount := 4 + g.r.Intn(8)
		g.pf("    struct GenSpan *sp = malloc(%d * sizeof(struct GenSpan));\n", spanCount)
		g.pf("    for (int r = 0; r < %d; r++) {\n", opts.Rounds)
		g.pf("        for (int i = 0; i < %d; i++) {\n", spanCount)
		g.pf("            sp[i].tag = (long)i;\n")
		g.pf("            acc += span_sum(sp[i].body, 8);\n")
		g.pf("            sp[i].tail = acc;\n")
		g.pf("        }\n")
		g.pf("    }\n")
		for ti, t := range g.types {
			for _, f := range t.fields {
				if f.typ == "arr" {
					g.pf("    for (int i = 0; i < %d; i++) { acc += span_sum(a%d[i].%s, %d); }\n",
						counts[ti], ti, f.name, f.n)
				}
			}
		}
	}
	if opts.Diamonds > 0 {
		g.pf("    long *dp = malloc(4 * sizeof(long));\n")
		g.pf("    long *dq = malloc(4 * sizeof(long));\n")
		g.pf("    dp[0] = 1;\n    dq[0] = 2;\n")
		for d := 0; d < opts.Diamonds; d++ {
			g.pf("    for (int r = 0; r < %d; r++) { acc += diamond_%d(dp, dq, r & 3); }\n",
				opts.Rounds, d)
		}
	}
	if opts.AllocHeavy {
		// The allocation-bound inner loops: per-class churn helpers plus
		// a batch build/drop that stacks frees up before releasing them.
		inner := 8 + g.r.Intn(8)
		g.pf("    for (int r = 0; r < %d; r++) {\n", opts.Rounds)
		for _, k := range churnCounts {
			g.pf("        acc += churn_%d(%d);\n", k, inner)
		}
		g.pf("        acc += churn_node(%d);\n", inner)
		batch := 12 + g.r.Intn(12)
		g.pf("        struct GenNode *ch = null;\n")
		g.pf("        for (int i = 0; i < %d; i++) { ch = gen_push(ch, (long)(i + r)); }\n", batch)
		g.pf("        acc += gen_sum(ch);\n")
		g.pf("        gen_drop(ch);\n")
		g.pf("    }\n")
	}
	if opts.LoopHeavy {
		g.pf("    struct GenCtl *ctl = malloc(1 * sizeof(struct GenCtl));\n")
		g.pf("    long *ld = malloc(4 * sizeof(long));\n")
		g.pf("    ctl->lim = %d;\n", 6+g.r.Intn(6))
		g.pf("    ctl->step = %d;\n", 3+g.r.Intn(4))
		g.pf("    ld[0] = 1;\n    ld[1] = 2;\n")
		g.pf("    for (int r = 0; r < %d; r++) {\n", opts.Rounds)
		g.pf("        acc += loop_walk(ctl, ld);\n")
		g.pf("        acc += loop_nest(ctl, ld);\n")
		g.pf("    }\n")
	}
	if opts.TempHeavy {
		g.pf("    struct GenTmp *tmp = malloc(2 * sizeof(struct GenTmp));\n")
		g.pf("    tmp->a = 1;\n    tmp->b = 2;\n    tmp->c = 3;\n")
		g.pf("    for (int r = 0; r < %d; r++) { acc += temp_walk((long *)tmp, %d); }\n",
			opts.Rounds, 5+g.r.Intn(8))
	}
	if opts.LibCalls {
		ln := 4 + g.r.Intn(13)
		sn := 6 + g.r.Intn(18)
		g.pf("    long *la = malloc(%d * 8);\n", ln)
		g.pf("    long *lb = malloc(%d * 8);\n", ln)
		g.pf("    char *lsrc = malloc(%d);\n", sn+1)
		g.pf("    char *ldst = malloc(%d);\n", sn+1)
		g.pf("    long *lv = malloc(%d * 8);\n", ln)
		g.pf("    for (int r = 0; r < %d; r++) {\n", opts.Rounds)
		g.pf("        acc += lib_mem(la, lb, %d);\n", ln)
		g.pf("        acc += lib_str(lsrc, ldst, %d);\n", sn)
		g.pf("        acc += lib_sort(lv, %d);\n", ln)
		g.pf("    }\n")
	}
	if opts.StaticSafe {
		// Globals and frame locals back every helper: nothing to malloc,
		// nothing to free, nothing for the provenance analysis to lose.
		g.pf("    for (int r = 0; r < %d; r++) {\n", opts.Rounds)
		g.pf("        acc += stat_walk(stat_tab, %d);\n", g.statTabN)
		g.pf("        acc += stat_tick(gstat, %d);\n", g.statRecN)
		g.pf("        acc += stat_cast((long *)gstat, %d);\n", 3+g.r.Intn(6))
		g.pf("        acc += stat_bytes((char *)stat_tab, %d);\n", 8*g.statTabN)
		g.pf("        acc += stat_local();\n")
		g.pf("    }\n")
	}
	if g.xChunks > 0 {
		// Heat every exploded type each round; the helpers malloc and
		// free internally, so there is nothing for main to clean up.
		g.pf("    for (int r = 0; r < %d; r++) {\n", opts.Rounds)
		for c := 0; c < g.xChunks; c++ {
			g.pf("        acc += xheat_%d();\n", c)
		}
		g.pf("    }\n")
	}
	if opts.LibFaults {
		// Sizes are chosen so every fault stays inside its allocation:
		// the strcpy source (fn chars + NUL) outruns GenPair.head's 16
		// bytes but fits the 24-byte struct.
		fan := 3 + g.r.Intn(6)
		fn := 16 + g.r.Intn(7)
		// fvn is kept odd: low-fat classes are 16-byte granular, so an
		// odd long count (8*fvn+16 ≡ 8 mod 16) leaves 8 bytes of zeroed
		// in-slot padding and fault_cmp's x[1] overread on the last
		// element stays INSIDE the slot — out of the allocation's bounds
		// (detected) but deterministic and race-free. An even count
		// would fit its class exactly and the overread would touch the
		// neighbouring slot: racy under sharding, nondeterministic
		// everywhere.
		fvn := 3 + 2*g.r.Intn(3)
		g.pf("    long *fa = malloc(%d * 8);\n", fan)
		g.pf("    struct GenPair *fp = malloc(1 * sizeof(struct GenPair));\n")
		g.pf("    char *fs = malloc(%d);\n", fn+1)
		g.pf("    long *fv = malloc(%d * 8);\n", fvn)
		g.pf("    acc += fault_overlap(fa, %d);\n", fan)
		g.pf("    acc += fault_field(fp, fs, %d);\n", fn)
		g.pf("    acc += fault_interior(%d);\n", 2+g.r.Intn(6))
		g.pf("    acc += fault_strlen(%d);\n", 8+g.r.Intn(33))
		g.pf("    acc += fault_sort(fv, %d);\n", fvn)
	}
	listLen := 4 + g.r.Intn(12)
	g.pf("    struct GenNode *head = null;\n")
	g.pf("    for (int i = 0; i < %d; i++) { head = gen_push(head, (long)(i * %d)); }\n",
		listLen, 1+g.r.Intn(9))
	g.pf("    acc += gen_sum(head);\n")
	g.pf("    gen_drop(head);\n")
	for ti := range g.types {
		g.pf("    free(a%d);\n", ti)
	}
	if opts.Interior {
		g.pf("    free(sp);\n")
	}
	if opts.Diamonds > 0 {
		g.pf("    free(dp);\n")
		g.pf("    free(dq);\n")
	}
	if opts.LoopHeavy {
		g.pf("    free(ctl);\n")
		g.pf("    free(ld);\n")
	}
	if opts.TempHeavy {
		g.pf("    free(tmp);\n")
	}
	if opts.LibCalls {
		g.pf("    free(la);\n    free(lb);\n    free(lsrc);\n    free(ldst);\n    free(lv);\n")
	}
	if opts.LibFaults {
		g.pf("    free(fa);\n    free(fp);\n    free(fs);\n    free(fv);\n")
	}
	g.pf("    return (int)(acc & 0xffff);\n}\n")
}
