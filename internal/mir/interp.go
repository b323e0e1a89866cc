package mir

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/intrinsics"
	"repro/internal/mem"
)

// Options configure an interpreter.
type Options struct {
	// Env supplies allocation and memory services. Required.
	Env Env
	// Eff is the EffectiveSan runtime consulted by instrumentation
	// pseudo-ops. Defaults to Env's runtime when Env is an *EffEnv;
	// running instrumented code without it is an error.
	Eff *core.Runtime
	// Hooks intercepts execution for baseline sanitizers. Optional.
	// Without hooks the decoder fuses hot op pairs and chains (see
	// fusedOp, chainOp); with them every op runs on its own, so each hook
	// sees every op.
	Hooks Hooks
	// Out receives OpPrint/OpPuts output. Defaults to io.Discard.
	Out io.Writer
	// MaxSteps bounds the instructions executed per Run (a runaway-loop
	// backstop). Defaults to 2^33.
	MaxSteps uint64
	// NoValidate skips program validation. Validation is O(program) and
	// a program never changes once built, so worker pools that stamp out
	// one interpreter per goroutine over the same program (the sharded
	// SPEC harness) validate the first and skip the rest.
	NoValidate bool
}

// Interp executes a MIR program. A single Interp may execute multiple
// Runs, including concurrently (the Firefox workloads do); each Run has
// its own register state while sharing memory, globals, the decoded
// program and the environment.
type Interp struct {
	prog     *Program
	funcs    map[string]*xfunc // the decoded program, shared by every Run
	env      Env
	eff      *core.Runtime
	hooks    Hooks
	mem      *mem.Memory
	out      io.Writer
	maxSteps uint64

	globalsOnce sync.Once
	globalAddrs []uint64
}

// New validates the program, decodes it for execution and returns an
// interpreter for it. The interpreter runs the decoded form, so the
// program must not change afterwards.
func New(p *Program, opts Options) (*Interp, error) {
	if !opts.NoValidate {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	if opts.Env == nil {
		return nil, fmt.Errorf("mir: Options.Env is required")
	}
	eff := opts.Eff
	if eff == nil {
		if ee, ok := opts.Env.(*EffEnv); ok {
			eff = ee.RT
		}
	}
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 1 << 33
	}
	return &Interp{
		prog:     p,
		funcs:    decode(p, opts.Hooks == nil),
		env:      opts.Env,
		eff:      eff,
		hooks:    opts.Hooks,
		mem:      opts.Env.Mem(),
		out:      out,
		maxSteps: maxSteps,
	}, nil
}

// GlobalAddr returns the address of the i'th global (materialising
// globals if needed), for tests and harnesses.
func (in *Interp) GlobalAddr(i int) uint64 {
	in.materializeGlobals()
	return in.globalAddrs[i]
}

func (in *Interp) materializeGlobals() {
	in.globalsOnce.Do(func() {
		in.globalAddrs = make([]uint64, len(in.prog.Globals))
		for i, g := range in.prog.Globals {
			size := g.Count * uint64(g.Type.Size())
			in.globalAddrs[i] = in.env.Malloc(g.Type, size, core.GlobalAlloc, "global:"+g.Name)
		}
	})
}

// Run executes the named function with the given argument values and
// returns its result (0 for void). Simulation failures — unknown
// function, step limit, null dereference, heap exhaustion — are returned
// as errors; sanitizer findings are NOT errors (they go to the error
// reporter and execution continues, the paper's logging semantics).
// A core.AbortError escapes as an error when the runtime's abort-after-N
// limit is configured.
func (in *Interp) Run(fn string, args ...uint64) (uint64, error) {
	res, _, err := in.RunSteps(fn, args...)
	return res, err
}

// RunSteps is Run, also returning the number of MIR instructions the
// Run executed: the steps it charged against MaxSteps, counted from the
// program's instructions (nops included) whether or not the decoder
// fused them, so the count is exact and deterministic.
func (in *Interp) RunSteps(fn string, args ...uint64) (res, steps uint64, err error) {
	f, ok := in.funcs[fn]
	if !ok {
		return 0, 0, fmt.Errorf("mir: no function %q", fn)
	}
	if len(args) != len(f.fn.Params) {
		return 0, 0, fmt.Errorf("mir: %s expects %d args, got %d", fn, len(f.fn.Params), len(args))
	}
	in.materializeGlobals()
	rs := &runState{budget: in.maxSteps}
	defer func() {
		steps = in.maxSteps - rs.budget
		if in.eff != nil {
			// Every exit — a return, a simulation error, an abort — merges
			// the Run's check counters into the runtime's sink once.
			in.eff.MergeStats(rs.stats)
		}
		switch e := recover().(type) {
		case nil:
		case simError:
			err = e
		case core.AbortError:
			err = e
		default:
			panic(e)
		}
	}()
	regs, bregs, _ := rs.push(f.numRegs)
	copy(regs, args)
	return in.exec(rs, f, regs, bregs), 0, nil
}

// runState is one Run's mutable state: its step budget, its check
// counters, its frame stack (the register and bounds files of every live
// activation) with their stack objects, and its intrinsic contexts.
type runState struct {
	budget uint64

	// stats counts the Run's type checks (core.Runtime.TypeCheckInto),
	// its intrinsic calls' included, and the passing bounds and escape
	// checks and bounds narrows the executor runs inline (see exec), with
	// plain adds; RunSteps merges it into the runtime's sink when the Run
	// ends.
	stats core.StatsSnapshot

	// The frame stack is a segment of registers (and a parallel segment
	// of bounds) carved into one window per activation, top at sp. A
	// push that does not fit starts a fresh, larger segment and never
	// copies, so every live window stays valid — the caller's while a
	// callee runs, and a qsort comparator's caller's when the comparator
	// re-enters exec from execIntrinsic. Popping restores sp to the mark
	// push returned, even across a growth: the frames below it live in
	// older segments, so the current one has no live window above it.
	regs  []uint64
	bregs []core.Bounds
	sp    int

	// allocas holds the live stack objects of every activation, the
	// innermost activation's last.
	allocas []uint64

	// intr holds one reusable intrinsic context per nesting depth — a
	// qsort comparator may call intrinsics of its own — and depth counts
	// the contexts in use.
	intr  []*intrCall
	depth int
}

// minFrameSegment is the first segment's register count.
const minFrameSegment = 256

// push carves a window of n registers for a new activation, in the
// state absint's entryState models: registers zero, bounds Wide. It
// returns the stack top to pop back to.
func (rs *runState) push(n int) ([]uint64, []core.Bounds, int) {
	mark := rs.sp
	if rs.sp+n > len(rs.regs) {
		size := max(2*len(rs.regs), n, minFrameSegment)
		rs.regs, rs.bregs = make([]uint64, size), make([]core.Bounds, size)
		rs.sp = 0
	}
	lo, hi := rs.sp, rs.sp+n
	rs.sp = hi
	regs, bregs := rs.regs[lo:hi:hi], rs.bregs[lo:hi:hi]
	clear(regs)
	for b := bregs; len(b) > 0; {
		b = b[copy(b, wideFrame[:]):]
	}
	return regs, bregs, mark
}

// wideFrame is the bounds template push copies into a new window.
var wideFrame = func() (w [minFrameSegment]core.Bounds) {
	for i := range w {
		w[i] = core.Wide
	}
	return w
}()

func (rs *runState) spend(n uint64) {
	if n > rs.budget {
		panic(simError{"mir: step limit exceeded (runaway loop?)"})
	}
	rs.budget -= n
}

// xop is a decoded opcode: a MIR op, specialised by operand type where
// the type decides the operation.
type xop uint8

const (
	xBad   xop = iota // an op the executor does not know; panics when reached
	xConst            // regs[dst] = k
	xMov              // OpMov, and OpCast between types of one representation
	xNot

	// OpBin on integer and pointer operands.
	xAdd
	xSub
	xMul
	xAnd
	xOr
	xXor
	xShl
	xShrS
	xShrU
	xBin // any other OpBin: floats, division and remainder (evalBin)

	// OpCmp on integer and pointer operands, by signedness.
	xEq
	xNe
	xLtS
	xLeS
	xGtS
	xGeS
	xLtU
	xLeU
	xGtU
	xGeU
	xCmp // any other OpCmp: floats (evalCmp)

	// OpCast.
	xCastPtr // pointer to pointer: a move that Hooks.Cast observes
	xSext    // integer narrowing to a signed type: k = 64 - 8*width
	xZext    // integer narrowing to an unsigned type: k = 64 - 8*width
	xCast    // any other OpCast: float conversions (convert)

	xGlobal
	xAlloca
	xMalloc
	xFree
	xRealloc

	// OpLoad and OpStore, by width k (validation admits scalars only).
	xLoadU   // zero-extending or full-width: unsigned, pointer, double
	xLoadS   // sign-extending: narrow signed integer
	xLoadF32 // float, widened to double bits
	xStore   // integer, pointer or double
	xStoreF32

	xField
	xIndex    // complete element type: k = element size
	xIndexAny // incomplete element type (sized when executed)
	xMemcpy
	xMemset

	xCall          // program function callees[k]
	xCallIntrinsic // libc intrinsic callees[k].intr
	xRet
	xJmp // pc = dst, charging k steps
	xBr  // pc = dst (charging k's low half) if a != 0, else b (its high half)

	xPrint
	xPuts

	xTypeCheck
	xBoundsGet
	xBoundsNarrow
	xBoundsCheck    // static extent k
	xBoundsCheckDyn // extent in register b (memcpy/memset)
	xEscapeCheck
	xBoundsMov

	// Fused pairs, hottest first (see fusedOp). Each runs its own
	// record's op, then the op of the next record, which keeps its pc.
	xCheckLoadU  // xBoundsCheck, then xLoadU
	xCheckLoadS  // xBoundsCheck, then xLoadS
	xCheckStore  // xBoundsCheck, then xStore
	xIndexCheck  // xIndex, then xBoundsCheck
	xMovJmp      // xMov, then xJmp
	xConstAdd    // xConst, then xAdd
	xAddMov      // xAdd, then xMov
	xConstSub    // xConst, then xSub
	xLtSBr       // xLtS, then xBr
	xFieldNarrow // xField, then xBoundsNarrow
	xGtSBr       // xGtS, then xBr

	// Fused chains (see chainOp): an xIndex, then the fused pair that
	// starts at the next record. Each runs the index, then the pair.
	xIndexCheckLoadU  // xIndex, then xCheckLoadU
	xIndexCheckLoadS  // xIndex, then xCheckLoadS
	xIndexCheckStore  // xIndex, then xCheckStore
	xIndexFieldNarrow // xIndex, then xFieldNarrow
)

// fusedOp returns the superinstruction that runs first and then second,
// or xBad if the pair is not fused. The pairs are the most frequent
// adjacent ops of the Fig. 7 kernels under EffectiveSan; fusing one
// saves a dispatch. The fused cases make none of the hook calls their
// loads, stores and derivations would, which is sound because the
// decoder fuses nothing when hooks are set.
func fusedOp(first, second xop) xop {
	switch {
	case first == xBoundsCheck && second == xLoadU:
		return xCheckLoadU
	case first == xBoundsCheck && second == xLoadS:
		return xCheckLoadS
	case first == xBoundsCheck && second == xStore:
		return xCheckStore
	case first == xIndex && second == xBoundsCheck:
		return xIndexCheck
	case first == xMov && second == xJmp:
		return xMovJmp
	case first == xConst && second == xAdd:
		return xConstAdd
	case first == xAdd && second == xMov:
		return xAddMov
	case first == xConst && second == xSub:
		return xConstSub
	case first == xLtS && second == xBr:
		return xLtSBr
	case first == xField && second == xBoundsNarrow:
		return xFieldNarrow
	case first == xGtS && second == xBr:
		return xGtSBr
	}
	return xBad
}

// chainOp returns the chain that runs an xIndex and then the fused pair
// pair, or xBad if there is none. The index is the instrumented access
// chain's head: p[i] is an index, its bounds check and the access, and
// p[i].f an index, a field and its bounds narrow.
func chainOp(pair xop) xop {
	switch pair {
	case xCheckLoadU:
		return xIndexCheckLoadU
	case xCheckLoadS:
		return xIndexCheckLoadS
	case xCheckStore:
		return xIndexCheckStore
	case xFieldNarrow:
		return xIndexFieldNarrow
	}
	return xBad
}

// xinstr is one decoded instruction. The register operands and the
// immediate are its Instr's, except where an op's comment says
// otherwise; ins points back to the Instr for the cold fields — site,
// types, call arguments, C, literal — that only hooks, the runtime and
// the generic paths read.
type xinstr struct {
	op        xop
	dst, a, b int32
	k         int64
	ins       *Instr
}

// xfunc is a decoded function: its instructions laid out block after
// block, with branches resolved to pcs and OpNops dropped. A call site
// that names a libc intrinsic resolves to an xfunc with no code whose
// intr is the intrinsic and cmp its comparator, if any.
type xfunc struct {
	fn      *Func
	code    []xinstr
	callees []*xfunc // call targets, indexed by the call's k
	numRegs int
	// entry is the entry block's step charge. Every block charges its
	// Instr count, nops included, on entry — at the call for the entry
	// block, at the branch otherwise — so MaxSteps trips where it did
	// when the interpreter walked blocks.
	entry    uint64
	allocas  bool   // the body has OpAlloca, so a frame may own stack objects
	framepop string // site of the frees that pop the frame's stack objects

	intr *intrinsics.Desc
	cmp  *xfunc
}

// decode translates every function of p, fusing hot op pairs if fuse.
func decode(p *Program, fuse bool) map[string]*xfunc {
	funcs := make(map[string]*xfunc, len(p.Funcs))
	for name, f := range p.Funcs {
		funcs[name] = &xfunc{fn: f, numRegs: f.NumRegs, framepop: f.Name + ":framepop"}
	}
	var start []int32
	for _, xf := range funcs {
		start = xf.decode(funcs, start)
		if fuse {
			xf.fuse(start)
		}
	}
	return funcs
}

// decode translates xf.fn, resolving calls through funcs. start is
// scratch space for each block's first pc, returned for reuse holding
// xf's block starts.
func (xf *xfunc) decode(funcs map[string]*xfunc, start []int32) []int32 {
	f := xf.fn
	if len(f.Blocks) == 0 {
		return start[:0]
	}
	start = slices.Grow(start[:0], len(f.Blocks))[:len(f.Blocks)]
	n, calls := 0, 0
	for bi, blk := range f.Blocks {
		start[bi] = int32(n)
		for i := range blk.Instrs {
			switch blk.Instrs[i].Op {
			case OpNop:
				continue
			case OpCall:
				calls++
			}
			n++
		}
	}
	charge := func(bi int) int64 { return int64(len(f.Blocks[bi].Instrs)) }
	xf.entry = uint64(charge(0))
	xf.code = make([]xinstr, 0, n)
	xf.callees = make([]*xfunc, 0, calls)
	for _, blk := range f.Blocks {
		for i := range blk.Instrs {
			ins := &blk.Instrs[i]
			d := xinstr{dst: int32(ins.Dst), a: int32(ins.A), b: int32(ins.B), k: ins.Aux, ins: ins}
			switch ins.Op {
			case OpNop:
				continue
			case OpConst:
				d.op, d.k = xConst, ins.Imm
			case OpMov:
				d.op = xMov
			case OpBin:
				d.op = binOp(BinKind(ins.Aux), ins.Type)
			case OpCmp:
				d.op = cmpOp(CmpKind(ins.Aux), ins.Type)
			case OpNot:
				d.op = xNot
			case OpCast:
				d.op, d.k = castOp(ins.CastFrom, ins.Type)
			case OpGlobal:
				d.op = xGlobal
			case OpAlloca:
				d.op, xf.allocas = xAlloca, true
			case OpMalloc:
				d.op = xMalloc
			case OpFree:
				d.op = xFree
			case OpRealloc:
				d.op = xRealloc
			case OpLoad:
				d.op, d.k = loadOp(ins.Type)
			case OpStore:
				d.op, d.k = storeOp(ins.Type)
			case OpField:
				d.op = xField
			case OpIndex:
				d.op = xIndexAny
				if ins.Type.IsComplete() {
					d.op, d.k = xIndex, ins.Type.Size()
				}
			case OpMemcpy:
				d.op = xMemcpy
			case OpMemset:
				d.op = xMemset
			case OpCall:
				// Program functions shadow intrinsics; validation rejects
				// a callee that is neither, leaving it xBad.
				callee := funcs[ins.Callee]
				if callee != nil {
					d.op = xCall
				} else if desc := intrinsics.Lookup(ins.Callee); desc != nil {
					d.op, callee = xCallIntrinsic, &xfunc{intr: desc, cmp: funcs[ins.Str]}
				}
				if callee != nil {
					d.k = int64(len(xf.callees))
					xf.callees = append(xf.callees, callee)
				}
			case OpRet:
				d.op = xRet
			case OpJmp:
				d.op, d.dst, d.k = xJmp, start[ins.To], charge(ins.To)
			case OpBr:
				d.op, d.dst, d.b = xBr, start[ins.To], start[ins.Else]
				d.k = charge(ins.To) | charge(ins.Else)<<32
			case OpPrint:
				d.op = xPrint
			case OpPuts:
				d.op = xPuts
			case OpTypeCheck:
				d.op = xTypeCheck
			case OpBoundsGet:
				d.op = xBoundsGet
			case OpBoundsNarrow:
				d.op = xBoundsNarrow
			case OpBoundsCheck:
				d.op = xBoundsCheck
				if ins.B != -1 {
					d.op = xBoundsCheckDyn
				}
			case OpEscapeCheck:
				d.op = xEscapeCheck
			case OpBoundsMov:
				d.op = xBoundsMov
			}
			xf.code = append(xf.code, d)
		}
	}
	return start
}

// fuse rewrites adjacent op pairs within each block, whose first pcs are
// start, into their fused ops, left to right. A pair is left alone when
// its second op begins a hotter pair (lower fused op), so an
// xIndex→xBoundsCheck→xLoadU run fuses the check with the load; a second
// sweep then fuses an xIndex left alone with the pair after it into a
// chain (chainOp). The later records of a pair or chain keep their pcs
// and ops, so branch targets do not move; only the first record's op
// changes.
func (xf *xfunc) fuse(start []int32) {
	code := xf.code
	for bi, lo := range start {
		hi := len(code)
		if bi+1 < len(start) {
			hi = int(start[bi+1])
		}
		for i := int(lo); i+1 < hi; i++ {
			op := fusedOp(code[i].op, code[i+1].op)
			if op == xBad {
				continue
			}
			if i+2 < hi {
				if next := fusedOp(code[i+1].op, code[i+2].op); next != xBad && next < op {
					continue
				}
			}
			code[i].op = op
			i++
		}
		for i := int(lo); i+1 < hi; i++ {
			if code[i].op != xIndex {
				continue
			}
			if op := chainOp(code[i+1].op); op != xBad {
				code[i].op = op
			}
		}
	}
}

// binOp specialises OpBin kind k on operand type t.
func binOp(k BinKind, t *ctypes.Type) xop {
	if t == nil || t.IsFloat() {
		return xBin
	}
	switch k {
	case BinAdd:
		return xAdd
	case BinSub:
		return xSub
	case BinMul:
		return xMul
	case BinAnd:
		return xAnd
	case BinOr:
		return xOr
	case BinXor:
		return xXor
	case BinShl:
		return xShl
	case BinShr:
		if t.IsSigned() {
			return xShrS
		}
		return xShrU
	}
	return xBin
}

// cmpOp specialises OpCmp kind k on operand type t.
func cmpOp(k CmpKind, t *ctypes.Type) xop {
	switch {
	case t == nil || t.IsFloat() || k < CmpEq || k > CmpGe:
		return xCmp
	case k == CmpEq:
		return xEq
	case k == CmpNe:
		return xNe
	case t.IsSigned():
		return xLtS + xop(k-CmpLt)
	}
	return xLtU + xop(k-CmpLt)
}

// castOp specialises an OpCast from from to to. Casts that keep the
// register's bits — pointer to pointer, integer to a 64-bit integer or
// pointer, any float type to double — copy it; integer narrowings
// truncate and re-extend by a shift; float conversions stay generic.
func castOp(from, to *ctypes.Type) (xop, int64) {
	switch {
	case from != nil && from.Kind == ctypes.KindPointer && to.Kind == ctypes.KindPointer:
		return xCastPtr, 0
	case from == nil || from == to:
		return xMov, 0
	case from.IsFloat() && to.IsFloat() && to.Kind != ctypes.KindFloat:
		return xMov, 0
	case from.IsFloat() || to.IsFloat() || !to.IsScalar():
		return xCast, 0
	}
	w := scalarWidth(to)
	if w >= 8 {
		return xMov, 0
	}
	if to.IsSigned() {
		return xSext, int64(64 - 8*w)
	}
	return xZext, int64(64 - 8*w)
}

// loadOp specialises an OpLoad of scalar type t, returning the width
// as k.
func loadOp(t *ctypes.Type) (xop, int64) {
	w := int64(scalarWidth(t))
	switch {
	case t.Kind == ctypes.KindFloat:
		return xLoadF32, w
	case t.IsSigned() && w < 8:
		return xLoadS, w
	}
	return xLoadU, w
}

// storeOp specialises an OpStore of scalar type t, returning the width
// as k.
func storeOp(t *ctypes.Type) (xop, int64) {
	if t.Kind == ctypes.KindFloat {
		return xStoreF32, int64(scalarWidth(t))
	}
	return xStore, int64(scalarWidth(t))
}

// call runs program function f on args (register numbers in the
// caller's file regs) in a fresh window.
func (in *Interp) call(rs *runState, f *xfunc, regs []uint64, args []int) uint64 {
	cregs, cbregs, mark := rs.push(f.numRegs)
	for i, a := range args {
		cregs[i] = regs[a]
	}
	v := in.exec(rs, f, cregs, cbregs)
	rs.sp = mark
	return v
}

// popAllocas frees the stack objects above mark, innermost first: they
// die with their frame, and EffEnv rebinds them to FREE, so dangling
// stack pointers are detected like heap UAF.
func (in *Interp) popAllocas(rs *runState, mark int, site string) {
	for i := len(rs.allocas) - 1; i >= mark; i-- {
		in.env.Free(rs.allocas[i], site)
	}
	rs.allocas = rs.allocas[:mark]
}

// exec runs one activation of f to completion in the window regs/bregs,
// whose leading registers hold the arguments.
//
// With a runtime attached, exec runs the passing case of bounds and
// escape checks and every bounds narrow itself, counted in rs.stats,
// instead of calling the runtime: those calls have no effect on success
// but a counter.
func (in *Interp) exec(rs *runState, f *xfunc, regs []uint64, bregs []core.Bounds) uint64 {
	if f.allocas {
		// Deferred so the frame's stack objects die on every exit,
		// including a simulation error or abort unwinding through it.
		defer in.popAllocas(rs, len(rs.allocas), f.framepop)
	}
	hooks, m, code, inlineChecks := in.hooks, in.mem, f.code, in.eff != nil
	rs.spend(f.entry)
	for pc := 0; ; {
		d := &code[pc]
		pc++
		switch d.op {
		case xConst:
			regs[d.dst] = uint64(d.k)
		case xMov:
			regs[d.dst] = regs[d.a]
			bregs[d.dst] = bregs[d.a]
		case xNot:
			if regs[d.a] == 0 {
				regs[d.dst] = 1
			} else {
				regs[d.dst] = 0
			}

		case xAdd:
			regs[d.dst] = regs[d.a] + regs[d.b]
		case xSub:
			regs[d.dst] = regs[d.a] - regs[d.b]
		case xMul:
			regs[d.dst] = regs[d.a] * regs[d.b]
		case xAnd:
			regs[d.dst] = regs[d.a] & regs[d.b]
		case xOr:
			regs[d.dst] = regs[d.a] | regs[d.b]
		case xXor:
			regs[d.dst] = regs[d.a] ^ regs[d.b]
		case xShl:
			regs[d.dst] = regs[d.a] << (regs[d.b] & 63)
		case xShrS:
			regs[d.dst] = uint64(int64(regs[d.a]) >> (regs[d.b] & 63))
		case xShrU:
			regs[d.dst] = regs[d.a] >> (regs[d.b] & 63)
		case xBin:
			regs[d.dst] = evalBin(BinKind(d.k), d.ins.Type, regs[d.a], regs[d.b])

		case xEq:
			regs[d.dst] = b2u(regs[d.a] == regs[d.b])
		case xNe:
			regs[d.dst] = b2u(regs[d.a] != regs[d.b])
		case xLtS:
			regs[d.dst] = b2u(int64(regs[d.a]) < int64(regs[d.b]))
		case xLeS:
			regs[d.dst] = b2u(int64(regs[d.a]) <= int64(regs[d.b]))
		case xGtS:
			regs[d.dst] = b2u(int64(regs[d.a]) > int64(regs[d.b]))
		case xGeS:
			regs[d.dst] = b2u(int64(regs[d.a]) >= int64(regs[d.b]))
		case xLtU:
			regs[d.dst] = b2u(regs[d.a] < regs[d.b])
		case xLeU:
			regs[d.dst] = b2u(regs[d.a] <= regs[d.b])
		case xGtU:
			regs[d.dst] = b2u(regs[d.a] > regs[d.b])
		case xGeU:
			regs[d.dst] = b2u(regs[d.a] >= regs[d.b])
		case xCmp:
			regs[d.dst] = evalCmp(CmpKind(d.k), d.ins.Type, regs[d.a], regs[d.b])

		case xCastPtr:
			if hooks != nil {
				hooks.Cast(regs[d.a], d.ins.CastFrom, d.ins.Type, d.ins.Site)
			}
			regs[d.dst] = regs[d.a]
			bregs[d.dst] = bregs[d.a]
		case xSext:
			regs[d.dst] = uint64(int64(regs[d.a]<<d.k) >> d.k)
			bregs[d.dst] = bregs[d.a]
		case xZext:
			regs[d.dst] = regs[d.a] << d.k >> d.k
			bregs[d.dst] = bregs[d.a]
		case xCast:
			regs[d.dst] = convert(regs[d.a], d.ins.CastFrom, d.ins.Type)
			bregs[d.dst] = bregs[d.a]

		case xGlobal:
			regs[d.dst] = in.globalAddrs[d.k]
			bregs[d.dst] = core.Wide
		case xAlloca:
			ins := d.ins
			p := in.env.Malloc(ins.Type, uint64(ins.Aux)*uint64(ins.Type.Size()), core.StackAlloc, ins.Site)
			rs.allocas = append(rs.allocas, p)
			regs[d.dst] = p
			bregs[d.dst] = core.Wide
		case xMalloc:
			if d.k == MallocLegacy {
				regs[d.dst] = in.env.LegacyAlloc(regs[d.a])
			} else {
				regs[d.dst] = in.env.Malloc(d.ins.Type, regs[d.a], core.HeapAlloc, d.ins.Site)
			}
			bregs[d.dst] = core.Wide
		case xFree:
			in.env.Free(regs[d.a], d.ins.Site)
		case xRealloc:
			regs[d.dst] = in.env.Realloc(regs[d.a], regs[d.b], d.ins.Site)
			bregs[d.dst] = core.Wide

		case xLoadU, xLoadS, xLoadF32:
			addr := regs[d.a]
			if addr < nullPage {
				nullTrap(addr, d.ins.Site)
			}
			if hooks != nil {
				hooks.Access(addr, accessSize(d.ins.Type), false, d.ins.Type, d.ins.Site)
			}
			v := m.Load(addr, int(d.k))
			switch d.op {
			case xLoadS:
				v = uint64(int64(v<<(64-8*d.k)) >> (64 - 8*d.k))
			case xLoadF32:
				v = math.Float64bits(float64(math.Float32frombits(uint32(v))))
			}
			if hooks != nil && d.ins.Type.Kind == ctypes.KindPointer {
				hooks.PtrLoad(addr, v, d.ins.Site)
			}
			regs[d.dst] = v
			bregs[d.dst] = core.Wide
		case xStore, xStoreF32:
			addr := regs[d.a]
			if addr < nullPage {
				nullTrap(addr, d.ins.Site)
			}
			v := regs[d.b]
			if hooks != nil {
				hooks.Access(addr, accessSize(d.ins.Type), true, d.ins.Type, d.ins.Site)
				if d.ins.Type.Kind == ctypes.KindPointer {
					hooks.PtrStore(addr, v, d.ins.Site)
				}
			}
			if d.op == xStoreF32 {
				v = uint64(math.Float32bits(float32(math.Float64frombits(v))))
			}
			m.Store(addr, int(d.k), v)
		case xField:
			p := regs[d.a] + uint64(d.k)
			if hooks != nil {
				fsize := uint64(0)
				if d.ins.Type.IsComplete() {
					fsize = uint64(d.ins.Type.Size())
				}
				hooks.Derive(p, regs[d.a], true, p, p+fsize, d.ins.Site)
			}
			regs[d.dst] = p
			bregs[d.dst] = bregs[d.a]
		case xIndex, xIndexAny:
			size := d.k
			if d.op == xIndexAny {
				size = d.ins.Type.Size()
			}
			p := regs[d.a] + uint64(int64(regs[d.b])*size)
			if hooks != nil {
				hooks.Derive(p, regs[d.a], false, 0, 0, d.ins.Site)
			}
			regs[d.dst] = p
			bregs[d.dst] = bregs[d.a]
		case xMemcpy:
			n := regs[d.ins.C]
			if hooks != nil {
				hooks.Access(regs[d.b], n, false, ctypes.Char, d.ins.Site)
				hooks.Access(regs[d.a], n, true, ctypes.Char, d.ins.Site)
			}
			m.Copy(regs[d.a], regs[d.b], n)
		case xMemset:
			n := regs[d.ins.C]
			if hooks != nil {
				hooks.Access(regs[d.a], n, true, ctypes.Char, d.ins.Site)
			}
			m.Set(regs[d.a], byte(regs[d.b]), n)

		case xCall:
			v := in.call(rs, f.callees[d.k], regs, d.ins.Args)
			if d.dst != -1 {
				regs[d.dst] = v
				bregs[d.dst] = core.Wide
			}
		case xCallIntrinsic:
			v := in.execIntrinsic(rs, d.ins, f.callees[d.k], regs, bregs)
			if d.dst != -1 {
				regs[d.dst] = v
				bregs[d.dst] = core.Wide
			}
		case xRet:
			if d.a == -1 {
				return 0
			}
			return regs[d.a]
		case xJmp:
			pc = int(d.dst)
			rs.spend(uint64(d.k))
		case xBr:
			if regs[d.a] != 0 {
				pc = int(d.dst)
				rs.spend(uint64(uint32(d.k)))
			} else {
				pc = int(d.b)
				rs.spend(uint64(d.k >> 32))
			}

		case xPrint:
			printValue(in.out, d.ins.Type, regs[d.a])
		case xPuts:
			fmt.Fprintln(in.out, d.ins.Str)

		case xTypeCheck:
			bregs[d.a] = in.effRT(d.ins).TypeCheckInto(&rs.stats, regs[d.a], d.ins.Type, d.k, d.ins.Site)
		case xBoundsGet:
			bregs[d.a] = in.effRT(d.ins).BoundsGet(regs[d.a])
		case xBoundsNarrow:
			p := regs[d.a]
			if inlineChecks {
				bregs[d.a] = bregs[d.a].Intersect(core.Bounds{Lo: p, Hi: p + uint64(d.k)})
				rs.stats.BoundsNarrows++
			} else {
				bregs[d.a] = in.effRT(d.ins).BoundsNarrow(bregs[d.a], p, p+uint64(d.k))
			}
		case xBoundsCheck, xBoundsCheckDyn:
			size := uint64(d.k)
			if d.op == xBoundsCheckDyn {
				size = regs[d.b] // dynamic extent (memcpy/memset)
			}
			p := regs[d.a]
			if inlineChecks && bregs[d.a].Contains(p, size) {
				rs.stats.BoundsChecks++
			} else {
				in.effRT(d.ins).BoundsCheck(p, size, bregs[d.a], d.ins.Type, d.ins.Site)
			}
		case xEscapeCheck:
			if inlineChecks && bregs[d.a].ContainsEscape(regs[d.a]) {
				rs.stats.BoundsChecks++
			} else {
				in.effRT(d.ins).EscapeCheck(regs[d.a], bregs[d.a], d.ins.Site)
			}
		case xBoundsMov:
			bregs[d.a] = bregs[d.b]

		// Fused pairs: d's half as its unfused case runs it (hooks are
		// nil), then e's, the next record, whose pc is then skipped. A
		// chain runs its index, then falls through to its pair with d the
		// pair's first record.
		case xIndexCheckLoadU, xIndexCheckLoadS:
			regs[d.dst] = regs[d.a] + uint64(int64(regs[d.b])*d.k)
			bregs[d.dst] = bregs[d.a]
			d = &code[pc]
			pc++
			fallthrough
		case xCheckLoadU, xCheckLoadS:
			if p := regs[d.a]; inlineChecks && bregs[d.a].Contains(p, uint64(d.k)) {
				rs.stats.BoundsChecks++
			} else {
				in.effRT(d.ins).BoundsCheck(p, uint64(d.k), bregs[d.a], d.ins.Type, d.ins.Site)
			}
			e := &code[pc]
			pc++
			addr := regs[e.a]
			if addr < nullPage {
				nullTrap(addr, e.ins.Site)
			}
			v := m.Load(addr, int(e.k))
			if d.op == xCheckLoadS {
				v = uint64(int64(v<<(64-8*e.k)) >> (64 - 8*e.k))
			}
			regs[e.dst] = v
			bregs[e.dst] = core.Wide
		case xIndexCheckStore:
			regs[d.dst] = regs[d.a] + uint64(int64(regs[d.b])*d.k)
			bregs[d.dst] = bregs[d.a]
			d = &code[pc]
			pc++
			fallthrough
		case xCheckStore:
			if p := regs[d.a]; inlineChecks && bregs[d.a].Contains(p, uint64(d.k)) {
				rs.stats.BoundsChecks++
			} else {
				in.effRT(d.ins).BoundsCheck(p, uint64(d.k), bregs[d.a], d.ins.Type, d.ins.Site)
			}
			e := &code[pc]
			pc++
			addr := regs[e.a]
			if addr < nullPage {
				nullTrap(addr, e.ins.Site)
			}
			m.Store(addr, int(e.k), regs[e.b])
		case xIndexCheck:
			regs[d.dst] = regs[d.a] + uint64(int64(regs[d.b])*d.k)
			bregs[d.dst] = bregs[d.a]
			e := &code[pc]
			pc++
			if p := regs[e.a]; inlineChecks && bregs[e.a].Contains(p, uint64(e.k)) {
				rs.stats.BoundsChecks++
			} else {
				in.effRT(e.ins).BoundsCheck(p, uint64(e.k), bregs[e.a], e.ins.Type, e.ins.Site)
			}
		case xMovJmp:
			regs[d.dst] = regs[d.a]
			bregs[d.dst] = bregs[d.a]
			e := &code[pc]
			pc = int(e.dst)
			rs.spend(uint64(e.k))
		case xConstAdd:
			regs[d.dst] = uint64(d.k)
			e := &code[pc]
			pc++
			regs[e.dst] = regs[e.a] + regs[e.b]
		case xAddMov:
			regs[d.dst] = regs[d.a] + regs[d.b]
			e := &code[pc]
			pc++
			regs[e.dst] = regs[e.a]
			bregs[e.dst] = bregs[e.a]
		case xConstSub:
			regs[d.dst] = uint64(d.k)
			e := &code[pc]
			pc++
			regs[e.dst] = regs[e.a] - regs[e.b]
		case xLtSBr, xGtSBr:
			if d.op == xLtSBr {
				regs[d.dst] = b2u(int64(regs[d.a]) < int64(regs[d.b]))
			} else {
				regs[d.dst] = b2u(int64(regs[d.a]) > int64(regs[d.b]))
			}
			e := &code[pc]
			if regs[e.a] != 0 {
				pc = int(e.dst)
				rs.spend(uint64(uint32(e.k)))
			} else {
				pc = int(e.b)
				rs.spend(uint64(e.k >> 32))
			}
		case xIndexFieldNarrow:
			regs[d.dst] = regs[d.a] + uint64(int64(regs[d.b])*d.k)
			bregs[d.dst] = bregs[d.a]
			d = &code[pc]
			pc++
			fallthrough
		case xFieldNarrow:
			regs[d.dst] = regs[d.a] + uint64(d.k)
			bregs[d.dst] = bregs[d.a]
			e := &code[pc]
			pc++
			p := regs[e.a]
			if inlineChecks {
				bregs[e.a] = bregs[e.a].Intersect(core.Bounds{Lo: p, Hi: p + uint64(e.k)})
				rs.stats.BoundsNarrows++
			} else {
				bregs[e.a] = in.effRT(e.ins).BoundsNarrow(bregs[e.a], p, p+uint64(e.k))
			}

		default:
			panic(simError{fmt.Sprintf("%s: unknown op %d", d.ins.Site, d.ins.Op)})
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// intrCall is a reusable intrinsic invocation: a Ctx whose callbacks,
// bound once, read the current call from the intrCall.
type intrCall struct {
	ctx intrinsics.Ctx
	in  *Interp
	rs  *runState
	ins *Instr
	cmp *xfunc
	// cmpFn is the comparator callback, set into ctx for qsort only.
	cmpFn func(a, b uint64) int64
}

func (c *intrCall) free(p uint64) { c.in.env.Free(p, c.ins.Site) }

func (c *intrCall) access(p, n uint64, write bool) {
	c.in.hooks.Access(p, n, write, ctypes.Char, c.ins.Site)
}

// compare re-enters the interpreter on the qsort comparator.
func (c *intrCall) compare(a, b uint64) int64 {
	rs := c.rs
	cregs, cbregs, mark := rs.push(c.cmp.numRegs)
	cregs[0], cregs[1] = a, b
	v := c.in.exec(rs, c.cmp, cregs, cbregs)
	rs.sp = mark
	return int64(v)
}

// execIntrinsic runs an xCallIntrinsic. Aux > 0 marks a checked call —
// the instrument pass reserved check-site IDs for it, and an
// EffectiveSan runtime must be attached, mirroring the effRT contract
// of the other instrumentation ops. Aux == 0 runs the bare operation
// (uninstrumented baselines and TypeOnly);
// either way the operation half computes identically — checks only
// observe and report. The call reuses its nesting depth's context, so
// steady-state calls allocate nothing.
func (in *Interp) execIntrinsic(rs *runState, ins *Instr, callee *xfunc, regs []uint64, bregs []core.Bounds) uint64 {
	if rs.depth == len(rs.intr) {
		c := &intrCall{in: in, rs: rs}
		c.ctx.Mem, c.ctx.Spend, c.ctx.Free, c.ctx.Stats = in.mem, rs.spend, c.free, &rs.stats
		if in.hooks != nil {
			c.ctx.Access = c.access
		}
		c.cmpFn = c.compare
		rs.intr = append(rs.intr, c)
	}
	c := rs.intr[rs.depth]
	rs.depth++
	c.ins, c.cmp = ins, callee.cmp
	ctx := &c.ctx
	ctx.Args, ctx.Bounds = ctx.Args[:0], ctx.Bounds[:0]
	for _, a := range ins.Args {
		ctx.Args = append(ctx.Args, regs[a])
		ctx.Bounds = append(ctx.Bounds, bregs[a])
	}
	ctx.Site, ctx.RT, ctx.SiteID, ctx.Cmp = ins.Site, nil, 0, nil
	if ins.Aux > 0 {
		ctx.RT, ctx.SiteID = in.effRT(ins), ins.Aux
	}
	if callee.intr.NeedsCmp {
		ctx.Cmp = c.cmpFn
	}
	v := callee.intr.Run(ctx)
	rs.depth--
	return v
}

func (in *Interp) effRT(ins *Instr) *core.Runtime {
	if in.eff == nil {
		panic(simError{fmt.Sprintf("%s: instrumented op without an EffectiveSan runtime", ins.Site)})
	}
	return in.eff
}

// nullPage is the size of the unmapped page at address zero.
const nullPage = 4096

// nullTrap traps an access to the null page — the simulation's segfault.
func nullTrap(addr uint64, site string) {
	panic(simError{fmt.Sprintf("%s: null-page access at %#x", site, addr)})
}

// accessSize returns the memory footprint of a scalar access.
func accessSize(t *ctypes.Type) uint64 {
	return uint64(t.Size())
}

// scalarWidth returns the load/store width in bytes (capped at 8: the
// interpreter models long double values as doubles, a simplification also
// made by the prototype's "treating enums as int"-style shortcuts).
func scalarWidth(t *ctypes.Type) int {
	s := t.Size()
	if s > 8 {
		return 8
	}
	return int(s)
}

func evalBin(k BinKind, t *ctypes.Type, a, b uint64) uint64 {
	if t.IsFloat() {
		fa, fb := math.Float64frombits(a), math.Float64frombits(b)
		var r float64
		switch k {
		case BinAdd:
			r = fa + fb
		case BinSub:
			r = fa - fb
		case BinMul:
			r = fa * fb
		case BinDiv:
			if fb == 0 {
				r = 0
			} else {
				r = fa / fb
			}
		default:
			panic(simError{fmt.Sprintf("mir: float binop %d unsupported", k)})
		}
		return math.Float64bits(r)
	}
	switch k {
	case BinAdd:
		return a + b
	case BinSub:
		return a - b
	case BinMul:
		return a * b
	case BinDiv:
		if b == 0 {
			return 0
		}
		if t.IsSigned() {
			return uint64(int64(a) / int64(b))
		}
		return a / b
	case BinRem:
		if b == 0 {
			return 0
		}
		if t.IsSigned() {
			return uint64(int64(a) % int64(b))
		}
		return a % b
	case BinAnd:
		return a & b
	case BinOr:
		return a | b
	case BinXor:
		return a ^ b
	case BinShl:
		return a << (b & 63)
	case BinShr:
		if t.IsSigned() {
			return uint64(int64(a) >> (b & 63))
		}
		return a >> (b & 63)
	}
	panic(simError{fmt.Sprintf("mir: unknown binop %d", k)})
}

func evalCmp(k CmpKind, t *ctypes.Type, a, b uint64) uint64 {
	var lt, eq bool
	switch {
	case t.IsFloat():
		fa, fb := math.Float64frombits(a), math.Float64frombits(b)
		lt, eq = fa < fb, fa == fb
	case t.IsSigned():
		lt, eq = int64(a) < int64(b), a == b
	default:
		lt, eq = a < b, a == b
	}
	var r bool
	switch k {
	case CmpEq:
		r = eq
	case CmpNe:
		r = !eq
	case CmpLt:
		r = lt
	case CmpLe:
		r = lt || eq
	case CmpGt:
		r = !lt && !eq
	case CmpGe:
		r = !lt
	}
	if r {
		return 1
	}
	return 0
}

// convert implements C value conversions between scalar types; pointer
// casts are bit-preserving.
func convert(v uint64, from, to *ctypes.Type) uint64 {
	if from == nil || from == to {
		return v
	}
	switch {
	case from.IsFloat() && to.IsFloat():
		if to.Kind == ctypes.KindFloat {
			return math.Float64bits(float64(float32(math.Float64frombits(v))))
		}
		return v
	case from.IsFloat():
		f := math.Float64frombits(v)
		return canonInt(uint64(int64(f)), to)
	case to.IsFloat():
		var f float64
		if from.IsSigned() {
			f = float64(int64(v))
		} else {
			f = float64(v)
		}
		if to.Kind == ctypes.KindFloat {
			f = float64(float32(f))
		}
		return math.Float64bits(f)
	default:
		return canonInt(v, to)
	}
}

// canonInt truncates v to the width of integer/pointer type t and
// re-extends it to the canonical 64-bit register form.
func canonInt(v uint64, t *ctypes.Type) uint64 {
	w := scalarWidth(t)
	if w >= 8 {
		return v
	}
	shift := uint(64 - 8*w)
	if t.IsSigned() {
		return uint64(int64(v<<shift) >> shift)
	}
	return v << shift >> shift
}

func printValue(w io.Writer, t *ctypes.Type, v uint64) {
	switch {
	case t == nil:
		fmt.Fprintln(w, v)
	case t.IsFloat():
		fmt.Fprintf(w, "%g\n", math.Float64frombits(v))
	case t.Kind == ctypes.KindPointer:
		fmt.Fprintf(w, "%#x\n", v)
	case t.IsSigned():
		fmt.Fprintf(w, "%d\n", int64(v))
	default:
		fmt.Fprintf(w, "%d\n", v)
	}
}
