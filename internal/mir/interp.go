package mir

import (
	"fmt"
	"io"
	"math"
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
// its own register state while sharing memory, globals and the
// environment.
type Interp struct {
	prog     *Program
	env      Env
	eff      *core.Runtime
	hooks    Hooks
	mem      *mem.Memory
	out      io.Writer
	maxSteps uint64

	globalsOnce sync.Once
	globalAddrs []uint64
}

// New validates the program and returns an interpreter for it.
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
func (in *Interp) Run(fn string, args ...uint64) (res uint64, err error) {
	f, ok := in.prog.Funcs[fn]
	if !ok {
		return 0, fmt.Errorf("mir: no function %q", fn)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("mir: %s expects %d args, got %d", fn, len(f.Params), len(args))
	}
	in.materializeGlobals()
	defer func() {
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
	rs := &runState{budget: in.maxSteps}
	regs, bregs, _ := rs.push(f.NumRegs)
	copy(regs, args)
	v := in.exec(rs, f, regs, bregs)
	if in.eff != nil {
		// End-of-run epoch boundary (no-op in precise mode): no register
		// can hold an evidence handle past this point, so pending evidence
		// validates and the provenance log is released. An AbortError from
		// the sweep is recovered above, like any mid-run abort.
		in.eff.EpochFlush()
	}
	return v, nil
}

// runState is one Run's mutable state: its step budget and its frame
// stack, the register and bounds files of every live activation.
type runState struct {
	budget uint64

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
	for i := range bregs {
		bregs[i] = core.Wide
	}
	return regs, bregs, mark
}

// call runs program function f on args (register numbers in the
// caller's file regs) in a fresh window.
func (in *Interp) call(rs *runState, f *Func, regs []uint64, args []int) uint64 {
	cregs, cbregs, mark := rs.push(f.NumRegs)
	for i, a := range args {
		cregs[i] = regs[a]
	}
	v := in.exec(rs, f, cregs, cbregs)
	rs.sp = mark
	return v
}

func (rs *runState) spend(n uint64) {
	if n > rs.budget {
		panic(simError{"mir: step limit exceeded (runaway loop?)"})
	}
	rs.budget -= n
}

// exec runs one function activation to completion in the window
// regs/bregs, whose leading registers hold the arguments.
func (in *Interp) exec(rs *runState, f *Func, regs []uint64, bregs []core.Bounds) uint64 {
	var allocas []uint64
	defer func() {
		// Stack objects die with the frame; EffEnv rebinds them to FREE,
		// so dangling stack pointers are detected like heap UAF.
		for i := len(allocas) - 1; i >= 0; i-- {
			in.env.Free(allocas[i], f.Name+":framepop")
		}
	}()

	bi := 0
	for {
		blk := f.Blocks[bi]
		rs.spend(uint64(len(blk.Instrs)))
		for ii := range blk.Instrs {
			ins := &blk.Instrs[ii]
			switch ins.Op {
			case OpNop:

			case OpConst:
				regs[ins.Dst] = uint64(ins.Imm)
			case OpMov:
				regs[ins.Dst] = regs[ins.A]
				bregs[ins.Dst] = bregs[ins.A]
			case OpBin:
				regs[ins.Dst] = evalBin(BinKind(ins.Aux), ins.Type, regs[ins.A], regs[ins.B])
			case OpCmp:
				regs[ins.Dst] = evalCmp(CmpKind(ins.Aux), ins.Type, regs[ins.A], regs[ins.B])
			case OpNot:
				if regs[ins.A] == 0 {
					regs[ins.Dst] = 1
				} else {
					regs[ins.Dst] = 0
				}
			case OpCast:
				v := convert(regs[ins.A], ins.CastFrom, ins.Type)
				if in.hooks != nil && ins.Type.Kind == ctypes.KindPointer &&
					ins.CastFrom != nil && ins.CastFrom.Kind == ctypes.KindPointer {
					in.hooks.Cast(v, ins.CastFrom, ins.Type, ins.Site)
				}
				regs[ins.Dst] = v
				bregs[ins.Dst] = bregs[ins.A]

			case OpGlobal:
				regs[ins.Dst] = in.globalAddrs[ins.Aux]
				bregs[ins.Dst] = core.Wide
			case OpAlloca:
				size := uint64(ins.Aux) * uint64(ins.Type.Size())
				p := in.env.Malloc(ins.Type, size, core.StackAlloc, ins.Site)
				allocas = append(allocas, p)
				regs[ins.Dst] = p
				bregs[ins.Dst] = core.Wide
			case OpMalloc:
				if ins.Aux == MallocLegacy {
					regs[ins.Dst] = in.env.LegacyAlloc(regs[ins.A])
				} else {
					regs[ins.Dst] = in.env.Malloc(ins.Type, regs[ins.A], core.HeapAlloc, ins.Site)
				}
				bregs[ins.Dst] = core.Wide
			case OpFree:
				in.env.Free(regs[ins.A], ins.Site)
			case OpRealloc:
				regs[ins.Dst] = in.env.Realloc(regs[ins.A], regs[ins.B], ins.Site)
				bregs[ins.Dst] = core.Wide

			case OpLoad:
				addr := regs[ins.A]
				in.checkAddr(addr, ins.Site)
				size := accessSize(ins.Type)
				if in.hooks != nil {
					in.hooks.Access(addr, size, false, ins.Type, ins.Site)
				}
				v := loadScalar(in.mem, addr, ins.Type)
				if in.hooks != nil && ins.Type.Kind == ctypes.KindPointer {
					in.hooks.PtrLoad(addr, v, ins.Site)
				}
				regs[ins.Dst] = v
				bregs[ins.Dst] = core.Wide
			case OpStore:
				addr := regs[ins.A]
				in.checkAddr(addr, ins.Site)
				size := accessSize(ins.Type)
				if in.hooks != nil {
					in.hooks.Access(addr, size, true, ins.Type, ins.Site)
					if ins.Type.Kind == ctypes.KindPointer {
						in.hooks.PtrStore(addr, regs[ins.B], ins.Site)
					}
				}
				storeScalar(in.mem, addr, ins.Type, regs[ins.B])
			case OpField:
				p := regs[ins.A] + uint64(ins.Aux)
				if in.hooks != nil {
					fsize := uint64(0)
					if ins.Type.IsComplete() {
						fsize = uint64(ins.Type.Size())
					}
					in.hooks.Derive(p, regs[ins.A], true, p, p+fsize, ins.Site)
				}
				regs[ins.Dst] = p
				bregs[ins.Dst] = bregs[ins.A]
			case OpIndex:
				p := regs[ins.A] + uint64(int64(regs[ins.B])*ins.Type.Size())
				if in.hooks != nil {
					in.hooks.Derive(p, regs[ins.A], false, 0, 0, ins.Site)
				}
				regs[ins.Dst] = p
				bregs[ins.Dst] = bregs[ins.A]
			case OpMemcpy:
				n := regs[ins.C]
				if in.hooks != nil {
					in.hooks.Access(regs[ins.B], n, false, ctypes.Char, ins.Site)
					in.hooks.Access(regs[ins.A], n, true, ctypes.Char, ins.Site)
				}
				in.mem.Copy(regs[ins.A], regs[ins.B], n)
			case OpMemset:
				n := regs[ins.C]
				if in.hooks != nil {
					in.hooks.Access(regs[ins.A], n, true, ctypes.Char, ins.Site)
				}
				in.mem.Set(regs[ins.A], byte(regs[ins.B]), n)

			case OpCall:
				var v uint64
				if callee := in.prog.Funcs[ins.Callee]; callee != nil {
					v = in.call(rs, callee, regs, ins.Args)
				} else {
					v = in.execIntrinsic(rs, ins, regs, bregs)
				}
				if ins.Dst != -1 {
					regs[ins.Dst] = v
					bregs[ins.Dst] = core.Wide
				}
			case OpRet:
				if ins.A == -1 {
					return 0
				}
				return regs[ins.A]
			case OpJmp:
				bi = ins.To
			case OpBr:
				if regs[ins.A] != 0 {
					bi = ins.To
				} else {
					bi = ins.Else
				}

			case OpPrint:
				printValue(in.out, ins.Type, regs[ins.A])
			case OpPuts:
				fmt.Fprintln(in.out, ins.Str)

			case OpTypeCheck:
				bregs[ins.A] = in.effRT(ins).TypeCheckAt(regs[ins.A], ins.Type, ins.Aux, ins.Site)
			case OpBoundsGet:
				bregs[ins.A] = in.effRT(ins).BoundsGet(regs[ins.A])
			case OpBoundsNarrow:
				p := regs[ins.A]
				bregs[ins.A] = in.effRT(ins).BoundsNarrow(bregs[ins.A], p, p+uint64(ins.Aux))
			case OpBoundsCheck:
				size := uint64(ins.Aux)
				if ins.B != -1 {
					size = regs[ins.B] // dynamic extent (memcpy/memset)
				}
				in.effRT(ins).BoundsCheck(regs[ins.A], size, bregs[ins.A], ins.Type, ins.Site)
			case OpEscapeCheck:
				in.effRT(ins).EscapeCheck(regs[ins.A], bregs[ins.A], ins.Site)
			case OpBoundsMov:
				bregs[ins.A] = bregs[ins.B]

			case OpTypeRecord:
				bregs[ins.A] = in.effRT(ins).TypeRecordAt(regs[ins.A], ins.Type, ins.Aux, ins.Site)
			case OpBoundsRecord:
				size := uint64(ins.Aux)
				if ins.B != -1 {
					size = regs[ins.B] // dynamic extent (memcpy/memset)
				}
				in.effRT(ins).BoundsRecord(regs[ins.A], size, bregs[ins.A], ins.Type, ins.Site)
			case OpEscapeRecord:
				in.effRT(ins).EscapeRecord(regs[ins.A], bregs[ins.A], ins.Site)

			default:
				panic(simError{fmt.Sprintf("%s: unknown op %d", ins.Site, ins.Op)})
			}
		}
	}
}

// execIntrinsic runs an OpCall whose callee is a libc intrinsic rather
// than a program function (the validator guarantees it is one or the
// other; program functions shadow intrinsics). Aux > 0 marks a checked
// call — the instrument pass reserved check-site IDs for it, and an
// EffectiveSan runtime must be attached, mirroring the effRT contract
// of the other instrumentation ops. Aux == 0 runs the bare operation
// (uninstrumented baselines, TypeOnly, and the NoIntrinsics ablation);
// either way the operation half computes identically — checks only
// observe and report.
func (in *Interp) execIntrinsic(rs *runState, ins *Instr, regs []uint64, bregs []core.Bounds) uint64 {
	d := intrinsics.Lookup(ins.Callee)
	args := make([]uint64, len(ins.Args))
	bounds := make([]core.Bounds, len(ins.Args))
	for i, a := range ins.Args {
		args[i] = regs[a]
		bounds[i] = bregs[a]
	}
	ctx := &intrinsics.Ctx{
		Mem:    in.mem,
		Args:   args,
		Bounds: bounds,
		Site:   ins.Site,
		Free:   func(p uint64) { in.env.Free(p, ins.Site) },
		Spend:  rs.spend,
	}
	if ins.Aux > 0 {
		ctx.RT = in.effRT(ins)
		ctx.SiteID = ins.Aux
	}
	if in.hooks != nil {
		ctx.Access = func(p, n uint64, write bool) {
			in.hooks.Access(p, n, write, ctypes.Char, ins.Site)
		}
	}
	if d.NeedsCmp {
		cmp := in.prog.Funcs[ins.Str]
		ctx.Cmp = func(a, b uint64) int64 {
			cregs, cbregs, mark := rs.push(cmp.NumRegs)
			cregs[0], cregs[1] = a, b
			v := in.exec(rs, cmp, cregs, cbregs)
			rs.sp = mark
			return int64(v)
		}
	}
	return d.Run(ctx)
}

func (in *Interp) effRT(ins *Instr) *core.Runtime {
	if in.eff == nil {
		panic(simError{fmt.Sprintf("%s: instrumented op without an EffectiveSan runtime", ins.Site)})
	}
	return in.eff
}

// checkAddr traps accesses to the null page — the simulation's segfault.
func (in *Interp) checkAddr(addr uint64, site string) {
	if addr < 4096 {
		panic(simError{fmt.Sprintf("%s: null-page access at %#x", site, addr)})
	}
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

// loadScalar reads a value of type t at addr and canonicalises it into
// the 64-bit register form: integers are sign/zero extended, float is
// widened to double bits.
func loadScalar(m *mem.Memory, addr uint64, t *ctypes.Type) uint64 {
	w := scalarWidth(t)
	raw := m.Load(addr, w)
	if t.Kind == ctypes.KindFloat {
		return math.Float64bits(float64(math.Float32frombits(uint32(raw))))
	}
	if t.IsSigned() && w < 8 {
		shift := uint(64 - 8*w)
		return uint64(int64(raw<<shift) >> shift)
	}
	return raw
}

// storeScalar writes a canonical register value of type t to addr.
func storeScalar(m *mem.Memory, addr uint64, t *ctypes.Type, v uint64) {
	w := scalarWidth(t)
	if t.Kind == ctypes.KindFloat {
		v = uint64(math.Float32bits(float32(math.Float64frombits(v))))
	}
	m.Store(addr, w, v)
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
