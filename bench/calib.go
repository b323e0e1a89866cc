package main

import "time"

// calibRefS is the reference calibration time in seconds. Every timing
// the benchmark reports is in reference seconds: raw seconds scaled by
// calibRefS over the mean kernel time of their pass (localScale). It is
// fixed here, not measured, so both sides of a comparison share it.
const calibRefS = 0.01

// calibWords is the calibration buffer size in 64-bit words (32 MiB):
// large enough that random reads miss the caches, like the simulated
// memory and layout tables of a big workload do.
const calibWords = 32 << 20 / 8

// calibOps is the length of the calibration kernel's instruction stream,
// and calibReps how often one kernel call runs it.
const (
	calibOps  = 4096
	calibReps = 80
)

// calibKernel is a fixed amount of CPU work whose time tracks the speed
// the machine currently gives this process. It imports nothing from the
// repository, so no change to the system under test can move it; what
// moves it is the machine: CPU frequency and cache, memory and branch
// predictor contention from neighbours, and the Go runtime's allocation
// and GC cost. It is a small register interpreter over a random
// instruction stream — unpredictable dispatch, random reads over 32 MiB,
// small-object map stores and loads, xorshift hashing and short-lived
// heap frames — because the system under test is an interpreter too: on
// a shared 2-vCPU machine its run time over ~8 s windows correlated 0.91
// with this kernel's and 0.28 with a plain hash-and-read loop's.
type calibKernel struct {
	buf  []uint64
	code []calibOp
	sink uint64
}

type calibOp struct {
	op, a, b uint8
	imm      uint64
}

// calibFrame is the short-lived heap object the kernel allocates, as the
// interpreter allocates frames and the runtime metadata.
type calibFrame struct {
	regs [16]uint64
	next *calibFrame
}

func newCalibKernel() *calibKernel {
	k := &calibKernel{buf: make([]uint64, calibWords), code: make([]calibOp, calibOps)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range k.buf {
		x = xorshift(x)
		k.buf[i] = x
	}
	for i := range k.code {
		x = xorshift(x)
		k.code[i] = calibOp{op: uint8(x % 8), a: uint8(x >> 8 % 16), b: uint8(x >> 16 % 16), imm: x >> 24}
	}
	return k
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run executes the kernel once and returns its wall time.
func (k *calibKernel) run() time.Duration {
	start := time.Now()
	var regs [16]uint64
	m := make(map[uint64]uint64)
	var fr *calibFrame
	for rep := 0; rep < calibReps; rep++ {
		for i := range k.code {
			in := &k.code[i]
			switch in.op {
			case 0:
				regs[in.a] += regs[in.b] + in.imm
			case 1:
				regs[in.a] = xorshift(regs[in.b] | 1)
			case 2:
				regs[in.a] = k.buf[(regs[in.b]+in.imm)&(calibWords-1)]
			case 3:
				m[regs[in.b]&1023] = regs[in.a]
			case 4:
				regs[in.a] = m[regs[in.b]&1023]
			case 5:
				f := &calibFrame{regs: regs, next: fr}
				fr = f
				if rep%4 == 0 {
					fr = nil
				}
			case 6:
				if regs[in.a]&1 == 0 {
					regs[in.b]++
				} else {
					regs[in.b]--
				}
			case 7:
				regs[in.a] *= regs[in.b] | 1
			}
		}
	}
	k.sink = regs[0] + uint64(len(m))
	if fr != nil {
		k.sink += fr.regs[1]
	}
	return time.Since(start)
}
