package mir

// Unfuse re-decodes in's program without fused op pairs, as a hooked
// interpreter runs it, so tests can compare the two executors.
func Unfuse(in *Interp) { in.funcs = decode(in.prog, false) }
