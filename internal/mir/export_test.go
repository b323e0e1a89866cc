package mir

// RunSteps is Run, also returning the number of instructions the Run
// executed.
func (in *Interp) RunSteps(fn string, args ...uint64) (res, steps uint64, err error) {
	return in.run(fn, args)
}
