package lint

// All returns every analyzer in the suite, in stable name order. This is the
// set cmd/ftlint runs by default and CI enforces; adding an analyzer here
// enrolls it everywhere at once.
func All() []*Analyzer {
	return []*Analyzer{
		ErrDiscard,
		FloatCompare,
		GoroShutdown,
		HotAlloc,
		LoanEscape,
		Nondeterm,
		SeedPlumbing,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
