package banvet

// Facts is a set of named dataflow facts — held lock keys for lockorder.
// The empty map (or nil) is the bottom element.
type Facts map[string]bool

// Clone returns an independent copy of f.
func (f Facts) Clone() Facts {
	out := make(Facts, len(f))
	for k := range f {
		out[k] = true
	}
	return out
}

// Union adds every fact in o to f and reports whether f grew.
func (f Facts) Union(o Facts) bool {
	grew := false
	for k := range o {
		if !f[k] {
			f[k] = true
			grew = true
		}
	}
	return grew
}

// Forward runs a forward may-dataflow analysis over the CFG to fixpoint
// and returns the entry fact set of every block. transfer takes a block
// and its entry facts and returns the block's exit facts; it must be
// monotone (never remove a fact that was present on entry unless the
// analysis is defined with kills, in which case convergence still holds
// because the fact lattice is finite and join is union).
//
// Merge at a join point is set union — a fact holds at block entry if it
// holds on ANY predecessor's exit — which is the conservative direction
// for lock tracking ("may be held").
// After the fixpoint, callers typically re-walk each block with its
// final entry facts to report diagnostics at specific nodes.
func Forward(c *CFG, entry Facts, transfer func(*Block, Facts) Facts) map[*Block]Facts {
	in := make(map[*Block]Facts, len(c.Blocks))
	for _, blk := range c.Blocks {
		in[blk] = Facts{}
	}
	in[c.Entry] = entry.Clone()

	// Chaotic iteration in block order; the graphs here are tiny
	// (single function bodies) so a worklist's bookkeeping would cost
	// more than it saves.
	for changed := true; changed; {
		changed = false
		for _, blk := range c.Blocks {
			out := transfer(blk, in[blk].Clone())
			for _, succ := range blk.Succs {
				if in[succ].Union(out) {
					changed = true
				}
			}
		}
	}
	return in
}
