package core

import (
	"math/rand"

	"gemini/internal/dnn"
)

// Op identifies one of the five SA operators (paper Sec. V-B1).
type Op int

const (
	// OpPart (OP1) re-randomizes a layer's Part within its constraints.
	OpPart Op = iota
	// OpSwapIntra (OP2) swaps two cores within one layer's CG.
	OpSwapIntra
	// OpSwapInter (OP3) swaps a core between two layers' CGs.
	OpSwapInter
	// OpMove (OP4) moves a core from one CG to another and re-randomizes
	// both Parts to the new sizes.
	OpMove
	// OpFD (OP5) re-randomizes one explicit flow-of-data entry.
	OpFD
	numOps
)

// String names the operator as in the paper.
func (o Op) String() string {
	switch o {
	case OpPart:
		return "OP1-part"
	case OpSwapIntra:
		return "OP2-swap-intra"
	case OpSwapInter:
		return "OP3-swap-inter"
	case OpMove:
		return "OP4-move-core"
	case OpFD:
		return "OP5-flow"
	}
	return "op?"
}

// randomPart draws a uniformly random valid factorization of n workloads for
// the layer from the mutator's Rng, enumerating into its reusable buffer, or
// ok=false when none exists.
func (mu *Mutator) randomPart(l *dnn.Layer, batchUnit, n int) (Part, bool) {
	mu.parts = mu.parts[:0]
	forEachFactorization(l, batchUnit, n, func(p Part) { mu.parts = append(mu.parts, p) })
	if len(mu.parts) == 0 {
		return Part{}, false
	}
	return mu.parts[mu.Rng.Intn(len(mu.parts))], true
}

// Mutator applies the paper's five SA operators to one layer group of a
// scheme, in place. Drams is the controller count D (FD values range 0..D).
// The candidate lists an operator draws from are kept in the Mutator between
// calls, so a warmed-up Mutator applies operators without allocating.
type Mutator struct {
	Graph *dnn.Graph
	Drams int
	Rng   *rand.Rand

	parts []Part   // randomPart's factorizations
	idx   []int    // opSwapIntra's and opMove's candidate MS indices
	slots []fdSlot // opFD's explicit flow-of-data entries

	// changed[:nChanged] are the MS indices the last successful operator
	// changed; changedOF reports that it was an OP5 on an OF entry.
	changed   [2]int
	nChanged  int
	changedOF bool
}

// fdSlot names one explicit flow-of-data entry of a layer group.
type fdSlot struct {
	ms    int // index into the group's MSs
	which int // 0=IF 1=WGT 2=OF
}

// Apply picks a random operator and applies it to group lms, returning the
// operator used and whether the transformation succeeded (failed operators
// leave the group unchanged).
func (mu *Mutator) Apply(lms *LMS) (Op, bool) {
	op := Op(mu.Rng.Intn(int(numOps)))
	return op, mu.ApplyOp(lms, op)
}

// Changed returns the indices into the group's MSs that the last successful
// operator changed: one for OP1, OP2 and OP5, two for OP3 and OP4. Every other
// MS of the group is as it was. The slice is the Mutator's own and is
// overwritten by the next operator.
func (mu *Mutator) Changed() []int { return mu.changed[:mu.nChanged] }

// ChangedOF reports whether the last successful operator was an OP5 that
// changed an ofmap destination: the one change groups other than the mutated
// one can see, through where their inputs are fetched from.
func (mu *Mutator) ChangedOF() bool { return mu.changedOF }

// changes records the MS indices a successful operator changed.
func (mu *Mutator) changes(of bool, ms ...int) {
	mu.nChanged = copy(mu.changed[:], ms)
	mu.changedOF = of
}

// ApplyOp applies a specific operator.
func (mu *Mutator) ApplyOp(lms *LMS, op Op) bool {
	switch op {
	case OpPart:
		return mu.opPart(lms)
	case OpSwapIntra:
		return mu.opSwapIntra(lms)
	case OpSwapInter:
		return mu.opSwapInter(lms)
	case OpMove:
		return mu.opMove(lms)
	case OpFD:
		return mu.opFD(lms)
	}
	return false
}

// opPart (OP1): randomly select a layer and change the values in its Part,
// still satisfying the Part constraints.
func (mu *Mutator) opPart(lms *LMS) bool {
	i := mu.Rng.Intn(len(lms.MSs))
	ms := lms.MSs[i]
	l := mu.Graph.Layer(ms.Layer)
	p, ok := mu.randomPart(l, lms.BatchUnit, len(ms.CG))
	if !ok || p == ms.Part {
		return false
	}
	ms.Part = p
	mu.changes(false, i)
	return true
}

// opSwapIntra (OP2): randomly select a layer and swap two cores within its
// CG — exchanging the workloads of those two cores for a single layer.
func (mu *Mutator) opSwapIntra(lms *LMS) bool {
	candidates := mu.idx[:0]
	for i, ms := range lms.MSs {
		if len(ms.CG) >= 2 {
			candidates = append(candidates, i)
		}
	}
	mu.idx = candidates
	if len(candidates) == 0 {
		return false
	}
	i := candidates[mu.Rng.Intn(len(candidates))]
	ms := lms.MSs[i]
	a := mu.Rng.Intn(len(ms.CG))
	b := mu.Rng.Intn(len(ms.CG) - 1)
	if b >= a {
		b++
	}
	ms.CG[a], ms.CG[b] = ms.CG[b], ms.CG[a]
	mu.changes(false, i)
	return true
}

// opSwapInter (OP3): randomly select two layers and swap two cores between
// their CGs — exchanging the workloads of those cores across two layers.
func (mu *Mutator) opSwapInter(lms *LMS) bool {
	if len(lms.MSs) < 2 {
		return false
	}
	i := mu.Rng.Intn(len(lms.MSs))
	j := mu.Rng.Intn(len(lms.MSs) - 1)
	if j >= i {
		j++
	}
	mi, mj := lms.MSs[i], lms.MSs[j]
	a := mu.Rng.Intn(len(mi.CG))
	b := mu.Rng.Intn(len(mj.CG))
	mi.CG[a], mj.CG[b] = mj.CG[b], mi.CG[a]
	mu.changes(false, i, j)
	return true
}

// opMove (OP4): move a core from one layer's CG to another's and randomly
// update both Parts to match the new CG sizes.
func (mu *Mutator) opMove(lms *LMS) bool {
	if len(lms.MSs) < 2 {
		return false
	}
	// Donor must keep at least one core.
	donors := mu.idx[:0]
	for idx, ms := range lms.MSs {
		if len(ms.CG) >= 2 {
			donors = append(donors, idx)
		}
	}
	mu.idx = donors
	if len(donors) == 0 {
		return false
	}
	di := donors[mu.Rng.Intn(len(donors))]
	ri := mu.Rng.Intn(len(lms.MSs) - 1)
	if ri >= di {
		ri++
	}
	donor, recv := lms.MSs[di], lms.MSs[ri]
	dl := mu.Graph.Layer(donor.Layer)
	rl := mu.Graph.Layer(recv.Layer)

	dPart, ok := mu.randomPart(dl, lms.BatchUnit, len(donor.CG)-1)
	if !ok {
		return false
	}
	rPart, ok := mu.randomPart(rl, lms.BatchUnit, len(recv.CG)+1)
	if !ok {
		return false
	}
	pos := mu.Rng.Intn(len(donor.CG))
	moved := donor.CG[pos]
	donor.CG = append(donor.CG[:pos], donor.CG[pos+1:]...)
	ins := mu.Rng.Intn(len(recv.CG) + 1)
	recv.CG = append(recv.CG, 0)
	copy(recv.CG[ins+1:], recv.CG[ins:])
	recv.CG[ins] = moved
	donor.Part = dPart
	recv.Part = rPart
	mu.changes(false, di, ri)
	return true
}

// opFD (OP5): randomly select a layer, choose one of its non-negative FD
// items, and re-randomize it within [0, D].
func (mu *Mutator) opFD(lms *LMS) bool {
	slots := mu.slots[:0]
	for i, ms := range lms.MSs {
		if ms.FD.IF != FDImplicit {
			slots = append(slots, fdSlot{i, 0})
		}
		if ms.FD.WGT != FDImplicit {
			slots = append(slots, fdSlot{i, 1})
		}
		if ms.FD.OF != FDImplicit {
			slots = append(slots, fdSlot{i, 2})
		}
	}
	mu.slots = slots
	if len(slots) == 0 {
		return false
	}
	sl := slots[mu.Rng.Intn(len(slots))]
	v := mu.Rng.Intn(mu.Drams + 1) // 0 = interleave, 1..D = specific DRAM
	fd := &lms.MSs[sl.ms].FD
	switch sl.which {
	case 0:
		if fd.IF == v {
			return false
		}
		fd.IF = v
	case 1:
		if fd.WGT == v {
			return false
		}
		fd.WGT = v
	default:
		if fd.OF == v {
			return false
		}
		fd.OF = v
	}
	mu.changes(sl.which == 2, sl.ms)
	return true
}
