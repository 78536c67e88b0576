package isa

import (
	"fmt"

	"gemini/internal/arch"
)

// Stats summarizes a functional execution of a program.
type Stats struct {
	Executed int
	// Per-core byte totals.
	Loaded   map[arch.CoreID]float64 // activation loads
	Weights  map[arch.CoreID]float64 // weight loads
	Received map[arch.CoreID]float64
	Sent     map[arch.CoreID]float64
	Stored   map[arch.CoreID]float64
	// DRAMRead/DRAMWrite aggregate per controller (-1 interleave counts
	// as its own bucket).
	DRAMRead  map[int]float64
	DRAMWrite map[int]float64
	// PeakGLB is the largest resident byte count observed per core
	// (weights + buffered inbound payloads).
	PeakGLB map[arch.CoreID]float64
}

// Run executes the program functionally: cores advance round-robin, a RECV
// blocks until its matching SEND has executed. It returns execution
// statistics or an error on deadlock or on malformed send/recv pairing.
func Run(p *Program) (*Stats, error) {
	st := &Stats{
		Loaded:    map[arch.CoreID]float64{},
		Weights:   map[arch.CoreID]float64{},
		Received:  map[arch.CoreID]float64{},
		Sent:      map[arch.CoreID]float64{},
		Stored:    map[arch.CoreID]float64{},
		DRAMRead:  map[int]float64{},
		DRAMWrite: map[int]float64{},
		PeakGLB:   map[arch.CoreID]float64{},
	}
	pc := map[arch.CoreID]int{}
	resident := map[arch.CoreID]float64{}
	inFlight := map[int]float64{} // tag -> bytes sent, awaiting recv

	cores := make([]arch.CoreID, 0, len(p.Streams))
	for c := range p.Streams {
		cores = append(cores, c)
	}
	// Deterministic order.
	for i := 1; i < len(cores); i++ {
		for j := i; j > 0 && cores[j] < cores[j-1]; j-- {
			cores[j], cores[j-1] = cores[j-1], cores[j]
		}
	}

	bump := func(c arch.CoreID, delta float64) {
		resident[c] += delta
		if resident[c] > st.PeakGLB[c] {
			st.PeakGLB[c] = resident[c]
		}
	}

	total := p.Len()
	for st.Executed < total {
		progressed := false
		for _, c := range cores {
			stream := p.Streams[c]
			for pc[c] < len(stream) {
				in := stream[pc[c]]
				if in.Op == OpRecv {
					bytes, ok := inFlight[in.Tag]
					if !ok {
						break // sender not there yet; try another core
					}
					if bytes != in.Bytes {
						return nil, fmt.Errorf("isa: tag %d: recv expects %.0f bytes, send carried %.0f", in.Tag, in.Bytes, bytes)
					}
					delete(inFlight, in.Tag)
					st.Received[c] += in.Bytes
					bump(c, in.Bytes)
				} else {
					switch in.Op {
					case OpLoad:
						if in.Weights {
							st.Weights[c] += in.Bytes
						} else {
							st.Loaded[c] += in.Bytes
						}
						st.DRAMRead[in.Ctrl] += in.Bytes
						bump(c, in.Bytes)
					case OpSend:
						if _, dup := inFlight[in.Tag]; dup {
							return nil, fmt.Errorf("isa: duplicate send tag %d", in.Tag)
						}
						inFlight[in.Tag] = in.Bytes
						st.Sent[c] += in.Bytes
					case OpStore:
						st.Stored[c] += in.Bytes
						st.DRAMWrite[in.Ctrl] += in.Bytes
						bump(c, -in.Bytes)
					case OpCompute:
						// Functional model: compute frees inbound
						// activations and materializes outputs in place.
					default:
						return nil, fmt.Errorf("isa: unknown opcode %v", in.Op)
					}
				}
				pc[c]++
				st.Executed++
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("isa: deadlock after %d of %d instructions", st.Executed, total)
		}
	}
	if len(inFlight) != 0 {
		return nil, fmt.Errorf("isa: %d sends were never received", len(inFlight))
	}
	return st, nil
}
