// Partition memo: a cell's DP graph partition is a function of its
// architecture, graph, batch and partitioner options, never of the SA seed,
// iterations or restarts. A session keeps each answer with its
// architecture's pool entry, so a reseeded sweep re-runs only the anneal.
package dse

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"gemini/internal/arch"
	"gemini/internal/dnn"
	"gemini/internal/eval"
	"gemini/internal/graphpart"
)

// warmArch is one architecture's entry in the session's evaluator pool: its
// warm evaluator and the partitions computed on it. The memo keeps groups
// and batch units, never a scheme — every cell anneals a scheme of its own,
// rebuilt by graphpart.BuildScheme — and it is dropped with its entry when
// the pool flushes.
type warmArch struct {
	ev *eval.Evaluator

	mu    sync.Mutex
	parts map[partKey]partAnswer
}

func newWarmArch(ev *eval.Evaluator) *warmArch {
	return &warmArch{ev: ev, parts: make(map[partKey]partAnswer)}
}

// partKey names one partition on its entry's architecture: the graph's
// structure, the batch and the effective partitioner options.
type partKey struct {
	graph          uint64
	batch          int
	maxGroupLayers int
	beta, gamma    uint64 // Float64bits, so every value is a usable key
	batchUnits     string
}

// partAnswer is what Partition answered for a key: the DP's groups, batch
// units and cost, or, with nil groups, that no partition fits.
type partAnswer struct {
	groups     [][]int
	batchUnits []int
	cost       float64
}

// cellRun is one call of the mapping pipeline: the pool entry the cell maps
// on, and whether the pipeline took the cell's partition from its memo.
type cellRun struct {
	*warmArch
	partitionReused bool
}

// partition returns the cell's DP partition. A memoized answer is rebuilt
// into a fresh scheme; an infeasible one is reported under the asking
// candidate's name, since configurations that differ only in name share an
// entry. A computed answer is kept unless Partition failed for any reason
// but infeasibility. Concurrent cells may compute one key twice; they store
// identical answers.
func (c *cellRun) partition(cfg *arch.Config, g *dnn.Graph, batch int, opt graphpart.Options) (*graphpart.Result, error) {
	key := partKey{
		graph: g.Fingerprint(), batch: batch, maxGroupLayers: opt.MaxGroupLayers,
		beta: math.Float64bits(opt.Beta), gamma: math.Float64bits(opt.Gamma),
		batchUnits: fmt.Sprint(opt.BatchUnits),
	}
	c.mu.Lock()
	ans, ok := c.parts[key]
	c.mu.Unlock()
	if ok {
		c.partitionReused = true
		if ans.groups == nil {
			return nil, fmt.Errorf("%w for %s on %s", graphpart.ErrInfeasible, g.Name, cfg.Name)
		}
		scheme, err := graphpart.BuildScheme(g, cfg, ans.groups, ans.batchUnits, batch)
		if err != nil {
			return nil, err
		}
		return &graphpart.Result{Scheme: scheme, Groups: ans.groups, BatchUnits: ans.batchUnits, Cost: ans.cost}, nil
	}
	part, err := graphpart.Partition(g, cfg, c.ev, batch, opt)
	switch {
	case err == nil:
		ans = partAnswer{groups: part.Groups, batchUnits: part.BatchUnits, cost: part.Cost}
	case !errors.Is(err, graphpart.ErrInfeasible):
		return nil, err
	}
	c.mu.Lock()
	c.parts[key] = ans
	c.mu.Unlock()
	return part, err
}
