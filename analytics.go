package gcbfs

// Beyond-BFS analytics on the same degree-separated substrate — the paper's
// §VI-D generalization: delegates carry richer per-vertex state (float64
// ranks, int64 labels) reduced globally, while normal vertices exchange
// (id, value) pairs instead of bare ids. Like BFS queries, these run against
// the Service's shared partition.

import (
	"gcbfs/internal/concomp"
	"gcbfs/internal/pagerank"
)

// PageRankOptions tunes the PageRank computation.
type PageRankOptions struct {
	// Damping is the teleport parameter (default 0.85).
	Damping float64
	// MaxIterations bounds the run (default 20).
	MaxIterations int
	// Tolerance stops early once the L1 delta drops below it (0: run all
	// iterations).
	Tolerance float64
}

// PageRankResult reports a PageRank run on the simulated cluster.
type PageRankResult struct {
	// Ranks holds one score per vertex; scores sum to 1.
	Ranks      []float64
	Iterations int
	SimSeconds float64
	// BytesNormal/BytesDelegate illustrate the §VI-D traffic growth over
	// BFS (12-byte pairs and 8-byte delegate slots vs 4 bytes and 1 bit).
	BytesNormal   int64
	BytesDelegate int64
}

// PageRank runs distributed PageRank over the service's partitioned graph.
func (s *Service) PageRank(opts PageRankOptions) (*PageRankResult, error) {
	po := pagerank.DefaultOptions()
	if opts.Damping > 0 {
		po.Damping = opts.Damping
	}
	if opts.MaxIterations > 0 {
		po.MaxIterations = opts.MaxIterations
	}
	po.Tolerance = opts.Tolerance
	po.WorkAmplification = s.cfg.WorkAmplification
	res, err := pagerank.Run(s.sub, s.cfg.Cluster.shape(), po)
	if err != nil {
		return nil, err
	}
	return &PageRankResult{
		Ranks:         res.Ranks,
		Iterations:    res.Iterations,
		SimSeconds:    res.SimSeconds,
		BytesNormal:   res.BytesNormal,
		BytesDelegate: res.BytesDelegate,
	}, nil
}

// ComponentsResult reports a connected-components run.
type ComponentsResult struct {
	// Labels maps every vertex to its component id — the smallest vertex
	// id in the component.
	Labels     []int64
	Iterations int
	Converged  bool
	SimSeconds float64
}

// Components runs distributed connected components (min-label propagation)
// over the service's partitioned graph. maxIterations ≤ 0 selects a default
// budget; high-diameter graphs need roughly their diameter in iterations.
func (s *Service) Components(maxIterations int) (*ComponentsResult, error) {
	co := concomp.DefaultOptions()
	if maxIterations > 0 {
		co.MaxIterations = maxIterations
	}
	co.WorkAmplification = s.cfg.WorkAmplification
	res, err := concomp.Run(s.sub, s.cfg.Cluster.shape(), co)
	if err != nil {
		return nil, err
	}
	return &ComponentsResult{
		Labels:     res.Labels,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		SimSeconds: res.SimSeconds,
	}, nil
}
