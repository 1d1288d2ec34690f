package dense_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"gcbfs/internal/concomp"
	"gcbfs/internal/core"
	"gcbfs/internal/graph"
	"gcbfs/internal/pagerank"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
)

// No rank of a dense program has a goroutine of its own: on 32 ranks every
// phase of every iteration of PageRank and of connected components runs on the
// caller and the phase driver's workers. A sampler goroutine reads
// runtime.NumGoroutine throughout each run, whose phases fan out (the graph
// has fanWork vertices).
func TestNoGoroutinePerRank(t *testing.T) {
	shape := core.ClusterShape{Nodes: 16, RanksPerNode: 2, GPUsPerRank: 2}
	el := rmat.Generate(rmat.DefaultParams(13))
	sg, err := partition.Distribute(el, partition.Separate(el, 16), shape.PartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"pagerank": func() error {
			opts := pagerank.DefaultOptions()
			opts.MaxIterations = 4
			_, err := pagerank.Run(sg, shape, opts)
			return err
		},
		"concomp": func() error {
			_, err := concomp.Run(sg, shape, concomp.DefaultOptions())
			return err
		},
	} {
		var peak atomic.Int64
		var stop atomic.Bool
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			for !stop.Load() {
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
				runtime.Gosched()
			}
		}()
		before := int64(runtime.NumGoroutine()) // the sampler's included
		err := run()
		stop.Store(true)
		<-stopped
		if err != nil {
			t.Fatal(err)
		}
		if limit := before + int64(graph.BuildWorkers()) - 1; peak.Load() > limit {
			t.Errorf("%s: %d goroutines during the run, want at most %d (%d before it, %d workers)",
				name, peak.Load(), limit, before, graph.BuildWorkers())
		}
	}
}
