// Package baseline provides the comparison algorithms the paper measures
// against or analyzes (§II-B, §VI-C):
//
//   - SerialBFS: the single-threaded reference used to validate every
//     distributed run's hop distances.
//   - OneD: a conventional 1D-partitioned distributed BFS (no degree
//     separation) with exact communication-volume counting — the strawman
//     whose broadcast cost motivates the paper's design.
//   - TwoDModel: the §II-B analytical communication model of 2D-partitioned
//     (DO)BFS, fed with exact per-level frontier counts, reproducing the
//     8·nt·√p·log√p and 2·n·Sb·√p·log√p/8 volume formulas the paper argues
//     scale worse than its delegate reduction.
package baseline

import (
	"fmt"
	"math"

	"gcbfs/internal/graph"
)

// SerialBFS computes hop distances from source on a CSR graph using a
// classic two-queue BFS. Unreachable vertices get -1.
func SerialBFS(c *graph.CSR, source int64) []int32 {
	levels := make([]int32, c.N)
	for i := range levels {
		levels[i] = -1
	}
	if source < 0 || source >= c.N {
		return levels
	}
	levels[source] = 0
	cur := []int64{source}
	var next []int64
	for depth := int32(1); len(cur) > 0; depth++ {
		next = next[:0]
		for _, u := range cur {
			for _, v := range c.Neighbors(u) {
				if levels[v] == -1 {
					levels[v] = depth
					next = append(next, v)
				}
			}
		}
		cur, next = next, cur
	}
	return levels
}

// LevelSizes returns the number of vertices at each depth (n_t per
// iteration), the input to the 2D communication model.
func LevelSizes(levels []int32) []int64 {
	var max int32 = -1
	for _, l := range levels {
		if l > max {
			max = l
		}
	}
	sizes := make([]int64, max+1)
	for _, l := range levels {
		if l >= 0 {
			sizes[l]++
		}
	}
	return sizes
}

// OneDResult reports a 1D-partitioned BFS run.
type OneDResult struct {
	Levels     []int32
	Iterations int
	// CommBytes is the exact cross-processor discovery traffic: 8 bytes
	// per remotely discovered vertex id (64-bit ids, no degree
	// separation to narrow them).
	CommBytes int64
	// BroadcastBytes is the additional per-iteration frontier broadcast a
	// 1D DOBFS would need (newly visited ids to every peer, §II-B).
	BroadcastBytes int64
}

// OneD runs a functional 1D-partitioned BFS: vertices striped over p
// processors (v mod p), forward push only, discoveries exchanged
// all-to-all. directionOptimized additionally accounts the frontier
// broadcast volume a backward-capable 1D implementation must pay.
func OneD(c *graph.CSR, source int64, p int, directionOptimized bool) (*OneDResult, error) {
	if p <= 0 {
		return nil, fmt.Errorf("baseline: invalid processor count %d", p)
	}
	if source < 0 || source >= c.N {
		return nil, fmt.Errorf("baseline: source %d out of range", source)
	}
	res := &OneDResult{Levels: make([]int32, c.N)}
	for i := range res.Levels {
		res.Levels[i] = -1
	}
	owner := func(v int64) int { return int(v % int64(p)) }
	res.Levels[source] = 0
	cur := []int64{source}
	var next []int64
	for depth := int32(1); len(cur) > 0; depth++ {
		res.Iterations++
		if directionOptimized {
			// Every processor must learn the new frontier to run pulls:
			// 8 bytes per frontier vertex to each of the p-1 peers.
			res.BroadcastBytes += 8 * int64(len(cur)) * int64(p-1)
		}
		next = next[:0]
		for _, u := range cur {
			for _, v := range c.Neighbors(u) {
				if res.Levels[v] == -1 {
					res.Levels[v] = depth
					next = append(next, v)
					if owner(u) != owner(v) {
						res.CommBytes += 8
					}
				}
			}
		}
		cur, next = next, cur
	}
	return res, nil
}

// TwoDModelResult carries the §II-B analytical volumes for a concrete run.
type TwoDModelResult struct {
	P             int
	ForwardIters  int
	BackwardIters int
	// ForwardBytes = Σ_t 8·nt·√p·log₂√p over forward iterations.
	ForwardBytes int64
	// BackwardBytes = 2·n·Sb·√p·log₂√p / 8 (compressed bitmasks).
	BackwardBytes int64
}

// TotalBytes is the model's total communication volume.
func (r *TwoDModelResult) TotalBytes() int64 { return r.ForwardBytes + r.BackwardBytes }

// TwoDModel evaluates the paper's 2D-partitioning communication model on an
// actual BFS trace: levels from SerialBFS, a switch iteration (first
// backward iteration; pass len(levelSizes) to model pure forward BFS), and
// a square processor grid of p processors.
func TwoDModel(n int64, levelSizes []int64, switchIter, p int) (*TwoDModelResult, error) {
	if p <= 0 {
		return nil, fmt.Errorf("baseline: invalid processor count %d", p)
	}
	root := math.Sqrt(float64(p))
	if root != math.Trunc(root) {
		return nil, fmt.Errorf("baseline: 2D model needs a square processor count, got %d", p)
	}
	if switchIter < 0 {
		switchIter = 0
	}
	res := &TwoDModelResult{P: p}
	logRoot := math.Log2(root)
	if p == 1 {
		logRoot = 0
	}
	for t, nt := range levelSizes {
		if t < switchIter {
			res.ForwardIters++
			res.ForwardBytes += int64(8 * float64(nt) * root * logRoot)
		} else {
			res.BackwardIters++
		}
	}
	res.BackwardBytes = int64(2 * float64(n) * float64(res.BackwardIters) * root * logRoot / 8)
	return res, nil
}
