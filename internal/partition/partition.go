// Package partition implements the paper's graph representation (§III):
// separation of vertices into delegates (out-degree > TH, replicated on
// every GPU) and normal vertices (owned by exactly one GPU), the
// deterministic edge distributor of Algorithm 1, the four per-GPU subgraphs
// (nn, nd, dn, dd) with 32-bit local indices, and the Table-I memory
// accounting that makes the representation about one third the size of a
// conventional edge list.
package partition

import (
	"fmt"

	"gcbfs/internal/graph"
)

// Config fixes the cluster shape for partitioning purposes: the number of
// MPI ranks (p_rank) and GPUs per rank (p_gpu). Vertex ownership follows the
// paper's layout: P(v) = v mod p_rank, G(v) = (v / p_rank) mod p_gpu.
type Config struct {
	Ranks       int // p_rank
	GPUsPerRank int // p_gpu
}

// P returns the total GPU count p = p_rank * p_gpu.
func (c Config) P() int { return c.Ranks * c.GPUsPerRank }

// Validate checks the configuration is usable.
func (c Config) Validate() error {
	if c.Ranks <= 0 || c.GPUsPerRank <= 0 {
		return fmt.Errorf("partition: invalid config %d ranks × %d gpus", c.Ranks, c.GPUsPerRank)
	}
	return nil
}

// OwnerRank returns P(v) = v mod p_rank.
func (c Config) OwnerRank(v int64) int { return int(v % int64(c.Ranks)) }

// OwnerSlot returns G(v) = (v / p_rank) mod p_gpu, the GPU index within the
// owning rank.
func (c Config) OwnerSlot(v int64) int {
	return int((v / int64(c.Ranks)) % int64(c.GPUsPerRank))
}

// GPUIndex flattens (rank, slot) into a global GPU id in [0, P).
func (c Config) GPUIndex(rank, slot int) int { return rank*c.GPUsPerRank + slot }

// OwnerGPU returns the global GPU id owning vertex v.
func (c Config) OwnerGPU(v int64) int {
	return c.GPUIndex(c.OwnerRank(v), c.OwnerSlot(v))
}

// LocalID returns the local slot of v on its owner GPU: v / p. Local ids fit
// in 32 bits for every graph the system targets (n/p ≤ 2^31), which is what
// shrinks the nd/dn/dd column indices to 4 bytes (Table I).
func (c Config) LocalID(v int64) uint32 { return uint32(v / int64(c.P())) }

// GlobalID inverts LocalID for the GPU identified by (rank, slot):
// v = local*p + (rank + p_rank*slot).
func (c Config) GlobalID(local uint32, rank, slot int) int64 {
	return int64(local)*int64(c.P()) + int64(rank) + int64(c.Ranks)*int64(slot)
}

// Residue returns the vertex residue class owned by (rank, slot).
func (c Config) Residue(rank, slot int) int64 {
	return int64(rank) + int64(c.Ranks)*int64(slot)
}

// LocalCount returns the number of local vertex slots on (rank, slot):
// the size of level arrays and nn/nd row spaces on that GPU (≈ n/p).
func (c Config) LocalCount(n int64, rank, slot int) int64 {
	res := c.Residue(rank, slot)
	if res >= n {
		return 0
	}
	return (n-1-res)/int64(c.P()) + 1
}

// Separation is the outcome of degree separation at a given threshold TH
// (§III-A): vertices with out-degree > TH become delegates with dense ids
// 0..D-1 (in ascending order of global id); everything else stays normal.
type Separation struct {
	Threshold int64
	N         int64
	OutDeg    []int64 // out-degree of every global vertex
	// DelegateID[v] is the dense delegate id of v, or -1 if v is normal.
	DelegateID []int32
	// DelegateGlobal[d] is the global vertex id of delegate d.
	DelegateGlobal []int64
}

// Separate computes out-degrees and splits vertices at threshold th.
func Separate(el *graph.EdgeList, th int64) *Separation {
	return SeparateDegrees(el.OutDegrees(), th)
}

// SeparateDegrees splits vertices at threshold th given every vertex's
// out-degree, which the Separation keeps: a caller that counted the degrees
// already (to pick th from them) does not count them again.
func SeparateDegrees(deg []int64, th int64) *Separation {
	n := int64(len(deg))
	s := &Separation{Threshold: th, N: n, OutDeg: deg, DelegateID: make([]int32, n)}
	for v := int64(0); v < n; v++ {
		if deg[v] > th {
			s.DelegateID[v] = int32(len(s.DelegateGlobal))
			s.DelegateGlobal = append(s.DelegateGlobal, v)
		} else {
			s.DelegateID[v] = -1
		}
	}
	return s
}

// D returns the number of delegates.
func (s *Separation) D() int64 { return int64(len(s.DelegateGlobal)) }

// IsDelegate reports whether global vertex v is a delegate.
func (s *Separation) IsDelegate(v int64) bool { return s.DelegateID[v] >= 0 }

// SuggestThreshold picks the degree threshold the way §VI-B tunes it: the
// smallest power-of-√2 TH whose delegate count stays at or below
// maxDelegates (the paper keeps d under 4n/p). Larger TH also shrinks the
// delegate mask but grows the nn share; the paper's sweeps (Figs. 6/13) show
// a wide near-optimal plateau, so the d-bound is the binding constraint.
func SuggestThreshold(outDeg []int64, maxDelegates int64) int64 {
	var maxDeg int64
	for _, d := range outDeg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	countAbove := func(th int64) int64 {
		var c int64
		for _, d := range outDeg {
			if d > th {
				c++
			}
		}
		return c
	}
	th := int64(1)
	step := false // alternate ×2 and ×1.5 ≈ √2 growth on average
	for th < maxDeg {
		if countAbove(th) <= maxDelegates {
			return th
		}
		if step {
			th = th * 3 / 2
		} else {
			th *= 2
		}
		step = !step
	}
	return th
}
