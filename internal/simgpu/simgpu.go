// Package simgpu models the compute side of a GPU cluster node: device
// memory capacity and a kernel cost model for graph-traversal kernels.
//
// The paper's computation claims rest on *workload counts* (edges scanned,
// vertices filtered) and on the choice of load-balancing strategy per
// subgraph (§IV-A): merge-based workload partitioning for the dd subgraph
// (wide degree range, large average degree) and thread-warp-block (TWB)
// dynamic mapping for nd/dn/nn (bounded, low average degrees). We execute
// kernels functionally on the host and charge simulated time from the
// counted work through this model, calibrated to Tesla P100 throughput.
package simgpu

import "fmt"

// Strategy selects the load-balancing scheme a visit kernel uses.
type Strategy uint8

const (
	// MergePath is merge-based workload partitioning (Davidson et al.),
	// near-perfect balance over wildly skewed rows — used for dd.
	MergePath Strategy = iota
	// TWBDynamic is thread-warp-block dynamic workload mapping (Merrill
	// et al.) — used for nd, dn and nn, whose out-degree ranges are
	// bounded and small.
	TWBDynamic
)

func (s Strategy) String() string {
	if s == MergePath {
		return "merge-path"
	}
	return "twb-dynamic"
}

// Spec describes one GPU's capability. Rates are in operations per second;
// times in seconds.
type Spec struct {
	Name        string
	MemoryBytes int64

	// EdgeRateMerge/EdgeRateTWB are sustained edge-processing rates under
	// the two load-balancing strategies. Merge-path costs slightly more
	// setup per edge but never stalls on skew; TWB is cheaper per edge on
	// uniform rows but degrades with imbalance (see ImbalancePenalty).
	EdgeRateMerge float64
	EdgeRateTWB   float64

	// VertexRate covers per-vertex previsit work: level marking,
	// duplicate filtering, queue compaction, workload summation.
	VertexRate float64

	// KernelOverhead is the fixed launch + sync cost per kernel.
	KernelOverhead float64

	// ImbalancePenalty scales TWB cost by (1 + ImbalancePenalty·skew)
	// where skew = maxRowLen/avgRowLen - 1, clamped. Merge-path ignores
	// skew — that asymmetry is exactly why dd uses merge-path.
	ImbalancePenalty float64

	// CodecRate is the sustained throughput, in raw input bytes per
	// second, of the wire codec's pack/unpack kernels (varint delta,
	// bitmap scatter/gather). These kernels are memory-bound streaming
	// passes — a read-modify-write over the id arrays — so they run at a
	// fraction of HBM bandwidth, far above the edge-traversal rates but
	// well below free. 0 models the codec as free (the pre-costing
	// behaviour, and the right value for custom specs that predate the
	// codec model).
	CodecRate float64
}

// TeslaP100 returns the model calibrated to the paper's hardware: 16 GB
// HBM2, traversal throughput in the low billions of edges per second, and a
// few microseconds of launch overhead. Calibration targets the paper's
// single-node numbers (scale-24 DOBFS ≈ 23 GTEPS on one GPU, Table II).
func TeslaP100() Spec {
	return Spec{
		Name:             "Tesla P100",
		MemoryBytes:      16 << 30,
		EdgeRateMerge:    4.5e9,
		EdgeRateTWB:      5.5e9,
		VertexRate:       10.0e9,
		KernelOverhead:   4e-6,
		ImbalancePenalty: 0.15,
		// ~20% of the P100's 732 GB/s HBM2: one streaming read of the 4-byte
		// ids plus the packed write/read, matching the >100 GB/s GPU
		// varint/bitpack kernels reported in the literature.
		CodecRate: 150e9,
	}
}

// KernelCost is the simulated time charged for one kernel launch.
type KernelCost struct {
	Edges    int64
	Vertices int64
	Strategy Strategy
	Skew     float64 // maxRowLen/avgRowLen - 1; only TWB pays for it
}

// Time converts a kernel's counted work into seconds.
func (s *Spec) Time(c KernelCost) float64 {
	if c.Edges == 0 && c.Vertices == 0 {
		return 0 // kernel elided: no launch for empty input
	}
	t := s.KernelOverhead
	t += float64(c.Vertices) / s.VertexRate
	switch c.Strategy {
	case MergePath:
		t += float64(c.Edges) / s.EdgeRateMerge
	case TWBDynamic:
		skew := c.Skew
		if skew < 0 {
			skew = 0
		}
		if skew > 8 {
			skew = 8 // dynamic remapping bounds worst-case stalls
		}
		t += float64(c.Edges) * (1 + s.ImbalancePenalty*skew) / s.EdgeRateTWB
	default:
		panic(fmt.Sprintf("simgpu: unknown strategy %d", c.Strategy))
	}
	return t
}

// CodecTime converts raw bytes pushed through the wire codec's encode or
// decode kernels into seconds; zero when CodecRate is unset (codec modeled
// as free).
func (s Spec) CodecTime(bytes int64) float64 {
	if bytes <= 0 || s.CodecRate <= 0 {
		return 0
	}
	return float64(bytes) / s.CodecRate
}
