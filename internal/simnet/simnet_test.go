package simnet

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEfficiencyShape(t *testing.T) {
	s := Ray()
	const mb = 1 << 20
	// Peak at 4 MB (§VI-A1: "the optimal message size is about 4 MB").
	peak := s.Efficiency(4 * mb)
	for _, size := range []int64{128 << 10, 512 << 10, 1 * mb, 2 * mb, 8 * mb, 16 * mb} {
		if e := s.Efficiency(size); e > peak {
			t.Fatalf("efficiency(%d)=%.3f exceeds 4MB peak %.3f", size, e, peak)
		}
	}
	if peak != 1.0 {
		t.Fatalf("peak efficiency = %.3f, want 1.0", peak)
	}
	// Below 2 MB differences are small (the caching plateau).
	lo, hi := s.Efficiency(128<<10), s.Efficiency(2*mb)
	if hi-lo > 0.15 {
		t.Fatalf("small-message regime too steep: %.3f → %.3f", lo, hi)
	}
	// Decline past the optimum is mild.
	if e := s.Efficiency(16 * mb); e < 0.85 {
		t.Fatalf("16MB efficiency %.3f too low", e)
	}
}

func TestQuickEfficiencyBounds(t *testing.T) {
	s := Ray()
	f := func(size uint32) bool {
		e := s.Efficiency(int64(size))
		return e > 0 && e <= 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPointToPoint(t *testing.T) {
	s := Ray()
	if s.PointToPoint(0, 4<<20) != 0 {
		t.Fatal("zero bytes should cost zero")
	}
	// 1 GB in 4 MB messages ≈ 1e9/12.5e9 s plus latencies; must be within
	// 2× of the pure bandwidth bound.
	tm := s.PointToPoint(1<<30, 4<<20)
	bound := float64(1<<30) / s.IB.Bandwidth
	if tm < bound || tm > 2*bound {
		t.Fatalf("p2p time %g outside [%g, %g]", tm, bound, 2*bound)
	}
	// 4 MB messages beat 128 kB messages for bulk data (latency + eff).
	if s.PointToPoint(1<<30, 4<<20) >= s.PointToPoint(1<<30, 128<<10) {
		t.Fatal("4MB messages should beat 128kB for bulk transfers")
	}
}

func TestStagingOnlyWithoutRDMA(t *testing.T) {
	s := Ray()
	if s.Staging(1<<20) <= 0 {
		t.Fatal("Ray must charge staging copies")
	}
	s.GPUDirectRDMA = true
	if s.Staging(1<<20) != 0 {
		t.Fatal("RDMA fabric must not charge staging")
	}
}

func TestLocalReduceScalesWithGPUs(t *testing.T) {
	s := Ray()
	if s.LocalReduce(1<<20, 1) != 0 {
		t.Fatal("single GPU needs no local reduce")
	}
	r2 := s.LocalReduce(1<<20, 2)
	r4 := s.LocalReduce(1<<20, 4)
	if r4 <= r2 {
		t.Fatalf("4-GPU local reduce %g should exceed 2-GPU %g", r4, r2)
	}
	if s.LocalBroadcast(1<<20, 4) != r4 {
		t.Fatal("broadcast should mirror reduce")
	}
}

func TestAllreduceTreeGrowth(t *testing.T) {
	s := Ray()
	if s.Allreduce(1<<20, 1, true) != 0 {
		t.Fatal("1 rank needs no allreduce")
	}
	t2 := s.Allreduce(1<<20, 2, true)
	t16 := s.Allreduce(1<<20, 16, true)
	t64 := s.Allreduce(1<<20, 64, true)
	if !(t2 < t16 && t16 < t64) {
		t.Fatalf("allreduce not growing with ranks: %g %g %g", t2, t16, t64)
	}
	// log-ish growth: 64 ranks = 6 doublings ≤ 6× the 2-rank cost.
	if t64 > 6*t2*1.01 {
		t.Fatalf("allreduce growth superlogarithmic: t64=%g t2=%g", t64, t2)
	}
}

func TestIallreducePenalty(t *testing.T) {
	s := Ray()
	br := s.Allreduce(1<<20, 32, true)
	ir := s.Allreduce(1<<20, 32, false)
	if ir <= br {
		t.Fatalf("Iallreduce %g should be slower than Allreduce %g on Ray", ir, br)
	}
}

func TestLocalExchange(t *testing.T) {
	s := Ray()
	if s.LocalExchange(1<<20, 1) != 0 {
		t.Fatal("single GPU rank needs no local exchange")
	}
	if s.LocalExchange(1<<20, 4) <= 0 {
		t.Fatal("local exchange should cost time")
	}
}

// The net1 experiment's headline: sweeping message sizes for a fixed bulk
// volume, 4 MB minimizes transfer time.
func TestOptimalMessageSize(t *testing.T) {
	s := Ray()
	const volume = 256 << 20
	best, bestSize := 1e18, int64(0)
	for _, size := range []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20} {
		if tm := s.PointToPoint(volume, size); tm < best {
			best, bestSize = tm, size
		}
	}
	if bestSize != 4<<20 {
		t.Fatalf("optimal message size = %d, want 4MB", bestSize)
	}
}

// Efficiency's hoisted log2(3) is the same double the inline math.Log2(3)
// was: every size from 0 to 32 MiB maps to the identical bits.
func TestEfficiencyBitEqualToInlineExpression(t *testing.T) {
	inline := func(s Spec, msgBytes int64) float64 {
		const mb = 1 << 20
		b := float64(msgBytes)
		switch {
		case msgBytes <= 0:
			return s.SmallMsgPlateau
		case b <= 2*mb:
			f := math.Log2(1+b/float64(mb)) / math.Log2(3)
			return s.SmallMsgPlateau + 0.08*f
		case b <= 4*mb:
			f := (b - 2*mb) / (4*mb - 2*mb)
			return (s.SmallMsgPlateau + 0.08) + (1.0-(s.SmallMsgPlateau+0.08))*f
		case b <= 16*mb:
			f := (b - 4*mb) / (16*mb - 4*mb)
			return 1.0 - 0.08*f
		default:
			return 0.92
		}
	}
	s := Ray()
	sizes := []int64{-1, 0, 1, 2, 3, 7, 8, 63, 64, 1000, 4095, 4096}
	for b := int64(1 << 13); b <= 32<<20; b += 1<<13 - 1 { // odd stride: hits no boundary twice
		sizes = append(sizes, b)
	}
	for _, edge := range []int64{1 << 20, 2 << 20, 4 << 20, 16 << 20, 32 << 20} {
		sizes = append(sizes, edge-1, edge, edge+1)
	}
	for _, b := range sizes {
		got, want := s.Efficiency(b), inline(s, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Efficiency(%d) = %x, inline expression %x", b, math.Float64bits(got), math.Float64bits(want))
		}
	}
}
