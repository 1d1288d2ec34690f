package simgpu

import (
	"testing"
	"testing/quick"
)

func TestEmptyKernelIsFree(t *testing.T) {
	s := TeslaP100()
	if got := s.Time(KernelCost{}); got != 0 {
		t.Fatalf("empty kernel cost %g, want 0", got)
	}
}

func TestKernelOverheadApplies(t *testing.T) {
	s := TeslaP100()
	small := s.Time(KernelCost{Edges: 1, Strategy: MergePath})
	if small < s.KernelOverhead {
		t.Fatalf("1-edge kernel %g < launch overhead %g", small, s.KernelOverhead)
	}
}

func TestMergePathIgnoresSkew(t *testing.T) {
	s := TeslaP100()
	a := s.Time(KernelCost{Edges: 1e6, Strategy: MergePath, Skew: 0})
	b := s.Time(KernelCost{Edges: 1e6, Strategy: MergePath, Skew: 100})
	if a != b {
		t.Fatalf("merge-path cost depends on skew: %g vs %g", a, b)
	}
}

func TestTWBPaysForSkew(t *testing.T) {
	s := TeslaP100()
	balanced := s.Time(KernelCost{Edges: 1e6, Strategy: TWBDynamic, Skew: 0})
	skewed := s.Time(KernelCost{Edges: 1e6, Strategy: TWBDynamic, Skew: 4})
	if skewed <= balanced {
		t.Fatalf("TWB skew penalty missing: %g vs %g", skewed, balanced)
	}
	// Penalty is clamped: absurd skew must not diverge.
	extreme := s.Time(KernelCost{Edges: 1e6, Strategy: TWBDynamic, Skew: 1e9})
	capped := s.Time(KernelCost{Edges: 1e6, Strategy: TWBDynamic, Skew: 8})
	if extreme != capped {
		t.Fatalf("skew clamp missing: %g vs %g", extreme, capped)
	}
}

// This is the design rationale of §IV-A: on highly skewed rows (dd),
// merge-path beats TWB; on near-uniform rows (nn/nd/dn), TWB is no worse.
func TestStrategyChoiceRationale(t *testing.T) {
	s := TeslaP100()
	skewedMerge := s.Time(KernelCost{Edges: 1e7, Strategy: MergePath, Skew: 6})
	skewedTWB := s.Time(KernelCost{Edges: 1e7, Strategy: TWBDynamic, Skew: 6})
	if skewedMerge >= skewedTWB {
		t.Fatalf("merge-path should win on skew: %g vs %g", skewedMerge, skewedTWB)
	}
	uniformMerge := s.Time(KernelCost{Edges: 1e7, Strategy: MergePath, Skew: 0})
	uniformTWB := s.Time(KernelCost{Edges: 1e7, Strategy: TWBDynamic, Skew: 0})
	if uniformTWB >= uniformMerge {
		t.Fatalf("TWB should win on uniform rows: %g vs %g", uniformTWB, uniformMerge)
	}
}

func TestQuickTimeMonotonicInWork(t *testing.T) {
	s := TeslaP100()
	f := func(edges uint32, extra uint16, strat bool) bool {
		st := TWBDynamic
		if strat {
			st = MergePath
		}
		a := s.Time(KernelCost{Edges: int64(edges) + 1, Strategy: st})
		b := s.Time(KernelCost{Edges: int64(edges) + 1 + int64(extra), Strategy: st})
		return b >= a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFitsMemory(t *testing.T) {
	s := TeslaP100()
	if !s.FitsMemory(10 << 30) {
		t.Fatal("10 GB should fit in 16 GB")
	}
	if s.FitsMemory(15<<30 + 1<<29) {
		t.Fatal("15.5 GB should not fit (headroom)")
	}
}

// Calibration guard: one P100 traversing a scale-24 RMAT workload with the
// DO-reduced edge count should land in the paper's single-GPU ballpark
// (~23 GTEPS, Table II row 1). We allow a ±2× band — the reproduction
// targets shape, not exact numbers — but a regression that moves the model
// an order of magnitude breaks every figure downstream.
func TestCalibrationSingleGPUBallpark(t *testing.T) {
	s := TeslaP100()
	scale := 24
	m2 := int64(1<<uint(scale)) * 16 // TEPS edge count m/2
	// DOBFS on RMAT touches roughly m/8 edges (direction switch skips the
	// dense core); ~8 iterations of kernels on 2 streams.
	workEdges := int64(float64(2*m2) / 8)
	n := int64(1 << uint(scale))
	seconds := s.Time(KernelCost{Edges: workEdges, Vertices: n / 4, Strategy: MergePath})
	gteps := float64(m2) / seconds / 1e9
	if gteps < 11 || gteps > 46 {
		t.Fatalf("single-GPU calibration: %.1f GTEPS, want 11–46 (paper: 22.9)", gteps)
	}
}

// FitsMemory reports whether bytes of graph storage fit in device memory,
// leaving headroom for frontiers, masks and staging buffers. No library
// path uses it; it stays as the subject of TestFitsMemory.
func (s Spec) FitsMemory(bytes int64) bool {
	const headroom = 1 << 30 // 1 GB working set
	return bytes+headroom <= s.MemoryBytes
}
