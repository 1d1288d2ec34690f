package simnet

import (
	"math"
	"testing"
)

// butterfly is the sequential-hop oracle the pipeline model is held against:
// the sum of the hops, each completing before the next forwards what it
// received. The hop vector is the caller's profile (ExchangeSchedule.HopBytes).
func (s Spec) butterfly(hopBytes []int64, msgCap int64) float64 {
	var t float64
	for _, b := range hopBytes {
		t += s.ButterflyHop(b, msgCap)
	}
	return t
}

// TestButterflyHop: empty hops cost one message latency; non-empty hops
// match PointToPoint at the capped message size.
func TestButterflyHop(t *testing.T) {
	s := Ray()
	if got := s.ButterflyHop(0, 4<<20); got != s.IB.Latency {
		t.Fatalf("empty hop = %g, want the message latency %g", got, s.IB.Latency)
	}
	const b = 6 << 20
	if got, want := s.ButterflyHop(b, 4<<20), s.PointToPoint(b, 4<<20); got != want {
		t.Fatalf("capped hop = %g, want %g", got, want)
	}
	// A hop below the cap packs into a single message.
	if got, want := s.ButterflyHop(1<<20, 4<<20), s.PointToPoint(1<<20, 1<<20); got != want {
		t.Fatalf("small hop = %g, want %g", got, want)
	}
}

// TestButterflySumsHops: the iteration time is the sum of sequential hops.
func TestButterflySumsHops(t *testing.T) {
	s := Ray()
	hops := []int64{1 << 20, 0, 3 << 20}
	var want float64
	for _, b := range hops {
		want += s.ButterflyHop(b, 4<<20)
	}
	if got := s.butterfly(hops, 4<<20); math.Abs(got-want) > 1e-15 {
		t.Fatalf("butterfly = %g, want %g", got, want)
	}
}

// TestButterflyCleanupHops: the generalized (non-power-of-two) butterfly
// prepends and appends a cleanup hop to the hypercube profile. The model is
// the same per-hop accounting — each cleanup hop is one more sequential
// round, and an idle round (no remainder traffic anywhere) still costs its
// synchronizing message latency.
func TestButterflyCleanupHops(t *testing.T) {
	s := Ray()
	const msgCap = 4 << 20
	// p=6 → q=4: pre + log2(4)=2 hypercube hops + post.
	hyper := []int64{512 << 10, 512 << 10}
	withCleanup := append(append([]int64{1 << 20}, hyper...), 1<<20)
	want := s.butterfly(hyper, msgCap) + s.ButterflyHop(1<<20, msgCap)*2
	if got := s.butterfly(withCleanup, msgCap); math.Abs(got-want) > 1e-15 {
		t.Fatalf("cleanup-hop profile = %g, want hypercube + 2 cleanup hops = %g", got, want)
	}
	// Idle cleanup hops degrade gracefully to pure latency.
	idle := []int64{0, 512 << 10, 512 << 10, 0}
	want = s.butterfly(hyper, msgCap) + 2*s.IB.Latency
	if got := s.butterfly(idle, msgCap); math.Abs(got-want) > 1e-15 {
		t.Fatalf("idle cleanup hops = %g, want %g", got, want)
	}
}

// TestButterflyBeatsAllPairsSmallMessages reproduces the regime the topology
// targets: the same total volume split into p−1 plateau-sized messages costs
// more than log2(p) aggregated hops, because the aggregated messages climb
// the §VI-A1 efficiency ramp and pay far fewer latencies.
func TestButterflyBeatsAllPairsSmallMessages(t *testing.T) {
	s := Ray()
	const (
		ranks = 32
		vol   = 256 << 10 // 256 kB per rank per iteration: 8 kB per all-pairs message
	)
	allPairs := s.PointToPoint(vol, vol/(ranks-1))
	// The butterfly relays: each of the log2(32)=5 hops carries roughly
	// half the per-rank aggregate (own volume plus relayed payloads).
	hops := make([]int64, 5)
	for i := range hops {
		hops[i] = vol / 2
	}
	butterfly := s.butterfly(hops, 4<<20)
	if butterfly >= allPairs {
		t.Fatalf("butterfly %g s not below all-pairs %g s in the plateau regime", butterfly, allPairs)
	}
}
