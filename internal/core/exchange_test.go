package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// runExchange executes one run with the given strategy and full result
// collection.
func runExchange(t *testing.T, e *Plan, src int64) *metrics.RunResult {
	t.Helper()
	res, err := e.Run(context.Background(), src, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireIdentical asserts two runs agree bit-for-bit on levels and parents.
func requireIdentical(t *testing.T, label string, a, b *metrics.RunResult) {
	t.Helper()
	if a.Iterations != b.Iterations {
		t.Fatalf("%s: iterations %d vs %d", label, a.Iterations, b.Iterations)
	}
	for v := range a.Levels {
		if a.Levels[v] != b.Levels[v] {
			t.Fatalf("%s: vertex %d level %d vs %d", label, v, a.Levels[v], b.Levels[v])
		}
	}
	if (a.Parents == nil) != (b.Parents == nil) {
		t.Fatalf("%s: parents collected on one side only", label)
	}
	for v := range a.Parents {
		if a.Parents[v] != b.Parents[v] {
			t.Fatalf("%s: vertex %d parent %d vs %d", label, v, a.Parents[v], b.Parents[v])
		}
	}
	if a.EdgesScanned != b.EdgesScanned {
		t.Fatalf("%s: edges scanned %d vs %d", label, a.EdgesScanned, b.EdgesScanned)
	}
}

// TestExchangeEquivalence: across scales, cluster shapes (power-of-two and
// non-power-of-two rank counts) and compression modes, the butterfly
// produces levels and parents bit-identical to all-pairs — there is no
// fallback anymore, the generalized butterfly runs everywhere.
func TestExchangeEquivalence(t *testing.T) {
	scales := []int{10, 13}
	if !testing.Short() {
		scales = append(scales, 16)
	}
	shapes := []ClusterShape{
		{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}, // 4 ranks
		{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 1}, // 8 ranks
		{Nodes: 3, RanksPerNode: 1, GPUsPerRank: 2}, // 3 ranks → cleanup hops
	}
	modes := []wire.Mode{wire.ModeOff, wire.ModeAdaptive}

	for _, scale := range scales {
		el := rmat.Generate(rmat.DefaultParams(scale))
		// Tight delegate cap so the normal exchange carries real volume.
		th := partition.SuggestThreshold(el.OutDegrees(), el.N/8)
		src := pickSources(el.OutDegrees(), 1, 42)[0]
		for _, shape := range shapes {
			for _, mode := range modes {
				for _, uniq := range []bool{false, true} {
					if uniq && mode == wire.ModeOff {
						continue // covered by existing uniquify tests
					}
					label := fmt.Sprintf("scale=%d shape=%s mode=%v uniq=%v", scale, shape, mode, uniq)
					opts := DefaultOptions()
					opts.Compression = mode
					opts.Uniquify = uniq
					opts.CollectParents = true
					ap := opts
					ap.Exchange = ExchangeAllPairs
					bf := opts
					bf.Exchange = ExchangeButterfly
					ra := runExchange(t, buildPlan(t, el, shape, th, ap), src)
					rb := runExchange(t, buildPlan(t, el, shape, th, bf), src)
					requireIdentical(t, label, ra, rb)
					if ra.Exchange.Strategy != "allpairs" || ra.Exchange.ButterflyIterations != 0 {
						t.Fatalf("%s: all-pairs run reported %q with %d butterfly iterations", label,
							ra.Exchange.Strategy, ra.Exchange.ButterflyIterations)
					}
					if rb.Exchange.Strategy != "butterfly" || rb.Exchange.AllPairsIterations != 0 {
						t.Fatalf("%s: butterfly run reported %q with %d all-pairs iterations", label,
							rb.Exchange.Strategy, rb.Exchange.AllPairsIterations)
					}
					if got := int64(rb.Iterations); rb.Exchange.ButterflyIterations != got {
						t.Fatalf("%s: butterfly iterations %d, want %d", label,
							rb.Exchange.ButterflyIterations, got)
					}
					// What the ranks originate does not depend on who relays it:
					// multisets with the codec off, sets with it on, a relay's
					// union absorbing forwarded ids only (exchange_sets_test.go
					// holds this per rank and superstep).
					if oa, ob := ra.Wire.RawBytes-ra.Exchange.ForwardedBytes, rb.Wire.RawBytes-rb.Exchange.ForwardedBytes; oa != ob || ra.Exchange.ForwardedBytes != 0 || rb.Exchange.ForwardedBytes < 0 {
						t.Fatalf("%s: originated %d B under all-pairs (forwarded %d), %d B under butterfly (forwarded %d)", label,
							oa, ra.Exchange.ForwardedBytes, ob, rb.Exchange.ForwardedBytes)
					}
				}
			}
		}
	}
}

// TestButterflyNonPowerOfTwo is the generalized-butterfly property test: for
// every remainder shape p ∈ {3, 5, 6, 7, 12} across scales 10–14 and
// compression modes, the two-phase (cleanup hops + hypercube) exchange is
// bit-identical to all-pairs on levels AND parents, runs as a butterfly on
// every iteration, and actually relays bytes.
func TestButterflyNonPowerOfTwo(t *testing.T) {
	shapes := []ClusterShape{
		{Nodes: 3, RanksPerNode: 1, GPUsPerRank: 1}, // 3 ranks, q=2
		{Nodes: 5, RanksPerNode: 1, GPUsPerRank: 1}, // 5 ranks, q=4
		{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 2}, // 6 ranks, q=4
		{Nodes: 7, RanksPerNode: 1, GPUsPerRank: 1}, // 7 ranks, q=4 (max remainder)
		{Nodes: 6, RanksPerNode: 2, GPUsPerRank: 1}, // 12 ranks, q=8
	}
	scales := []int{10, 12, 14}
	if testing.Short() {
		scales = []int{10, 12}
	}
	modes := []wire.Mode{wire.ModeOff, wire.ModeAdaptive}

	for _, scale := range scales {
		el := rmat.Generate(rmat.DefaultParams(scale))
		th := partition.SuggestThreshold(el.OutDegrees(), el.N/8)
		src := pickSources(el.OutDegrees(), 1, 7)[0]
		for _, shape := range shapes {
			for _, mode := range modes {
				label := fmt.Sprintf("scale=%d shape=%s mode=%v", scale, shape, mode)
				opts := DefaultOptions()
				opts.Compression = mode
				opts.CollectParents = true
				ap := opts
				ap.Exchange = ExchangeAllPairs
				bf := opts
				bf.Exchange = ExchangeButterfly
				ra := runExchange(t, buildPlan(t, el, shape, th, ap), src)
				rb := runExchange(t, buildPlan(t, el, shape, th, bf), src)
				requireIdentical(t, label, ra, rb)
				if rb.Exchange.Strategy != "butterfly" || rb.Exchange.AllPairsIterations != 0 {
					t.Fatalf("%s: expected pure butterfly, got %q with %d all-pairs iterations",
						label, rb.Exchange.Strategy, rb.Exchange.AllPairsIterations)
				}
				if rb.Exchange.ForwardedBytes <= 0 {
					t.Fatalf("%s: butterfly forwarded no bytes", label)
				}
				if ra.Exchange.Messages <= rb.Exchange.Messages {
					t.Fatalf("%s: butterfly sent %d messages, not fewer than all-pairs' %d",
						label, rb.Exchange.Messages, ra.Exchange.Messages)
				}
			}
		}
	}
}

// TestHybridMixedSchedule: under amplification the hybrid policy must
// actually mix strategies within single runs (butterfly on latency-bound
// iterations, all-pairs on volume-bound ones) while staying bit-identical
// to both fixed policies — the per-iteration-mixed-schedule property.
func TestHybridMixedSchedule(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(13))
	th := partition.SuggestThreshold(el.OutDegrees(), el.N/8)
	srcs := pickSources(el.OutDegrees(), 2, 99)
	shapes := []ClusterShape{
		{Nodes: 8, RanksPerNode: 2, GPUsPerRank: 1}, // 16 ranks
		{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 1}, // 6 ranks (cleanup hops)
	}
	for _, shape := range shapes {
		var mixed bool
		for _, src := range srcs {
			for _, mode := range []wire.Mode{wire.ModeOff, wire.ModeAdaptive} {
				label := fmt.Sprintf("shape=%s mode=%v src=%d", shape, mode, src)
				opts := DefaultOptions()
				opts.Compression = mode
				opts.CollectParents = true
				opts.WorkAmplification = 1 << 12
				hy := opts
				hy.Exchange = ExchangeHybrid
				ap := opts
				ap.Exchange = ExchangeAllPairs
				bf := opts
				bf.Exchange = ExchangeButterfly
				rh := runExchange(t, buildPlan(t, el, shape, th, hy), src)
				requireIdentical(t, label+" vs allpairs", runExchange(t, buildPlan(t, el, shape, th, ap), src), rh)
				requireIdentical(t, label+" vs butterfly", runExchange(t, buildPlan(t, el, shape, th, bf), src), rh)
				if rh.Exchange.Strategy != "hybrid" {
					t.Fatalf("%s: strategy %q, want hybrid", label, rh.Exchange.Strategy)
				}
				x := rh.Exchange
				if x.AllPairsIterations+x.ButterflyIterations != int64(rh.Iterations) {
					t.Fatalf("%s: iteration split %d+%d does not cover %d iterations",
						label, x.AllPairsIterations, x.ButterflyIterations, rh.Iterations)
				}
				if x.AllPairsIterations > 0 && x.ButterflyIterations > 0 {
					mixed = true
				}
				// Per-iteration records must agree with the counters.
				var ap2, bf2 int64
				for _, it := range rh.PerIteration {
					switch it.Exchange {
					case "allpairs":
						ap2++
					case "butterfly":
						bf2++
					default:
						t.Fatalf("%s: iteration %d recorded strategy %q", label, it.Iteration, it.Exchange)
					}
				}
				if ap2 != x.AllPairsIterations || bf2 != x.ButterflyIterations {
					t.Fatalf("%s: per-iteration records %d/%d disagree with counters %d/%d",
						label, ap2, bf2, x.AllPairsIterations, x.ButterflyIterations)
				}
			}
		}
		if !mixed {
			t.Fatalf("shape %s: hybrid never mixed strategies within a run — policy inert", shape)
		}
	}
}

// TestExchangeMessageCounts checks the headline claim: per iteration, each
// rank sends exactly p−1 messages under all-pairs; the power-of-two
// butterfly sends log2(p) per rank, and the generalized form adds one pre
// and one post cleanup message per remainder rank. Both butterflies pay
// with forwarded bytes.
func TestExchangeMessageCounts(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(12))
	th := partition.SuggestThreshold(el.OutDegrees(), el.N/8)

	run := func(shape ClusterShape, x Exchange) *metrics.RunResult {
		opts := DefaultOptions()
		opts.Exchange = x
		opts.Compression = wire.ModeAdaptive
		return runExchange(t, buildPlan(t, el, shape, th, opts), 1)
	}

	// Power-of-two: 8 ranks.
	shape := ClusterShape{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 1}
	prank := int64(shape.Ranks())
	ap := run(shape, ExchangeAllPairs)
	bf := run(shape, ExchangeButterfly)
	iters := int64(ap.Iterations)
	if got, want := ap.Exchange.Messages, iters*prank*(prank-1); got != want {
		t.Fatalf("all-pairs messages %d, want %d (p−1 per rank per iteration)", got, want)
	}
	if got, want := bf.Exchange.Messages, iters*prank*3; got != want {
		t.Fatalf("butterfly messages %d, want %d (log2(p) per rank per iteration)", got, want)
	}
	if bf.Exchange.HopsPerIteration != 3 {
		t.Fatalf("butterfly hops/iteration = %d, want 3", bf.Exchange.HopsPerIteration)
	}
	if ap.Exchange.ForwardedBytes != 0 {
		t.Fatalf("all-pairs forwarded %d bytes, want 0", ap.Exchange.ForwardedBytes)
	}
	if bf.Exchange.ForwardedBytes <= 0 {
		t.Fatal("butterfly forwarded no bytes — relaying never happened")
	}
	if bf.Exchange.MaxMessageBytes <= ap.Exchange.MaxMessageBytes {
		t.Fatalf("butterfly max message %d not above all-pairs %d — aggregation missing",
			bf.Exchange.MaxMessageBytes, ap.Exchange.MaxMessageBytes)
	}

	// Non-power-of-two: 6 ranks = q·log2(q) hypercube messages plus one pre
	// and one post message per remainder rank, per iteration.
	shape6 := ClusterShape{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 1}
	bf6 := run(shape6, ExchangeButterfly)
	q, rem := int64(4), int64(2)
	perIter := q*2 + 2*rem // log2(4)=2 hops
	if got, want := bf6.Exchange.Messages, int64(bf6.Iterations)*perIter; got != want {
		t.Fatalf("6-rank butterfly messages %d, want %d (q·log2(q) + 2·remainder per iteration)",
			got, want)
	}
	if bf6.Exchange.HopsPerIteration != 4 {
		t.Fatalf("6-rank butterfly hops/iteration = %d, want 4 (pre + 2 hypercube + post)",
			bf6.Exchange.HopsPerIteration)
	}
}

// TestExchangeSingleAndTwoRanks covers the degenerate hypercubes: one rank
// (zero hops) and two ranks (one hop).
func TestExchangeSingleAndTwoRanks(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(10))
	for _, shape := range []ClusterShape{
		{Nodes: 1, RanksPerNode: 1, GPUsPerRank: 2},
		{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 2},
	} {
		opts := DefaultOptions()
		opts.Exchange = ExchangeButterfly
		e := buildPlan(t, el, shape, 64, opts)
		checkAgainstSerial(t, el, e, 5)
	}
}

func TestParseExchange(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Exchange
		ok   bool
	}{
		{"", ExchangeAllPairs, true},
		{"allpairs", ExchangeAllPairs, true},
		{"all-pairs", ExchangeAllPairs, true},
		{"butterfly", ExchangeButterfly, true},
		{"hybrid", ExchangeHybrid, true},
		{"hypercube", ExchangeAllPairs, false},
	} {
		got, err := ParseExchange(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseExchange(%q) = %v, %v", tc.in, got, err)
		}
	}
	if ExchangeButterfly.String() != "butterfly" || ExchangeAllPairs.String() != "allpairs" ||
		ExchangeHybrid.String() != "hybrid" {
		t.Fatal("Exchange.String spelling changed")
	}
}

func TestEngineRejectsBadExchange(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(10))
	shape := ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}
	sep := partition.Separate(el, 32)
	sg, err := partition.Distribute(el, sep, shape.PartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Exchange = Exchange(7)
	if _, err := NewPlan(sg, shape, opts); err == nil {
		t.Fatal("engine accepted an invalid exchange strategy")
	}
}

// TestButterflySortedInvariant: with a codec active a block is born a set —
// sorted and compacted once, where it is staged — and only unioned afterwards,
// so at every hop of every iteration, on a power-of-two and a cleanup-hop rank
// count, every outgoing slot is strictly ascending AND hinted so (the hint is
// what spares the encoder its sort copy and its duplicate scan and lets the
// next relay union). The raw blocks whose hint the decoder has to verify
// rather than infer from the scheme are internal/wire's
// TestDecodeSectionsRawSortedFlag. Levels and parents stay bit-identical to
// all-pairs.
func TestButterflySortedInvariant(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(13))
	th := partition.SuggestThreshold(el.OutDegrees(), el.N/8)
	src := pickSources(el.OutDegrees(), 1, 42)[0]
	for _, shape := range []ClusterShape{
		{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 2}, // 6 ranks: cleanup hops
		{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2}, // 8 ranks: plain hypercube
	} {
		checkSortedInvariant(t, el, shape, th, src)
	}
}

func checkSortedInvariant(t *testing.T, el *graph.EdgeList, shape ClusterShape, th int64, src int64) {
	t.Helper()
	opts := DefaultOptions()
	opts.Compression = wire.ModeAdaptive
	opts.CollectParents = true
	ap := opts
	ap.Exchange = ExchangeAllPairs
	want := runExchange(t, buildPlan(t, el, shape, th, ap), src)

	opts.Exchange = ExchangeButterfly
	plan := buildPlan(t, el, shape, th, opts)
	s := plan.acquire(opts)
	var blocks, relayed, unflagged, unsorted atomic.Int64
	for rank := range s.scratch {
		bf := s.exchangers(rank).get(ExchangeButterfly).(*butterflyExchange)
		bf.onSend = func(hop int, secs []wire.Section) {
			for _, sec := range secs {
				for slot, ids := range sec.Slots {
					if len(ids) < 2 {
						continue
					}
					blocks.Add(1)
					if hop > 0 {
						relayed.Add(1)
					}
					if sec.Hints[slot] != wire.HintSet {
						unflagged.Add(1)
					}
					if !isSet(ids) {
						unsorted.Add(1)
					}
				}
			}
		}
	}
	got, err := s.run(context.Background(), src)
	plan.release(s)
	if err != nil {
		t.Fatal(err)
	}
	label := fmt.Sprintf("shape=%s", shape)
	requireIdentical(t, label, want, got)
	if blocks.Load() == 0 || relayed.Load() == 0 {
		t.Fatalf("%s: saw %d blocks, %d past the first hop — nothing was checked", label, blocks.Load(), relayed.Load())
	}
	if unflagged.Load() != 0 || unsorted.Load() != 0 {
		t.Fatalf("%s: of %d outgoing blocks %d lacked the set hint and %d were not strictly ascending",
			label, blocks.Load(), unflagged.Load(), unsorted.Load())
	}
}

// isSet reports whether ids are strictly ascending.
func isSet(ids []uint32) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}
