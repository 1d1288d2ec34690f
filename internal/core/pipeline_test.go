package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// TestPipelinedButterflyEquivalence is the property test of the pipelined
// exchange: for rank counts {3, 5, 6, 7, 12, 16} (remainder shapes and pure
// hypercubes) across scales and compression modes, the pipelined butterfly
// is bit-identical to all-pairs AND to the sequential butterfly on levels
// and parents — pipelining changes when codec work is charged, never what
// the traversal computes — and with a codec active it hides real time.
func TestPipelinedButterflyEquivalence(t *testing.T) {
	shapes := []ClusterShape{
		{Nodes: 3, RanksPerNode: 1, GPUsPerRank: 1}, // 3 ranks, q=2
		{Nodes: 5, RanksPerNode: 1, GPUsPerRank: 1}, // 5 ranks, q=4
		{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 2}, // 6 ranks, q=4
		{Nodes: 7, RanksPerNode: 1, GPUsPerRank: 1}, // 7 ranks, q=4 (max remainder)
		{Nodes: 6, RanksPerNode: 2, GPUsPerRank: 1}, // 12 ranks, q=8
		{Nodes: 8, RanksPerNode: 2, GPUsPerRank: 1}, // 16 ranks, pure hypercube
	}
	scales := []int{10, 12}
	if !testing.Short() {
		scales = append(scales, 14)
	}
	modes := []wire.Mode{wire.ModeOff, wire.ModeAdaptive}

	for _, scale := range scales {
		el := rmat.Generate(rmat.DefaultParams(scale))
		th := partition.SuggestThreshold(el.OutDegrees(), el.N/8)
		src := pickSources(el.OutDegrees(), 1, 31)[0]
		for _, shape := range shapes {
			for _, mode := range modes {
				label := fmt.Sprintf("scale=%d shape=%s mode=%v", scale, shape, mode)
				opts := DefaultOptions()
				opts.Compression = mode
				opts.CollectParents = true
				opts.WorkAmplification = 1 << 8
				ap := opts
				ap.Exchange = ExchangeAllPairs
				seq := opts
				seq.Exchange = ExchangeButterfly
				seq.PipelineHops = false
				pipe := opts
				pipe.Exchange = ExchangeButterfly
				pipe.PipelineHops = true
				ra := runExchange(t, buildPlan(t, el, shape, th, ap), src)
				rs := runExchange(t, buildPlan(t, el, shape, th, seq), src)
				rp := runExchange(t, buildPlan(t, el, shape, th, pipe), src)
				requireIdentical(t, label+" seq vs allpairs", ra, rs)
				requireIdentical(t, label+" pipe vs seq", rs, rp)

				if rs.Exchange.HiddenCodecSeconds != 0 || rs.Exchange.PipelineStalls != 0 {
					t.Fatalf("%s: sequential hops hid %g s / %d stalls",
						label, rs.Exchange.HiddenCodecSeconds, rs.Exchange.PipelineStalls)
				}
				if rp.SimSeconds > rs.SimSeconds+1e-12 {
					t.Fatalf("%s: pipelined %g s above sequential %g s", label, rp.SimSeconds, rs.SimSeconds)
				}
				switch mode {
				case wire.ModeOff:
					// No codec stages to hide.
					if rp.Exchange.HiddenCodecSeconds != 0 {
						t.Fatalf("%s: hid %g s with the codec off", label, rp.Exchange.HiddenCodecSeconds)
					}
					if shape.GPUsPerRank == 1 {
						// No NVLink stages either: the schedules are identical.
						if math.Abs(rp.SimSeconds-rs.SimSeconds) > 1e-12 {
							t.Fatalf("%s: codec-off pipeline changed time: %g vs %g",
								label, rp.SimSeconds, rs.SimSeconds)
						}
					} else if rp.Exchange.HiddenNVLinkSeconds <= 0 {
						// Hierarchical shapes still carry NVLink stages the
						// pipeline hides even with the codec off.
						t.Fatalf("%s: pipelined hierarchical run hid no NVLink time", label)
					}
				default:
					if rp.Exchange.HiddenCodecSeconds <= 0 {
						t.Fatalf("%s: pipelined run hid no codec time", label)
					}
					if rp.SimSeconds >= rs.SimSeconds {
						t.Fatalf("%s: pipelined %g s not strictly below sequential %g s",
							label, rp.SimSeconds, rs.SimSeconds)
					}
				}
			}
		}
	}
}

// TestPipelineTimingInvariants pins the accounting identities of one
// sequential/pipelined pair: the two runs do identical codec work; the
// pipelined run's remote-normal is smaller by exactly the hidden time; the
// hidden time never exceeds the total codec time; and the per-iteration
// hidden/exposed split sums to each iteration's codec total.
func TestPipelineTimingInvariants(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(12))
	th := partition.SuggestThreshold(el.OutDegrees(), el.N/8)
	src := pickSources(el.OutDegrees(), 1, 17)[0]
	for _, shape := range []ClusterShape{
		{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 1}, // 8 ranks
		{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 1}, // 6 ranks: cleanup hops
	} {
		opts := DefaultOptions()
		opts.Compression = wire.ModeAdaptive
		opts.Exchange = ExchangeButterfly
		opts.WorkAmplification = 1 << 8
		seqOpts := opts
		seqOpts.PipelineHops = false
		rs := runExchange(t, buildPlan(t, el, shape, th, seqOpts), src)
		rp := runExchange(t, buildPlan(t, el, shape, th, opts), src)

		hidden := rp.Exchange.HiddenCodecSeconds
		if hidden <= 0 {
			t.Fatalf("shape %s: no codec time hidden", shape)
		}
		if hidden > rp.Wire.CodecSeconds+1e-12 {
			t.Fatalf("shape %s: hidden %g s above total codec %g s — overlap created time",
				shape, hidden, rp.Wire.CodecSeconds)
		}
		if math.Abs(rp.Wire.CodecSeconds-rs.Wire.CodecSeconds) > 1e-12 {
			t.Fatalf("shape %s: pipelining changed total codec work: %g vs %g s",
				shape, rp.Wire.CodecSeconds, rs.Wire.CodecSeconds)
		}
		// The pipelined schedule reclaims exactly the hidden time from the
		// remote-normal component, iteration by iteration.
		if diff := rs.Parts.RemoteNormal - rp.Parts.RemoteNormal; math.Abs(diff-hidden) > 1e-12 {
			t.Fatalf("shape %s: remote-normal cut %g s != hidden %g s", shape, diff, hidden)
		}
		for i, itp := range rp.PerIteration {
			its := rs.PerIteration[i]
			if itp.CodecHidden < 0 || itp.CodecExposed < 0 {
				t.Fatalf("shape %s it=%d: negative codec split %g/%g",
					shape, i, itp.CodecHidden, itp.CodecExposed)
			}
			if math.Abs((itp.CodecHidden+itp.CodecExposed)-(its.CodecHidden+its.CodecExposed)) > 1e-12 {
				t.Fatalf("shape %s it=%d: codec totals diverged: %g vs %g", shape, i,
					itp.CodecHidden+itp.CodecExposed, its.CodecHidden+its.CodecExposed)
			}
			if its.CodecHidden != 0 {
				t.Fatalf("shape %s it=%d: sequential iteration hid %g s", shape, i, its.CodecHidden)
			}
		}
	}
}

// TestPipelineOverrides: the per-query override flips pipelining without
// touching the plan, and calibration factors surface only for strategies
// that ran.
func TestPipelineOverrides(t *testing.T) {
	p := buildPlanT(t, 12, ClusterShape{Nodes: 4, RanksPerNode: 1, GPUsPerRank: 2}, func() Options {
		o := DefaultOptions()
		o.Compression = wire.ModeAdaptive
		o.Exchange = ExchangeButterfly
		o.WorkAmplification = 1 << 8
		return o
	}(), true)
	off := false
	rSeq, err := p.Run(context.Background(), 2, Overrides{PipelineHops: &off})
	if err != nil {
		t.Fatal(err)
	}
	rPipe, err := p.Run(context.Background(), 2, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if rSeq.Exchange.HiddenCodecSeconds != 0 {
		t.Fatalf("override off still hid %g s", rSeq.Exchange.HiddenCodecSeconds)
	}
	if rPipe.Exchange.HiddenCodecSeconds <= 0 {
		t.Fatal("base plan (pipelining on) hid nothing")
	}
	if rPipe.Exchange.CalibrationButterfly == 0 || rPipe.Exchange.CalibrationAllPairs != 0 {
		t.Fatalf("calibration factors %g/%g — want butterfly-only feedback",
			rPipe.Exchange.CalibrationAllPairs, rPipe.Exchange.CalibrationButterfly)
	}
	for v := range rSeq.Levels {
		if rSeq.Levels[v] != rPipe.Levels[v] {
			t.Fatalf("vertex %d: level %d (sequential) vs %d (pipelined)",
				v, rSeq.Levels[v], rPipe.Levels[v])
		}
	}
}
