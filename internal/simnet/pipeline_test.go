package simnet

import (
	"math"
	"testing"
)

// seqTime is the non-pipelined reference: every hop transfer and every codec
// stage charged end-to-end.
func seqTime(s Spec, hopBytes []int64, hopCodec []float64, preCodec float64, msgCap int64) float64 {
	t := s.butterfly(hopBytes, msgCap) + preCodec
	for _, c := range hopCodec {
		t += c
	}
	return t
}

// TestPipelinedInvariants: on assorted profiles the pipelined time equals
// wire + codec − hidden, never exceeds the sequential time, and never drops
// below either the pure wire or the pure codec serialization.
func TestPipelinedInvariants(t *testing.T) {
	s := Ray()
	const msgCap = 4 << 20
	cases := []struct {
		name  string
		bytes []int64
		codec []float64
		pre   float64
	}{
		{"empty", nil, nil, 0},
		{"wire-only", []int64{1 << 20, 2 << 20, 512 << 10}, []float64{0, 0, 0}, 0},
		{"codec-only", []int64{0, 0}, []float64{1e-4, 2e-4}, 5e-5},
		{"balanced", []int64{1 << 20, 1 << 20, 1 << 20}, []float64{8e-5, 8e-5, 8e-5}, 4e-5},
		{"codec-bound", []int64{4 << 10, 4 << 10, 4 << 10, 4 << 10}, []float64{1e-3, 1e-3, 1e-3, 1e-3}, 1e-3},
		{"cleanup-shape", []int64{2 << 20, 1 << 20, 1 << 20, 2 << 20}, []float64{1e-4, 5e-5, 5e-5, 1e-4}, 2e-5},
	}
	for _, tc := range cases {
		pt := s.PipelinedExchange(ExchangeSchedule{HopBytes: tc.bytes, HopCodec: tc.codec, PreCodec: tc.pre, MsgCap: msgCap})
		if got, want := pt.Total, pt.WireSeconds+pt.CodecSeconds-pt.HiddenCodec; math.Abs(got-want) > 1e-15 {
			t.Fatalf("%s: Total %g != wire %g + codec %g - hidden %g", tc.name, got, pt.WireSeconds, pt.CodecSeconds, pt.HiddenCodec)
		}
		if seq := seqTime(s, tc.bytes, tc.codec, tc.pre, msgCap); pt.Total > seq+1e-15 {
			t.Fatalf("%s: pipelined %g above sequential %g", tc.name, pt.Total, seq)
		}
		if pt.Total < pt.WireSeconds-1e-15 || pt.Total < pt.CodecSeconds-1e-15 {
			t.Fatalf("%s: pipelined %g below a full serialization (wire %g, codec %g)",
				tc.name, pt.Total, pt.WireSeconds, pt.CodecSeconds)
		}
		if pt.HiddenCodec < 0 || pt.HiddenCodec > pt.CodecSeconds+1e-15 {
			t.Fatalf("%s: hidden codec %g outside [0, %g]", tc.name, pt.HiddenCodec, pt.CodecSeconds)
		}
	}
}

// TestPipelinedZeroCodecMatchesButterfly: with free codec stages the
// pipeline degenerates to the plain sequential-hop model.
func TestPipelinedZeroCodecMatchesButterfly(t *testing.T) {
	s := Ray()
	hops := []int64{1 << 20, 0, 3 << 20, 256 << 10}
	pt := s.PipelinedExchange(ExchangeSchedule{HopBytes: hops, HopCodec: make([]float64, len(hops)), MsgCap: 4 << 20})
	if want := s.butterfly(hops, 4<<20); math.Abs(pt.Total-want) > 1e-15 {
		t.Fatalf("zero-codec pipeline = %g, want sequential %g", pt.Total, want)
	}
	if pt.HiddenCodec != 0 || pt.Stalls != 0 {
		t.Fatalf("zero-codec pipeline hid %g s with %d stalls", pt.HiddenCodec, pt.Stalls)
	}
}

// TestPipelinedExactSchedule: a hand-built profile where the schedule is
// easy to compute by hand — the middle transfer hides part of the previous
// codec stage, and a codec-bound step counts as a stall.
func TestPipelinedExactSchedule(t *testing.T) {
	s := Ray()
	const msgCap = 4 << 20
	hops := []int64{1 << 20, 2 << 20, 1 << 20}
	w := make([]float64, len(hops))
	for i, b := range hops {
		w[i] = s.ButterflyHop(b, msgCap)
	}
	codec := []float64{w[1] / 2, 2 * w[2], 1e-4} // hop0's stage half-hides, hop1's stalls
	const pre = 3e-5
	pt := s.PipelinedExchange(ExchangeSchedule{HopBytes: hops, HopCodec: codec, PreCodec: pre, MsgCap: msgCap})
	wantTotal := pre + w[0] + math.Max(w[1], codec[0]) + math.Max(w[2], codec[1]) + codec[2]
	if math.Abs(pt.Total-wantTotal) > 1e-15 {
		t.Fatalf("Total = %g, want %g", pt.Total, wantTotal)
	}
	if wantHidden := codec[0] + w[2]; math.Abs(pt.HiddenCodec-wantHidden) > 1e-15 {
		t.Fatalf("HiddenCodec = %g, want %g", pt.HiddenCodec, wantHidden)
	}
	if pt.Stalls != 1 {
		t.Fatalf("Stalls = %d, want 1 (hop1's codec stage outlasted hop2's transfer)", pt.Stalls)
	}
	// The win over the sequential schedule is exactly the hidden time.
	if seq := seqTime(s, hops, codec, pre, msgCap); math.Abs(seq-pt.Total-pt.HiddenCodec) > 1e-15 {
		t.Fatalf("sequential %g - pipelined %g != hidden %g", seq, pt.Total, pt.HiddenCodec)
	}
}
