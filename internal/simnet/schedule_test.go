package simnet

import (
	"math"
	"testing"
)

// scheduleCases are assorted three-resource profiles: wire-bound,
// codec-bound, NVLink-bound, mixed pacing, cleanup-hop shapes, and
// mask-allreduce WireExtra riders.
func scheduleCases() []struct {
	name  string
	sched ExchangeSchedule
} {
	const msgCap = 4 << 20
	return []struct {
		name  string
		sched ExchangeSchedule
	}{
		{"empty", ExchangeSchedule{MsgCap: msgCap}},
		{"wire-only", ExchangeSchedule{
			HopBytes: []int64{1 << 20, 2 << 20, 512 << 10}, MsgCap: msgCap}},
		{"nvlink-only", ExchangeSchedule{
			HopBytes:  []int64{0, 0, 0},
			HopNVLink: []float64{2e-4, 3e-4, 1e-4},
			PreNVLink: 5e-5, MsgCap: msgCap}},
		{"three-way", ExchangeSchedule{
			HopBytes:  []int64{1 << 20, 1 << 20, 1 << 20, 1 << 20},
			HopCodec:  []float64{8e-5, 4e-4, 2e-5, 6e-5},
			HopNVLink: []float64{3e-4, 5e-5, 9e-5, 2e-4},
			PreCodec:  4e-5, PreNVLink: 7e-5, MsgCap: msgCap}},
		{"nvlink-bound", ExchangeSchedule{
			HopBytes:  []int64{4 << 10, 4 << 10, 4 << 10},
			HopCodec:  []float64{1e-5, 1e-5, 1e-5},
			HopNVLink: []float64{1e-3, 1e-3, 1e-3},
			PreNVLink: 1e-3, MsgCap: msgCap}},
		{"short-slices", ExchangeSchedule{
			HopBytes:  []int64{2 << 20, 1 << 20, 1 << 20, 2 << 20},
			HopCodec:  []float64{1e-4},
			HopNVLink: []float64{2e-4, 3e-5},
			MsgCap:    msgCap}},
		{"with-extra", ExchangeSchedule{
			HopBytes:  []int64{1 << 20, 1 << 20, 1 << 20},
			HopCodec:  []float64{3e-4, 3e-4, 3e-4},
			HopNVLink: []float64{1e-4, 1e-4, 1e-4},
			WireExtra: []float64{5e-5, 5e-5, 5e-5},
			PreCodec:  2e-5, MsgCap: msgCap}},
	}
}

// TestScheduleConservation: on every profile the exposed time plus the
// hidden time equals the full resource spend — Total = Wire + Codec +
// NVLink − HiddenCodec − HiddenNVLink — and Total never drops below any
// single resource's full serialization nor above the all-serial sum.
func TestScheduleConservation(t *testing.T) {
	s := Ray()
	for _, tc := range scheduleCases() {
		pt := s.PipelinedExchange(tc.sched)
		want := pt.WireSeconds + pt.CodecSeconds + pt.NVLinkSeconds - pt.HiddenCodec - pt.HiddenNVLink
		if math.Abs(pt.Total-want) > 1e-15 {
			t.Fatalf("%s: Total %g != wire %g + codec %g + nvlink %g - hiddenC %g - hiddenN %g",
				tc.name, pt.Total, pt.WireSeconds, pt.CodecSeconds, pt.NVLinkSeconds,
				pt.HiddenCodec, pt.HiddenNVLink)
		}
		for _, floor := range []float64{pt.WireSeconds, pt.CodecSeconds, pt.NVLinkSeconds} {
			if pt.Total < floor-1e-15 {
				t.Fatalf("%s: Total %g below a full serialization %g — overlap created time",
					tc.name, pt.Total, floor)
			}
		}
		if serial := pt.WireSeconds + pt.CodecSeconds + pt.NVLinkSeconds; pt.Total > serial+1e-15 {
			t.Fatalf("%s: Total %g above the all-serial sum %g", tc.name, pt.Total, serial)
		}
		if pt.HiddenCodec < 0 || pt.HiddenNVLink < 0 {
			t.Fatalf("%s: negative hidden time (%g codec, %g nvlink)",
				tc.name, pt.HiddenCodec, pt.HiddenNVLink)
		}
		if pt.HiddenNVLink > pt.NVLinkSeconds+1e-15 {
			t.Fatalf("%s: hidden NVLink %g above total NVLink %g",
				tc.name, pt.HiddenNVLink, pt.NVLinkSeconds)
		}
	}
}

// TestScheduleZeroNVLinkIsTwoResource: with no NVLink stages the scheduler is
// the two-resource (wire+codec) pipeline — each step after the first costs
// max(wire_k, codec_{k−1}), the pre encode and the last codec stage exposed.
func TestScheduleZeroNVLinkIsTwoResource(t *testing.T) {
	s := Ray()
	const msgCap = 4 << 20
	hops := []int64{1 << 20, 0, 3 << 20, 256 << 10}
	codec := []float64{1e-4, 3e-4, 0, 5e-5}
	const pre = 2e-5
	a := s.PipelinedExchange(ExchangeSchedule{HopBytes: hops, HopCodec: codec, PreCodec: pre, MsgCap: msgCap})
	want := pre + s.ButterflyHop(hops[0], msgCap) + codec[len(codec)-1]
	for k := 1; k < len(hops); k++ {
		want += math.Max(s.ButterflyHop(hops[k], msgCap), codec[k-1])
	}
	if math.Abs(a.Total-want) > 1e-15 {
		t.Fatalf("zero-NVLink schedule = %g, want the two-resource recurrence %g", a.Total, want)
	}
	if a.NVLinkSeconds != 0 || a.HiddenNVLink != 0 {
		t.Fatalf("zero-NVLink schedule charged NVLink time: %+v", a)
	}
}

// TestScheduleWireExtraMonotonic: riding extra seconds on the NIC (the
// chunked delegate-mask allreduce) never makes the schedule faster, and the
// added exposure never exceeds the extra itself — the fold's never-worse
// guarantee in core depends on both directions.
func TestScheduleWireExtraMonotonic(t *testing.T) {
	s := Ray()
	for _, tc := range scheduleCases() {
		if len(tc.sched.HopBytes) == 0 {
			continue
		}
		base := s.PipelinedExchange(tc.sched)
		for _, per := range []float64{1e-6, 5e-5, 5e-4} {
			withExtra := tc.sched
			withExtra.WireExtra = make([]float64, len(tc.sched.HopBytes))
			var sum float64
			for k := range withExtra.WireExtra {
				e := per
				if k < len(tc.sched.WireExtra) {
					e += tc.sched.WireExtra[k]
				}
				withExtra.WireExtra[k] = e
				sum += per
			}
			comb := s.PipelinedExchange(withExtra)
			if comb.Total < base.Total-1e-15 {
				t.Fatalf("%s per=%g: extra made the schedule faster: %g vs %g",
					tc.name, per, comb.Total, base.Total)
			}
			if eff := comb.Total - base.Total; eff > sum+1e-15 {
				t.Fatalf("%s per=%g: exposure %g exceeds the added extra %g",
					tc.name, per, eff, sum)
			}
		}
	}
}
