package core

import (
	"context"
	"testing"

	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// TestCompressionAdaptiveScale16 is the codec's acceptance check: on an R-MAT
// scale-16 run with Compression: adaptive, the result must report fewer
// compressed than raw bytes while levels and parents stay identical to the
// uncompressed run. The raw bytes themselves differ by exactly the repeats:
// the codec-active exchange stages sets, the uncompressed one ships what the
// kernels binned, and uniquifying the latter (a single GPU per rank, so U sees
// the whole slot) closes the gap to the byte.
func TestCompressionAdaptiveScale16(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-16 graph generation in -short mode")
	}
	el := rmat.Generate(rmat.DefaultParams(16))
	shape := ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}
	// Cap delegates at n/8 instead of the 4n/p default: at this small
	// scale the default turns half the graph into delegates and the
	// normal exchange all but vanishes. The tighter cap is the
	// communication-heavy regime the codec exists for.
	th := partition.SuggestThreshold(el.OutDegrees(), el.N/8)

	base := DefaultOptions()
	base.CollectParents = true
	runOn := func(shape ClusterShape, mode wire.Mode, uniq bool) *metrics.RunResult {
		opts := base
		opts.Compression = mode
		opts.Uniquify = uniq
		e := buildPlan(t, el, shape, th, opts)
		res, err := e.Run(context.Background(), 1, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	off := runOn(shape, wire.ModeOff, false)
	adaptive := runOn(shape, wire.ModeAdaptive, false)

	for v := range off.Levels {
		if off.Levels[v] != adaptive.Levels[v] {
			t.Fatalf("vertex %d: level %d with compression, %d without",
				v, adaptive.Levels[v], off.Levels[v])
		}
	}
	for v := range off.Parents {
		if off.Parents[v] != adaptive.Parents[v] {
			t.Fatalf("vertex %d: parent %d with compression, %d without",
				v, adaptive.Parents[v], off.Parents[v])
		}
	}

	w := adaptive.Wire
	if !w.Enabled {
		t.Fatal("adaptive run did not flag Wire.Enabled")
	}
	if w.RawBytes == 0 {
		t.Fatal("adaptive run exchanged no bytes — test is vacuous")
	}
	if w.CompressedBytes >= w.RawBytes {
		t.Fatalf("compressed bytes %d not below raw bytes %d", w.CompressedBytes, w.RawBytes)
	}
	if w.SchemeRaw+w.SchemeDelta+w.SchemeBitmap == 0 {
		t.Fatal("adaptive run recorded no scheme selections")
	}
	if w.RawBytes >= off.Wire.RawBytes {
		t.Fatalf("the set exchange shipped %d raw bytes, the multiset one %d: no duplicate was dropped",
			w.RawBytes, off.Wire.RawBytes)
	}
	flat := ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 1}
	offU, adaptiveFlat := runOn(flat, wire.ModeOff, true), runOn(flat, wire.ModeAdaptive, false)
	if offU.Wire.RawBytes != adaptiveFlat.Wire.RawBytes {
		t.Fatalf("raw-byte accounting differs beyond the duplicates: %d off with U vs %d adaptive",
			offU.Wire.RawBytes, adaptiveFlat.Wire.RawBytes)
	}
	if plain := runOn(flat, wire.ModeOff, false); offU.Wire.RawBytes+4*offU.DupsRemoved != plain.Wire.RawBytes {
		t.Fatalf("off: %d raw bytes with U + %d duplicates ≠ %d without", offU.Wire.RawBytes, offU.DupsRemoved, plain.Wire.RawBytes)
	}
	t.Logf("scale 16 %s: raw %d B → wire %d B (%.1f%% saved; schemes raw=%d delta=%d bitmap=%d)",
		shape, w.RawBytes, w.CompressedBytes, 100*w.Savings(),
		w.SchemeRaw, w.SchemeDelta, w.SchemeBitmap)
}

// TestCompressionModesAgree checks every forced scheme (and off) produces
// identical traversal results and the run's wire accounting is coherent.
func TestCompressionModesAgree(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(12))
	shape := ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2}
	th := partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(shape.P()))

	var ref []int32
	for _, mode := range []wire.Mode{wire.ModeOff, wire.ModeAdaptive, wire.ModeRaw, wire.ModeDelta, wire.ModeBitmap} {
		opts := DefaultOptions()
		opts.Compression = mode
		e := buildPlan(t, el, shape, th, opts)
		for _, src := range []int64{0, 7, 4093} {
			res, err := e.Run(context.Background(), src, Overrides{})
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			if mode == wire.ModeOff && src == 0 {
				ref = res.Levels
			}
			if src == 0 {
				for v := range ref {
					if res.Levels[v] != ref[v] {
						t.Fatalf("mode %v: vertex %d level %d, want %d", mode, v, res.Levels[v], ref[v])
					}
				}
			}
			w := res.Wire
			if (mode != wire.ModeOff) != w.Enabled {
				t.Fatalf("mode %v: Wire.Enabled = %v", mode, w.Enabled)
			}
			for i, it := range res.PerIteration {
				if mode == wire.ModeOff && it.BytesNormal != it.BytesNormalRaw {
					t.Fatalf("mode off: iteration %d wire bytes %d != raw bytes %d",
						i, it.BytesNormal, it.BytesNormalRaw)
				}
			}
		}
	}
}

// TestCompressionUniquifyInteraction makes sure the codec composes with the
// U optimization (sorted duplicate-free bins are bitmap/delta's best case).
func TestCompressionUniquifyInteraction(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(12))
	shape := ClusterShape{Nodes: 2, RanksPerNode: 1, GPUsPerRank: 2}
	th := partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(shape.P()))
	opts := DefaultOptions()
	opts.Uniquify = true
	opts.Compression = wire.ModeAdaptive
	e := buildPlan(t, el, shape, th, opts)
	checkAgainstSerial(t, el, e, 3)
}

// TestParentPairsCompression checks the post-BFS parent-resolution exchange
// routes through the pairs codec: identical parents, coherent byte
// accounting, and a reduction versus the fixed-width 12-byte pairs above what
// the varint delta scheme saved.
func TestParentPairsCompression(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(13))
	shape := ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 1}
	// Tight delegate cap so nn edges (the pairs traffic) really exist.
	th := partition.SuggestThreshold(el.OutDegrees(), el.N/8)

	run := func(mode wire.Mode) *metrics.RunResult {
		opts := DefaultOptions()
		opts.Compression = mode
		opts.CollectParents = true
		e := buildPlan(t, el, shape, th, opts)
		res, err := e.Run(context.Background(), 2, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(wire.ModeOff)
	adaptive := run(wire.ModeAdaptive)

	for v := range off.Parents {
		if off.Parents[v] != adaptive.Parents[v] {
			t.Fatalf("vertex %d: parent %d with pairs codec, %d without",
				v, adaptive.Parents[v], off.Parents[v])
		}
	}
	if off.ParentPairs == 0 {
		t.Fatal("no parent pairs exchanged — test is vacuous")
	}
	if off.Wire.PairRawBytes != 12*off.ParentPairs {
		t.Fatalf("off-mode pair raw bytes %d, want 12×%d pairs", off.Wire.PairRawBytes, off.ParentPairs)
	}
	if off.Wire.PairWireBytes != off.Wire.PairRawBytes {
		t.Fatalf("off-mode pair wire bytes %d != raw %d", off.Wire.PairWireBytes, off.Wire.PairRawBytes)
	}
	if adaptive.Wire.PairRawBytes != off.Wire.PairRawBytes {
		t.Fatalf("pair raw accounting differs: %d off vs %d adaptive",
			off.Wire.PairRawBytes, adaptive.Wire.PairRawBytes)
	}
	// The varint delta scheme the bit-packed one replaced saved 50.2 % here.
	saved := 1 - float64(adaptive.Wire.PairWireBytes)/float64(adaptive.Wire.PairRawBytes)
	t.Logf("parent pairs: %d pairs, %d B raw -> %d B wire (%.1f%% saved)",
		off.ParentPairs, adaptive.Wire.PairRawBytes, adaptive.Wire.PairWireBytes, 100*saved)
	if saved <= 0.502 {
		t.Fatalf("pairs codec saved %.1f%% of the fixed-width pairs, not above the varint delta scheme's 50.2%%", 100*saved)
	}
}

// TestDelegateMaskEncoding: with a codec active, the delegate-mask
// allreduce ships the adaptively encoded form of the reduced mask. TH=0
// turns every vertex into a delegate, so the mask reduction is the only
// inter-rank traffic — a clean isolation of the satellite: results stay
// identical, the sparse late-iteration masks shrink below their native
// bitmap size, and the saved bytes show up as remote-delegate time.
func TestDelegateMaskEncoding(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(12))
	shape := ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 1}

	run := func(mode wire.Mode) *metrics.RunResult {
		opts := DefaultOptions()
		opts.Compression = mode
		e := buildPlan(t, el, shape, 0, opts) // TH=0: all delegates
		res, err := e.Run(context.Background(), 1, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(wire.ModeOff)
	adaptive := run(wire.ModeAdaptive)

	for v := range off.Levels {
		if off.Levels[v] != adaptive.Levels[v] {
			t.Fatalf("vertex %d: level %d with mask encoding, %d without",
				v, adaptive.Levels[v], off.Levels[v])
		}
	}
	if off.Wire.MaskRawBytes != 0 || off.Wire.MaskWireBytes != 0 {
		t.Fatalf("off mode counted mask bytes: %d/%d", off.Wire.MaskRawBytes, off.Wire.MaskWireBytes)
	}
	w := adaptive.Wire
	if w.MaskRawBytes == 0 {
		t.Fatal("no mask reductions counted — test is vacuous")
	}
	if w.MaskWireBytes >= w.MaskRawBytes {
		t.Fatalf("mask encoding did not shrink the reductions: %d wire vs %d raw",
			w.MaskWireBytes, w.MaskRawBytes)
	}
	if adaptive.Parts.RemoteDelegate >= off.Parts.RemoteDelegate {
		t.Fatalf("remote-delegate time %g not below uncompressed %g despite smaller masks",
			adaptive.Parts.RemoteDelegate, off.Parts.RemoteDelegate)
	}
	// Per-iteration delegate bytes must never exceed the native mask size.
	for i, it := range adaptive.PerIteration {
		if raw := off.PerIteration[i].BytesDelegate; it.BytesDelegate > raw {
			t.Fatalf("iteration %d: encoded mask %d B above native %d B", i, it.BytesDelegate, raw)
		}
	}
	t.Logf("delegate masks: %d B raw -> %d B wire (%.1f%% saved)",
		w.MaskRawBytes, w.MaskWireBytes, 100*(1-float64(w.MaskWireBytes)/float64(w.MaskRawBytes)))
}

// TestCompressionRejectsBadMode covers the NewPlan validation.
func TestCompressionRejectsBadMode(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(10))
	shape := ClusterShape{Nodes: 1, RanksPerNode: 2, GPUsPerRank: 1}
	sep := partition.Separate(el, 32)
	sg, err := partition.Distribute(el, sep, shape.PartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Compression = wire.Mode(99)
	if _, err := NewPlan(sg, shape, opts); err == nil {
		t.Fatal("engine accepted an invalid compression mode")
	}
}
