package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gcbfs/internal/frontier"
)

// codecModes are the modes an encoder accepts.
var codecModes = []Mode{ModeAdaptive, ModeRaw, ModeDelta, ModeBitmap}

// TestAppendPermutationInvariant pins what lets the engine sort a block once
// where it is staged and encode it presorted ever after: the bytes of a block
// depend on the id multiset only. A shuffled input, the sorted input and the
// sorted input with the presorted hint all encode identically under every
// scheme that canonicalizes; a raw block keeps sender order, so there only
// the length is equal.
func TestAppendPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		ids := make([]uint32, rng.Intn(300))
		keyRange := 1 << (4 + rng.Intn(20))
		for i := range ids {
			ids[i] = uint32(rng.Intn(keyRange))
		}
		sorted := slices.Clone(ids)
		slices.Sort(sorted)
		before := slices.Clone(ids)
		sel := NewSelector()
		for _, mode := range codecModes {
			shuffled, scheme := Append(nil, ids, mode)
			plain, _ := Append(nil, sorted, mode)
			hinted, hintedScheme := AppendSorted(nil, sorted, mode, true)
			viaSel, _, _ := sel.Append(nil, ids, mode, 0, 0, false)
			if scheme != hintedScheme {
				t.Fatalf("trial %d %v: scheme %v shuffled, %v presorted", trial, mode, scheme, hintedScheme)
			}
			if !bytes.Equal(plain, hinted) {
				t.Fatalf("trial %d %v: presorted hint changed the bytes", trial, mode)
			}
			if len(viaSel) != len(shuffled) {
				t.Fatalf("trial %d %v: selector scratch path %d bytes, plain %d", trial, mode, len(viaSel), len(shuffled))
			}
			if scheme == SchemeRaw {
				if len(shuffled) != len(hinted) {
					t.Fatalf("trial %d %v: raw length %d shuffled, %d sorted", trial, mode, len(shuffled), len(hinted))
				}
				continue
			}
			if !bytes.Equal(shuffled, hinted) || !bytes.Equal(viaSel, hinted) {
				t.Fatalf("trial %d %v/%v: shuffled and sorted inputs encode differently", trial, mode, scheme)
			}
		}
		if !slices.Equal(ids, before) {
			t.Fatalf("trial %d: Append mutated its input", trial)
		}
	}
}

// TestAppendPairsPermutationInvariant is the pairs counterpart: (ID, Val)
// order is the canonical form, equal IDs with descending Val included.
func TestAppendPairsPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		pairs := make([]frontier.Pair, rng.Intn(300))
		idRange := 1 << (2 + rng.Intn(12))
		for i := range pairs {
			pairs[i] = frontier.Pair{ID: uint32(rng.Intn(idRange)), Val: uint64(len(pairs)-i)<<20 | uint64(rng.Intn(4))}
		}
		sorted := canonPairs(pairs)
		before := slices.Clone(pairs)
		for _, mode := range codecModes {
			shuffled, scheme := AppendPairs(nil, pairs, mode)
			hinted, hintedScheme := AppendPairsSorted(nil, sorted, mode, true)
			if scheme != hintedScheme {
				t.Fatalf("trial %d %v: scheme %v shuffled, %v presorted", trial, mode, scheme, hintedScheme)
			}
			if scheme == SchemeRaw {
				if len(shuffled) != len(hinted) {
					t.Fatalf("trial %d %v: raw length %d shuffled, %d sorted", trial, mode, len(shuffled), len(hinted))
				}
				continue
			}
			if !bytes.Equal(shuffled, hinted) {
				t.Fatalf("trial %d %v/%v: shuffled and sorted pairs encode differently", trial, mode, scheme)
			}
		}
		if !slices.Equal(pairs, before) {
			t.Fatalf("trial %d: AppendPairs mutated its input", trial)
		}
	}
}

// TestDecodeSectionsRawSortedFlag checks the decoded Sorted flag of raw
// blocks is derived from the ids, never from the sender: ascending raw
// blocks keep it, anything else loses it.
func TestDecodeSectionsRawSortedFlag(t *testing.T) {
	secs := []Section{{
		Rank:   1,
		Slots:  [][]uint32{{3, 9, 9, 40}, {40, 3, 9}, {5}, nil},
		Sorted: []bool{true, false, true, true},
	}}
	msg, _ := (*Selector)(nil).EncodeSections(secs, 4, ModeRaw)
	got, err := DecodeSections(msg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, false, true, true}; !slices.Equal(got[0].Sorted, want) {
		t.Fatalf("Sorted = %v, want %v", got[0].Sorted, want)
	}
	if !slices.Equal(got[0].Slots[1], []uint32{40, 3, 9}) {
		t.Fatalf("raw block reordered: %v", got[0].Slots[1])
	}
}

// BenchmarkAppendPairsUnsorted measures the non-mutating pairs encode — the
// sorted copy plus the block itself — on replay-shaped input.
func BenchmarkAppendPairsUnsorted(b *testing.B) {
	for _, n := range []int{64, 1 << 10, 16 << 10} {
		rng := rand.New(rand.NewSource(int64(n)))
		pairs := make([]frontier.Pair, n)
		for i := range pairs {
			pairs[i] = frontier.Pair{ID: uint32(rng.Intn(1 << 10)), Val: uint64(rng.Intn(1<<16))<<20 | uint64(1+rng.Intn(6))}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(12 * int64(n))
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf, _ = AppendPairs(buf[:0], pairs, ModeAdaptive)
			}
		})
	}
}
