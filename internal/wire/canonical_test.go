package wire

import (
	"bytes"
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
		var sortBuf []uint32
		for _, mode := range codecModes {
			shuffled, scheme := Append(nil, ids, mode)
			plain, _ := Append(nil, sorted, mode)
			hinted, hintedScheme := AppendSorted(nil, sorted, mode, true)
			viaScratch, _ := appendSorted(nil, ids, mode, HintNone, &sortBuf, 0)
			if scheme != hintedScheme {
				t.Fatalf("trial %d %v: scheme %v shuffled, %v presorted", trial, mode, scheme, hintedScheme)
			}
			if !bytes.Equal(plain, hinted) {
				t.Fatalf("trial %d %v: presorted hint changed the bytes", trial, mode)
			}
			if len(viaScratch) != len(shuffled) {
				t.Fatalf("trial %d %v: sort scratch path %d bytes, plain %d", trial, mode, len(viaScratch), len(shuffled))
			}
			if scheme == SchemeRaw {
				if len(shuffled) != len(hinted) {
					t.Fatalf("trial %d %v: raw length %d shuffled, %d sorted", trial, mode, len(shuffled), len(hinted))
				}
				continue
			}
			if !bytes.Equal(shuffled, hinted) || !bytes.Equal(viaScratch, hinted) {
				t.Fatalf("trial %d %v/%v: shuffled and sorted inputs encode differently", trial, mode, scheme)
			}
		}
		if !slices.Equal(ids, before) {
			t.Fatalf("trial %d: Append mutated its input", trial)
		}
	}
}

// TestAppendPairsPermutationInvariant is the pairs counterpart, where no
// order is canonical: a block's length is a function of the pair multiset
// (a packed frame is its columns' minima and maxima), so every permutation of
// the pairs encodes to the same length under every mode, each block decodes to
// its own input order, and the encoder leaves its input as it was.
func TestAppendPairsPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		pairs := make([]frontier.Pair, rng.Intn(300))
		idRange := 1 << (2 + rng.Intn(12))
		for i := range pairs {
			pairs[i] = frontier.Pair{ID: uint32(rng.Intn(idRange)), Val: uint64(len(pairs)-i)<<32 | uint64(rng.Intn(4))}
		}
		shuffled := slices.Clone(pairs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		before, shuffledBefore := slices.Clone(pairs), slices.Clone(shuffled)
		for _, mode := range codecModes {
			a, scheme := AppendPairs(nil, pairs, mode)
			b, bScheme := AppendPairs(nil, shuffled, mode)
			if scheme != bScheme || len(a) != len(b) {
				t.Fatalf("trial %d %v: %v block of %d bytes, a permutation's %v block of %d", trial, mode, scheme, len(a), bScheme, len(b))
			}
			for _, tc := range []struct {
				buf  []byte
				want []frontier.Pair
			}{{a, pairs}, {b, shuffled}} {
				got, _, _, err := DecodePairs(tc.buf)
				if err != nil || !slices.Equal(got, tc.want) {
					t.Fatalf("trial %d %v/%v: decoded %d pairs out of input order (err %v)", trial, mode, scheme, len(got), err)
				}
			}
		}
		if !slices.Equal(pairs, before) || !slices.Equal(shuffled, shuffledBefore) {
			t.Fatalf("trial %d: AppendPairs mutated its input", trial)
		}
	}
}

// TestDecodeSectionsRawSortedFlag checks the decoded hint is derived from the
// ids, never from the sender: a raw block is a set when it is strictly
// ascending, sorted when it is ascending with repeats, and nothing otherwise,
// whatever the sender claimed; a delta block reports its repeats (zero gaps)
// and a bitmap is a set by construction.
func TestDecodeSectionsRawSortedFlag(t *testing.T) {
	slots := [][]uint32{{3, 9, 9, 40}, {40, 3, 9}, {5}, nil, {3, 9, 40}}
	for _, tc := range []struct {
		mode Mode
		sent []Hint
		want []Hint
	}{
		{ModeRaw, []Hint{HintSorted, HintNone, HintSet, HintSet, HintSet},
			[]Hint{HintSorted, HintNone, HintSet, HintSet, HintSet}},
		// A sender that vouches for nothing gets the same answer.
		{ModeRaw, nil, []Hint{HintSorted, HintNone, HintSet, HintSet, HintSet}},
		{ModeOff, nil, []Hint{HintSorted, HintNone, HintSet, HintSet, HintSet}},
		// Delta canonicalizes the order; only the repeat survives as a hint.
		{ModeDelta, nil, []Hint{HintSorted, HintSet, HintSet, HintSet, HintSet}},
	} {
		secs := []Section{{Rank: 1, Slots: slots, Hints: tc.sent}}
		msg, _ := (*Selector)(nil).EncodeSections(secs, 0, tc.mode)
		got, err := DecodeSections(msg, len(slots), 2)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got[0].Hints, tc.want) {
			t.Fatalf("%v (sent %v): Hints = %v, want %v", tc.mode, tc.sent, got[0].Hints, tc.want)
		}
		if tc.mode != ModeDelta && !slices.Equal(got[0].Slots[1], []uint32{40, 3, 9}) {
			t.Fatalf("%v: raw block reordered: %v", tc.mode, got[0].Slots[1])
		}
	}
	// A bitmap block holds a set and says so.
	set := []uint32{1, 2, 3, 5, 8, 13, 21, 34}
	msg, st := (*Selector)(nil).EncodeSections([]Section{{Rank: 0, Slots: [][]uint32{set}, Hints: []Hint{HintSet}}}, 0, ModeBitmap)
	if st.Selected[SchemeBitmap] != 1 {
		t.Fatalf("forced bitmap picked %v", st.Selected)
	}
	got, err := DecodeSections(msg, 1, 1)
	if err != nil || got[0].Hints[0] != HintSet || !slices.Equal(got[0].Slots[0], set) {
		t.Fatalf("bitmap block: %v hints %v ids %v", err, got[0].Hints, got[0].Slots[0])
	}
}

// TestHintSetMatchesUnhinted: the set hint spares the encoder its sort and its
// duplicate scan and must change nothing else — a set encodes to the same
// bytes under every hint that is true of it, in every mode.
func TestHintSetMatchesUnhinted(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 200; trial++ {
		n, span := rng.Intn(300), 1+rng.Intn(4000)
		seen := map[uint32]bool{}
		var set []uint32
		for i := 0; i < n; i++ {
			if v := uint32(rng.Intn(span)); !seen[v] {
				seen[v] = true
				set = append(set, v)
			}
		}
		slices.Sort(set)
		for _, mode := range []Mode{ModeOff, ModeAdaptive, ModeRaw, ModeDelta, ModeBitmap} {
			want, wantScheme := appendSorted(nil, set, mode, HintNone, nil, 7)
			for _, hint := range []Hint{HintSorted, HintSet} {
				got, scheme := appendSorted(nil, set, mode, hint, nil, 7)
				if scheme != wantScheme || !slices.Equal(got, want) {
					t.Fatalf("trial %d %v: hint %d changed the block (%v vs %v)", trial, mode, hint, scheme, wantScheme)
				}
			}
		}
	}
}
