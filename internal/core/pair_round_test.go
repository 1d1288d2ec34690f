package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gcbfs/internal/frontier"
	"gcbfs/internal/mpi"
	"gcbfs/internal/wire"
)

// pairRec is one binned pair with its lane set (at most two words here), as
// the oracle compares them: a comparable value, so a block is a multiset.
type pairRec struct {
	frontier.Pair
	lanes [2]uint64
}

func comparePairRecs(a, b pairRec) int {
	return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Val, b.Val), cmp.Compare(a.lanes[0], b.lanes[0]), cmp.Compare(a.lanes[1], b.lanes[1]))
}

// pairCols splits records into the pair round's two columns.
func pairCols(recs []pairRec, w int) ([]frontier.Pair, []uint64) {
	prs, lanes := make([]frontier.Pair, len(recs)), make([]uint64, 0, w*len(recs))
	for i, r := range recs {
		prs[i] = r.Pair
		lanes = append(lanes, r.lanes[:w]...)
	}
	return prs, lanes
}

// TestPairRoundDeliversEveryPair is the pair round's oracle, over ranks ×
// GPUs per rank × compression mode × lane-set width, on seeded bins full of
// repeated ids and of (ID, Val) ties whose lane sets differ:
//
//   - every GPU is handed exactly the (pair, lane set) multiset binned for
//     it, each lane set still beside its pair after a codec-active sort;
//   - the rank's own blocks come first, in bin order, then each other rank's
//     in rank order, in bin order with the codec off and in (ID, Val) order
//     with it on;
//   - the round's raw and wire bytes, sent and received, are what
//     wire.AppendPairsRank charges for the same slots, and the volume applied
//     within the rank is its fixed-width size;
//   - every rank sends p−1 messages, empty or not.
func TestPairRoundDeliversEveryPair(t *testing.T) {
	for _, prank := range []int{1, 3, 5, 8} {
		for _, pgpu := range []int{1, 2, 4} {
			for _, mode := range []wire.Mode{wire.ModeOff, wire.ModeRaw, wire.ModeDelta, wire.ModeAdaptive} {
				for w := 0; w <= 2; w++ {
					t.Run(fmt.Sprintf("%dx%d/%s/w%d", prank, pgpu, mode, w), func(t *testing.T) {
						checkPairRound(t, ClusterShape{Nodes: prank, RanksPerNode: 1, GPUsPerRank: pgpu}, mode, w)
					})
				}
			}
		}
	}
}

func checkPairRound(t *testing.T, shape ClusterShape, mode wire.Mode, w int) {
	prank, pgpu, p := shape.Ranks(), shape.GPUsPerRank, shape.P()
	codec := mode != wire.ModeOff
	rng := rand.New(rand.NewSource(int64(1000*prank + 100*pgpu + 10*int(mode) + w)))

	// binned[r][g] is what rank r bins for GPU g, in bin order.
	binned := make([][][]pairRec, prank)
	rounds := make([]pairRound, prank)
	for r := range rounds {
		rounds[r] = newPairRound(shape, frontier.NewPairBins(p), w)
		binned[r] = make([][]pairRec, p)
		for g := 0; g < p; g++ {
			if rng.Intn(4) == 0 {
				continue
			}
			n := 1 + rng.Intn(60)
			if rng.Intn(8) == 0 {
				n = 200 + rng.Intn(200) // past the radix sort's insertion cutoff
			}
			for i := 0; i < n; i++ {
				rec := pairRec{Pair: frontier.Pair{ID: uint32(rng.Intn(24)), Val: uint64(rng.Intn(3))}}
				if rng.Intn(6) == 0 {
					rec.ID, rec.Val = uint32(rng.Intn(1<<20)), rng.Uint64()
				}
				for j := 0; j < w; j++ {
					if rng.Intn(2) == 0 {
						rec.lanes[j] = 1 << rng.Intn(64) // a straggler: mask-sparse territory
					} else {
						rec.lanes[j] = rng.Uint64()
					}
				}
				binned[r][g] = append(binned[r][g], rec)
			}
			rounds[r].bins.PerGPU[g], rounds[r].lanes[g] = pairCols(binned[r][g], w)
		}
	}

	// What wire.AppendPairsRank charges for the message from src to dst: its
	// slots as they leave, sorted by (ID, Val) with a codec active.
	charge := func(src, dst int) wire.Stats {
		slots, lanes := make([][]frontier.Pair, pgpu), make([][]uint64, pgpu)
		for s := range slots {
			recs := slices.Clone(binned[src][dst*pgpu+s])
			if codec {
				slices.SortStableFunc(recs, comparePairRecs)
			}
			slots[s], lanes[s] = pairCols(recs, w)
		}
		_, st := wire.AppendPairsRank(nil, slots, lanes, w, mode, codec)
		return st
	}

	world := mpi.NewWorld(prank)
	counts := make([]exchangeCounts, prank)
	blocks := make([][][]pairRec, prank) // per rank, per apply call
	err := RunRanks(world, nil, tagSite, func(rank int, comm *mpi.Comm) {
		counts[rank] = rounds[rank].exchange(comm, parentTagBase, mode, func(s int, prs []frontier.Pair, lanes []uint64) {
			if len(lanes) != w*len(prs) {
				t.Errorf("rank %d slot %d: %d pairs with %d lane words", rank, s, len(prs), len(lanes))
				return
			}
			blk := make([]pairRec, len(prs))
			for i, pr := range prs {
				blk[i].Pair = pr
				copy(blk[i].lanes[:w], lanes[i*w:])
			}
			blocks[rank] = append(blocks[rank], blk)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := world.MessagesSent(), int64(prank*(prank-1)); got != want {
		t.Fatalf("%d messages on the wire, want %d", got, want)
	}

	for rank := range blocks {
		c := counts[rank]
		if c.messages != int64(prank-1) {
			t.Fatalf("rank %d accounted %d messages, want %d", rank, c.messages, prank-1)
		}
		if len(blocks[rank]) != prank*pgpu {
			t.Fatalf("rank %d: %d blocks applied, want %d", rank, len(blocks[rank]), prank*pgpu)
		}
		var sent, sentRaw, recv, intra int64
		for dst := 0; dst < prank; dst++ {
			if dst != rank {
				st := charge(rank, dst)
				sent, sentRaw = sent+st.EncodedBytes, sentRaw+st.RawBytes
				recv += charge(dst, rank).EncodedBytes
			}
		}
		// Blocks arrive the rank's own first, then every other rank's.
		srcs := []int{rank}
		for src := 0; src < prank; src++ {
			if src != rank {
				srcs = append(srcs, src)
			}
		}
		for i, got := range blocks[rank] {
			src, s := srcs[i/pgpu], i%pgpu
			want := binned[src][rank*pgpu+s]
			if src == rank {
				intra += int64(12+8*w) * int64(len(want))
			}
			if src == rank || !codec {
				if !slices.Equal(got, want) {
					t.Fatalf("rank %d slot %d from rank %d: block differs from the bin (%d pairs, %d binned)", rank, s, src, len(got), len(want))
				}
				continue
			}
			if !slices.IsSortedFunc(got, func(a, b pairRec) int { return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.Val, b.Val)) }) {
				t.Fatalf("rank %d slot %d from rank %d: block not in (ID, Val) order", rank, s, src)
			}
			sortedGot, sortedWant := slices.Clone(got), slices.Clone(want)
			slices.SortFunc(sortedGot, comparePairRecs)
			slices.SortFunc(sortedWant, comparePairRecs)
			if !slices.Equal(sortedGot, sortedWant) {
				t.Fatalf("rank %d slot %d from rank %d: delivered (pair, lane set) multiset differs from the one binned", rank, s, src)
			}
		}
		if c.sent != sent || c.sentRaw != sentRaw || c.recv != recv || c.intra != intra {
			t.Fatalf("rank %d accounted sent %d (raw %d), received %d, intra %d; AppendPairsRank charges %d (raw %d) and %d, the own bins hold %d",
				rank, c.sent, c.sentRaw, c.recv, c.intra, sent, sentRaw, recv, intra)
		}
	}
}
