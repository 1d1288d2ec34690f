package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gcbfs/internal/frontier"
	"gcbfs/internal/mpi"
	"gcbfs/internal/wire"
)

// pairRec is one binned pair with its lane set (at most two words here), as
// the oracle compares them.
type pairRec struct {
	frontier.Pair
	lanes [2]uint64
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

// pairRoundCases are the pair round oracle's codec cases: both modes on bins
// of mixed pairs, and the adaptive mode on bins shaped so that every
// non-empty block it writes takes one scheme — scattered 32-bit ids with
// 64-bit values (raw) and small clustered ones (packed). The shaped cases
// carry the names of the forced modes that once wrote those schemes ("delta"
// wrote packed pairs blocks). seed keeps each case's draw.
var pairRoundCases = []struct {
	name   string
	mode   wire.Mode
	seed   int64
	draw   func(rng *rand.Rand) frontier.Pair
	shaped bool
	scheme wire.Scheme // shaped: the scheme of every non-empty block
}{
	{"off", wire.ModeOff, 0, mixedPair, false, 0},
	{"adaptive", wire.ModeAdaptive, 1, mixedPair, false, 0},
	{"raw", wire.ModeAdaptive, 2, func(rng *rand.Rand) frontier.Pair {
		return frontier.Pair{ID: rng.Uint32(), Val: rng.Uint64()}
	}, true, wire.SchemeRaw},
	{"delta", wire.ModeAdaptive, 3, func(rng *rand.Rand) frontier.Pair {
		return frontier.Pair{ID: uint32(rng.Intn(24)), Val: uint64(rng.Intn(3))}
	}, true, wire.SchemePacked},
}

// mixedPair draws a pair that mostly repeats a few small (ID, Val) values,
// and one time in six is a 20-bit id with a 64-bit value.
func mixedPair(rng *rand.Rand) frontier.Pair {
	pr := frontier.Pair{ID: uint32(rng.Intn(24)), Val: uint64(rng.Intn(3))}
	if rng.Intn(6) == 0 {
		pr.ID, pr.Val = uint32(rng.Intn(1<<20)), rng.Uint64()
	}
	return pr
}

// TestPairRoundDeliversEveryPair is the pair round's oracle, over ranks ×
// GPUs per rank × codec case × lane-set width, on seeded bins full of
// repeated ids and of (ID, Val) ties whose lane sets differ:
//
//   - every GPU is handed exactly the (pair, lane set) sequence binned for
//     it, in bin order in every mode, each lane set beside its pair;
//   - the rank's own blocks come first, then each other rank's in rank
//     order;
//   - the round's raw and wire bytes, sent and received, are what
//     wire.AppendPairsRank charges for the same slots, and the volume applied
//     within the rank is its fixed-width size;
//   - every rank sends p−1 messages, empty or not;
//   - in a shaped case every non-empty block takes the case's scheme.
func TestPairRoundDeliversEveryPair(t *testing.T) {
	for _, prank := range []int{1, 3, 5, 8} {
		for _, pgpu := range []int{1, 2, 4} {
			for c := range pairRoundCases {
				for w := 0; w <= 2; w++ {
					t.Run(fmt.Sprintf("%dx%d/%s/w%d", prank, pgpu, pairRoundCases[c].name, w), func(t *testing.T) {
						checkPairRound(t, ClusterShape{Nodes: prank, RanksPerNode: 1, GPUsPerRank: pgpu}, c, w)
					})
				}
			}
		}
	}
}

func checkPairRound(t *testing.T, shape ClusterShape, c, w int) {
	prank, pgpu, p := shape.Ranks(), shape.GPUsPerRank, shape.P()
	tc := pairRoundCases[c]
	mode := tc.mode
	rng := rand.New(rand.NewSource(1000*int64(prank) + 100*int64(pgpu) + 10*tc.seed + int64(w)))

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
				n = 200 + rng.Intn(200)
			}
			for i := 0; i < n; i++ {
				rec := pairRec{Pair: tc.draw(rng)}
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

	// What wire.AppendPairsRank charges for the message from src to dst.
	charge := func(src, dst int) wire.Stats {
		slots, lanes := make([][]frontier.Pair, pgpu), make([][]uint64, pgpu)
		for s := range slots {
			slots[s], lanes[s] = pairCols(binned[src][dst*pgpu+s], w)
		}
		_, st := wire.AppendPairsRank(nil, slots, lanes, w, mode)
		if tc.shaped {
			// An empty slot writes no block, only its presence bit.
			var want int64
			for _, prs := range slots {
				if len(prs) > 0 {
					want++
				}
			}
			if st.Selected[tc.scheme] != want {
				t.Fatalf("%s: rank %d to %d wrote %v, want %d %v blocks", tc.name, src, dst, st.Selected, want, tc.scheme)
			}
		}
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
			if !slices.Equal(got, want) {
				t.Fatalf("rank %d slot %d from rank %d: block differs from the bin (%d pairs, %d binned)", rank, s, src, len(got), len(want))
			}
		}
		if c.sent != sent || c.sentRaw != sentRaw || c.recv != recv || c.intra != intra {
			t.Fatalf("rank %d accounted sent %d (raw %d), received %d, intra %d; AppendPairsRank charges %d (raw %d) and %d, the own bins hold %d",
				rank, c.sent, c.sentRaw, c.recv, c.intra, sent, sentRaw, recv, intra)
		}
	}
}
