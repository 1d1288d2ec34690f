package core

// Per-rank reusable scratch for the query hot path. A Session is recycled
// through its Plan's pool, but pooling alone only amortizes the big fixed
// buffers (levels, bitmasks, bins); every iteration of every query still
// allocated its exchange scratch fresh — merge headers, arrival bins, codec
// decode buffers, per-hop vectors. rankScratch owns all of that per rank
// goroutine: slice headers are reused via [:0], id payloads come from a bump
// arena reset at each iteration boundary, and every id sort runs through one
// radix sort whose scatter buffer is reused too.
// None of this changes a single computed value — the scratch is overwritten
// before every read, and the arena hands out zeroed-length slices exactly
// like make() — so determinism and bit-identical results across exchange
// strategies (cmp1–cmp3) are preserved by construction.

import (
	"gcbfs/internal/bitmask"
	"gcbfs/internal/frontier"
	"gcbfs/internal/wire"
)

// rankScratch is one rank goroutine's reusable per-iteration state. It is
// owned by exactly one rank of one in-flight query (Session pooling already
// guarantees no cross-query sharing), so no locking is needed.
type rankScratch struct {
	// arena backs every id slice whose lifetime is one BSP iteration:
	// merged send slots, butterfly hop decode output, pending relay
	// payloads. Reset at the start of each iteration's exchange.
	arena frontier.Arena

	// arrivals are the reusable per-local-slot remote-arrival bins the
	// all-pairs exchange and the repair's probe round decode into (zero-copy:
	// the wire header's count pre-sizes the grow). Backing arrays persist
	// across iterations and queries.
	arrivals [][]uint32

	// apSlots/apHints are the all-pairs merge headers, reused for every
	// destination rank in turn (the encode consumes them immediately).
	apSlots [][]uint32
	apHints []wire.Hint

	// stageSlots/stageHints are the butterfly staging headers: one pgpu-row
	// per destination rank, flat, because the butterfly retains all
	// destinations' merged slots across its hops.
	stageSlots [][]uint32
	stageHints []wire.Hint

	// lists gathers the contributing bins of one merge; pair is the
	// two-list header for pending-relay merges.
	lists [][]uint32
	pair  [2][]uint32

	// secs is the butterfly's per-hop section list.
	secs []wire.Section

	// hopBytes/hopCodecRaw/hopRecvBytes back the exchangeCounts vectors.
	hopBytes     []int64
	hopCodecRaw  []int64
	hopRecvBytes []int64

	// rankMask is the delegate-mask reduction buffer. It is read only after a
	// reduce that reported a contribution, which overwrote it in full, so
	// persisting it across iterations and queries is safe.
	rankMask *bitmask.Mask
	maskIDs  []uint32

	// lanes is the rank's side of the in-flight traversal, rebuilt per query
	// by Session.runWave; loopScratch the superstep loop's own buffers (the
	// repair prologue borrows vec, sums and fbits for its collectives).
	lanes sourceLanes
	loopScratch

	// sortBuf is the rank's radix-sort scatter buffer (frontier.SortIDs),
	// shared by every id sort the rank runs in turn: staging's in-place bin
	// sort, uniquify, and the canonical apply of remote arrivals that are not
	// a union already. It grows to the largest single block sorted, not to
	// the iteration's traffic.
	sortBuf []uint32

	// seedMask holds the repair traversal's merged delegate seed set (every
	// rank keeps an identical copy of the AllreduceOr result); dSeeds/dCursor
	// are its injection schedule, (level, delegate id) keys in ascending
	// order, emptied by Session.reset. Allocated by the first repair on this
	// rank and reused across pooled queries.
	seedMask *bitmask.Mask
	dSeeds   []uint64
	dCursor  int
	// members marks the delegates of a repair's re-pull set (repair_tree.go):
	// the invalidated, the inserted edges' still-valid endpoints, and every
	// one the wave commits a new level to. Derived from replicated data, so
	// identical on every rank; allocated and emptied by repairPreload.
	members *bitmask.Mask

	// parents is the post-BFS canonical parent resolution's reusable state
	// (candidate directory + replay pair bins, see parents.go).
	parents parentScratch

	// rx caches the rank's exchange-strategy instances (and their
	// wire.Selector scheme memories) across pooled queries; rebound and
	// reset per query by rankExchangers.bind.
	rx rankExchangers

	// rtStages/nvStages are the butterfly remoteTime's per-hop codec and
	// NVLink stage buffers; maskExtra holds the chunked delegate-mask wire
	// extras of the fold evaluation. All consumed by the simnet pipeline
	// schedule within the call.
	rtStages  []float64
	nvStages  []float64
	maskExtra []float64

	// wireSecs recycles the butterfly's decoded section headers (Section
	// structs, slot rows, hint rows). Bump-reset with the arena at each
	// iteration's exchange — relayed sections live in pending until the
	// last hop, never longer.
	wireSecs wire.SectionScratch
}

func newRankScratch(prank, pgpu int, d int64) *rankScratch {
	return &rankScratch{
		arrivals:   make([][]uint32, pgpu),
		apSlots:    make([][]uint32, pgpu),
		apHints:    make([]wire.Hint, pgpu),
		stageSlots: make([][]uint32, prank*pgpu),
		stageHints: make([]wire.Hint, prank*pgpu),
		rankMask:   bitmask.New(d),
	}
}

// resetArrivals empties the arrival bins (capacity retained) and returns
// them for this iteration's exchangeCounts.
func (sc *rankScratch) resetArrivals() [][]uint32 {
	for i := range sc.arrivals {
		sc.arrivals[i] = sc.arrivals[i][:0]
	}
	return sc.arrivals
}

// grownInt64 returns a zeroed length-n slice, reusing s's capacity.
func grownInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// grownFloat64 is grownInt64 for float64 slices.
func grownFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}
