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

// rankScratch is one rank's reusable per-iteration state. It is owned by
// exactly one rank of one in-flight query (Session pooling already guarantees
// no cross-query sharing), and a phase touches it from that rank's share
// alone, so no locking is needed.
type rankScratch struct {
	// exchangeScratch is the rank's exchange: its strategy instances and
	// their buffers, which a repair's probe round uses as a superstep does.
	exchangeScratch

	// dt is the rank's delegate tier, which its GPUs share (gpuState.dt).
	dt delegateTier

	// lists gathers the contributing bins of one merge (mergeForRank).
	lists [][]uint32

	// rankMask is the delegate-mask reduction buffer. It is read only after a
	// reduce that reported a contribution, which overwrote it in full, so
	// persisting it across iterations and queries is safe.
	rankMask *bitmask.Mask
	maskIDs  []uint32

	// lanes is the rank's side of the in-flight traversal, rebuilt per query
	// by Session.bindWave (and, for its round, by a repair's probe before it);
	// loopScratch the superstep loop's own buffers (a repair's prologue
	// borrows mx for its max-fold, its finisher sums).
	lanes sourceLanes
	loopScratch

	// sortBuf is the rank's radix-sort scatter buffer (frontier.SortIDs),
	// shared by every id sort the rank runs in turn: staging's in-place bin
	// sort, uniquify, and the canonical apply of remote arrivals that are not
	// a union already. It grows to the largest single block sorted, not to
	// the iteration's traffic.
	sortBuf []uint32

	// dSeeds/dCursor are the repair traversal's delegate injection schedule,
	// (level, delegate id) keys in ascending order, emptied by Session.reset;
	// every rank builds the identical one from replicated data. dTent is this
	// rank's partial tentative levels for the delegates the repair
	// invalidated (repairPrologue.voided), negated (repairProbe). Both are
	// reused across pooled queries.
	dSeeds  []uint64
	dCursor int
	dTent   []int64
	// probeComp, seedLo/seedHi and seedCounts carry a repair's prologue from
	// phase to phase (repairPrologue): the probe scan's compute seconds, the
	// wave's global seed-level span, and the rank's normal seeds per level.
	probeComp      float64
	seedLo, seedHi int64
	seedCounts     []int64
	// members marks the delegates of a repair's re-pull set (repair_tree.go):
	// the invalidated, the inserted edges' still-valid endpoints, and every
	// one the wave commits a new level to. Derived from replicated data, so
	// identical on every rank; allocated and emptied by repairPreload.
	members *bitmask.Mask

	// parents is the post-BFS canonical parent resolution's reusable state
	// (delegate candidates + replay pair bins, see parents.go).
	parents parentScratch
}

func newRankScratch(prank, pgpu int, d int64) *rankScratch {
	return &rankScratch{
		exchangeScratch: newExchangeScratch(prank, pgpu, 0),
		dt:              delegateTier{level: make([]int32, d), visited: bitmask.New(d), front: bitmask.New(d)},
		rankMask:        bitmask.New(d),
	}
}

// exchangeScratch is one rank's exchange state, whatever its lanes carry: the
// strategy instances (rx) and the buffers they reuse from superstep to
// superstep. A Session's rank keeps one across pooled queries, a sweep's rank
// one for the sweep.
type exchangeScratch struct {
	// arena and words back every id slice and lane-set slice whose lifetime
	// is one BSP iteration: staged slots, butterfly hop decode output,
	// pending relay unions. Reset at the start of each iteration's exchange.
	arena frontier.Arena
	words frontier.Bump[uint64]

	// arrivals are the reusable per-local-slot remote-arrival bins the
	// all-pairs exchange decodes into (zero-copy: the wire header's count
	// pre-sizes the grow), arrivalLanes their lane sets when the payload has
	// any. Backing arrays persist across iterations and queries.
	arrivals     [][]uint32
	arrivalLanes [][]uint64

	// apRow is the all-pairs staging row, reused for every destination rank
	// in turn (the encode consumes it immediately); stageRows are the
	// butterfly's, one per destination rank, because the butterfly retains
	// every destination's staged slots across its hops.
	apRow     wire.Section
	stageRows []wire.Section

	// pair is the two-list header for pending-relay merges; secs the
	// butterfly's per-hop section list.
	pair [2][]uint32
	secs []wire.Section

	// hopBytes/hopCodecRaw/hopRecvBytes back the exchangeCounts vectors.
	hopBytes     []int64
	hopCodecRaw  []int64
	hopRecvBytes []int64

	// rx caches the rank's exchange-strategy instances; bound per query by
	// rankExchangers.bind. Both encode through sel, the rank's codec scratch.
	rx  rankExchangers
	sel wire.Selector

	// rtStages/nvStages are the butterfly remoteTime's per-hop codec and
	// NVLink stage buffers; maskExtra holds the chunked delegate-mask wire
	// extras of the fold evaluation. All consumed by the simnet pipeline
	// schedule within the call.
	rtStages  []float64
	nvStages  []float64
	maskExtra []float64

	// wireSecs recycles the butterfly's decoded section headers (Section
	// structs, slot, mask and hint rows). Bump-reset with the arenas at each
	// iteration's exchange — relayed sections live in pending until the last
	// hop, never longer.
	wireSecs wire.SectionScratch
}

// newExchangeScratch sizes a rank's exchange state for prank ranks of pgpu
// GPUs and w lane-set words per id (0: plain ids).
func newExchangeScratch(prank, pgpu, w int) exchangeScratch {
	x := exchangeScratch{
		arrivals:  make([][]uint32, pgpu),
		apRow:     slotRow(0, pgpu, w),
		stageRows: make([]wire.Section, prank),
	}
	if w > 0 {
		x.arrivalLanes = make([][]uint64, pgpu)
	}
	for r := range x.stageRows {
		x.stageRows[r] = slotRow(r, pgpu, w)
	}
	return x
}

// slotRow returns an empty staging row for rank's pgpu slots, with a
// lane-set column when w > 0.
func slotRow(rank, pgpu, w int) wire.Section {
	row := wire.Section{Rank: rank, Slots: make([][]uint32, pgpu), Hints: make([]wire.Hint, pgpu)}
	if w > 0 {
		row.Masks = make([][]uint64, pgpu)
	}
	return row
}

// resetArrivals empties the arrival bins and their lane sets (capacity
// retained) and returns the bins for this iteration's exchangeCounts.
func (x *exchangeScratch) resetArrivals() [][]uint32 {
	for i := range x.arrivals {
		x.arrivals[i] = x.arrivals[i][:0]
	}
	for i := range x.arrivalLanes {
		x.arrivalLanes[i] = x.arrivalLanes[i][:0]
	}
	return x.arrivals
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
