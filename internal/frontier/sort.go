package frontier

import "math/bits"

// This file is the one sort the query path uses. The exchange needs ids in
// ascending order (delta/bitmap codec, canonical apply) and the sweep's stage
// its (vertex, bin position) keys in (ID, Val) order, to OR the lane sets of a
// vertex binned twice (sweepLanes.stage); both keys are small
// integers whose range is known from the data — destination-local ids run
// to n/p — so an LSD radix sort over just the bits the keys occupy beats a
// comparison sort by a wide margin and has no comparator to call.
//
// Shape of both sorts: one linear pre-pass finds the largest key and notices
// input that is already ordered (a block is sorted where it is born and only
// merged afterwards, so re-sorts of sorted input are common and must cost one
// scan); then a few stable counting passes of equal digit width (digitPlan)
// ping-pong between the slice and the caller's scratch. Short inputs go
// through an insertion sort: below radixMinLen the counting passes' fixed
// cost (clearing and prefix-summing the buckets) exceeds it.

// radixMinLen is the shortest input the counting passes handle; see
// BenchmarkSortIDs for the crossover.
const radixMinLen = 40

// maxDigitBits bounds one counting pass at 256 buckets: 1 KB of counters on
// the stack. Wider digits save passes only on blocks far larger than the
// exchange produces, and zeroing their counters taxes every small block.
const maxDigitBits = 8

// buckets is one counting pass's histogram. Block lengths fit uint32 (every
// wire layout counts ids in one), which halves the counters' footprint.
type buckets [1 << maxDigitBits]uint32

// digitPlan splits keyBits ≥ 1 significant key bits (unsorted input has a
// non-zero key) over n keys into counting passes of equal digit width. A pass costs its buckets (cleared and
// prefix-summed) plus two walks over the keys, so the digit is capped at
// about log2(n) bits — 64 keys never pay for 256 buckets — and the passes
// share the bits evenly: 10 bits sort in two 5-bit passes of 32 buckets, not
// an 8-bit and a 2-bit pass.
func digitPlan(keyBits, n int) (passes, width int) {
	digit := min(max(bits.Len(uint(n))-1, 4), maxDigitBits)
	passes = (keyBits + digit - 1) / digit
	return passes, (keyBits + passes - 1) / passes
}

// prefixSums turns a histogram into each bucket's first output index.
func prefixSums(count []uint32) {
	sum := uint32(0)
	for d, c := range count {
		count[d], sum = sum, sum+c
	}
}

// growScratch returns a length-n view of *scratch, reallocating when it is
// too small (nil scratch allocates per call).
func growScratch[T any](scratch *[]T, n int) []T {
	if scratch == nil {
		return make([]T, n)
	}
	if cap(*scratch) < n {
		*scratch = make([]T, n)
	}
	return (*scratch)[:n]
}

// SortIDs sorts ids ascending in place. scratch is the caller's reusable
// scatter buffer, grown to len(ids) on demand and never shrunk, so a caller
// that sorts block after block allocates only while its largest block is
// still growing; nil allocates per call. Already-ascending input returns
// after one scan.
func SortIDs(ids []uint32, scratch *[]uint32) {
	if len(ids) < radixMinLen {
		for i := 1; i < len(ids); i++ {
			v := ids[i]
			j := i
			for ; j > 0 && ids[j-1] > v; j-- {
				ids[j] = ids[j-1]
			}
			ids[j] = v
		}
		return
	}
	maxKey, sorted := ids[0], true
	for i := 1; i < len(ids); i++ {
		v := ids[i]
		sorted = sorted && ids[i-1] <= v
		maxKey = max(maxKey, v)
	}
	if sorted {
		return
	}
	passes, width := digitPlan(bits.Len32(maxKey), len(ids))
	src, dst := ids, growScratch(scratch, len(ids))
	mask := uint32(1)<<width - 1
	var count buckets
	for p := 0; p < passes; p++ {
		shift := uint(p * width)
		for _, v := range src {
			count[(v>>shift)&mask]++
		}
		prefixSums(count[:mask+1])
		for _, v := range src {
			d := (v >> shift) & mask
			dst[count[d]] = v
			count[d]++
		}
		clear(count[:mask+1])
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(ids, src)
	}
}

// SortPairs sorts pairs by (ID, Val) in place: a stable radix sort by ID,
// then each run of equal IDs ordered by Val. Runs are short on the traffic
// this serves — the bin positions of one destination vertex — and arrive
// ordered (positions are keyed in the order they were binned), so an
// insertion sort finishes them; a run too long for that recurses into the
// same counting passes keyed by Val. scratch follows SortIDs's contract.
func SortPairs(pairs []Pair, scratch *[]Pair) {
	sortPairsBy(pairs, scratch, false)
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && pairs[hi].ID == pairs[lo].ID {
			hi++
		}
		if hi-lo > 1 {
			sortPairsBy(pairs[lo:hi], scratch, true)
		}
		lo = hi
	}
}

// pairKey is the sort key of one pass family: the Val of an equal-ID run, or
// the ID.
func pairKey(p Pair, byVal bool) uint64 {
	if byVal {
		return p.Val
	}
	return uint64(p.ID)
}

// sortPairsBy stably sorts pairs by ID, or by Val when byVal is set.
func sortPairsBy(pairs []Pair, scratch *[]Pair, byVal bool) {
	if len(pairs) < radixMinLen {
		for i := 1; i < len(pairs); i++ {
			pr := pairs[i]
			k := pairKey(pr, byVal)
			j := i
			for ; j > 0 && pairKey(pairs[j-1], byVal) > k; j-- {
				pairs[j] = pairs[j-1]
			}
			pairs[j] = pr
		}
		return
	}
	maxKey, sorted := pairKey(pairs[0], byVal), true
	for i := 1; i < len(pairs); i++ {
		k := pairKey(pairs[i], byVal)
		sorted = sorted && pairKey(pairs[i-1], byVal) <= k
		maxKey = max(maxKey, k)
	}
	if sorted {
		return
	}
	passes, width := digitPlan(bits.Len64(maxKey), len(pairs))
	src, dst := pairs, growScratch(scratch, len(pairs))
	mask := uint64(1)<<width - 1
	var count buckets
	for p := 0; p < passes; p++ {
		shift := uint(p * width)
		for _, pr := range src {
			count[(pairKey(pr, byVal)>>shift)&mask]++
		}
		prefixSums(count[:mask+1])
		for _, pr := range src {
			d := (pairKey(pr, byVal) >> shift) & mask
			dst[count[d]] = pr
			count[d]++
		}
		clear(count[:mask+1])
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(pairs, src)
	}
}
