// Package frontier provides the queue and binning machinery around the BFS
// visit kernels (§V-B): per-destination-GPU bins for the normal-vertex
// exchange (ids, (id, query-set) records and (id, value) pairs), the
// 64→32-bit vertex-number conversion performed before sending,
// uniquification (duplicate removal within a bin), the radix sorts and
// merges that keep the exchange in canonical order, and the per-iteration
// arena. How bins become bytes is package wire's business alone; the one
// fixed-width layout left here (PackRank/UnpackRankInto) is unframed and
// unchecksummed, and nothing in the library sends it — the host benchmark's
// pack/unpack probes still time it.
package frontier

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Bins accumulates outgoing normal-vertex discoveries grouped by destination
// GPU. Ids stored are already converted to 32-bit local ids at the
// destination (the paper sends 4 bytes per nn edge — the conversion happens
// sender-side since local id = v / p is computable anywhere). Each bin also
// tracks whether it is known sorted — which only uniquification establishes,
// so a bin of two or more ids known sorted is duplicate-free as well: a set,
// which the exchange stages without sorting it again. The bins Add made
// non-empty since the last Reset are listed (Touched), so a superstep that
// binned for a few GPUs finds, stages and empties just those.
type Bins struct {
	PerGPU  [][]uint32
	sorted  []bool
	touched []int
}

// NewBins creates empty bins for p destination GPUs.
func NewBins(p int) *Bins {
	return &Bins{PerGPU: make([][]uint32, p), sorted: make([]bool, p)}
}

// Add appends a destination-local vertex id to gpu's bin.
func (b *Bins) Add(gpu int, localID uint32) {
	if len(b.PerGPU[gpu]) == 0 {
		b.touched = append(b.touched, gpu)
	}
	b.PerGPU[gpu] = append(b.PerGPU[gpu], localID)
	if b.sorted != nil {
		b.sorted[gpu] = false
	}
}

// IsSorted reports whether gpu's bin is known sorted ascending (trivially
// true under two ids). Bins constructed as literals without tracking state
// report false.
func (b *Bins) IsSorted(gpu int) bool {
	if len(b.PerGPU[gpu]) < 2 {
		return true
	}
	return b.sorted != nil && b.sorted[gpu]
}

// Touched lists the GPUs whose bins Add made non-empty since the last
// Reset, in the order it did; every other bin is empty. The list is the
// bins' own: read it before the next Add or Reset.
func (b *Bins) Touched() []int { return b.touched }

// Reset empties the bins Add filled, retaining capacity.
func (b *Bins) Reset() {
	for _, i := range b.touched {
		b.PerGPU[i] = b.PerGPU[i][:0]
		if b.sorted != nil {
			b.sorted[i] = true
		}
	}
	b.touched = b.touched[:0]
}

// Count returns the total number of queued ids.
func (b *Bins) Count() int64 {
	var c int64
	for _, i := range b.touched {
		c += int64(len(b.PerGPU[i]))
	}
	return c
}

// compactSorted drops repeated ids from a sorted list in place. Like mergeTwo
// it steers by arithmetic, not by a branch on the data: every id is written at
// the cursor, and the cursor moves on when the id differs from its
// predecessor.
func compactSorted(ids []uint32) []uint32 {
	if len(ids) < 2 {
		return ids
	}
	k, prev := 1, ids[0]
	for _, v := range ids[1:] {
		ids[k] = v
		k += int((uint64(v^prev) + 1<<32 - 1) >> 32) // v != prev
		prev = v
	}
	return ids[:k]
}

// Uniquify removes duplicate ids within gpu's bin (sort + compact, so the
// result is deterministic) and returns how many duplicates were dropped —
// the §V-B optimization whose payoff the paper found marginal because few
// nn destinations repeat within one GPU's frontier.
func (b *Bins) Uniquify(gpu int, scratch *[]uint32) int64 {
	bin := b.PerGPU[gpu]
	if !b.IsSorted(gpu) {
		SortIDs(bin, scratch)
		if b.sorted != nil {
			b.sorted[gpu] = true
		}
	}
	out := compactSorted(bin)
	b.PerGPU[gpu] = out
	return int64(len(bin) - len(out))
}

// UniquifyAll runs Uniquify on every non-empty bin and returns the total
// removed.
func (b *Bins) UniquifyAll(scratch *[]uint32) int64 {
	var removed int64
	for _, gpu := range b.touched {
		removed += b.Uniquify(gpu, scratch)
	}
	return removed
}

// PackRank serializes the bins destined for the GPUs of one rank in the
// unframed fixed-width layout: for each slot s in [0, gpusPerRank), a uint32
// count followed by count uint32 ids. The library's messages are wire blocks
// (wire.Selector.AppendRankSection); see the package comment.
func (b *Bins) PackRank(rank, gpusPerRank int) []byte {
	return AppendRank(nil, b.PerGPU[rank*gpusPerRank:(rank+1)*gpusPerRank])
}

// AppendRank appends the PackRank layout of one rank's per-slot id lists to
// dst.
func AppendRank(dst []byte, slots [][]uint32) []byte {
	size := 0
	for _, bin := range slots {
		size += 4 + 4*len(bin)
	}
	dst = slices.Grow(dst, size)
	for _, bin := range slots {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(bin)))
		for _, v := range bin {
			dst = binary.LittleEndian.AppendUint32(dst, v)
		}
	}
	return dst
}

// UnpackRankInto parses a PackRank payload, appending each slot's ids to the
// corresponding entry of into (len(into) is the slot count); each slot's
// count header pre-sizes the grow.
func UnpackRankInto(buf []byte, into [][]uint32) error {
	off := 0
	for s := range into {
		if off+4 > len(buf) {
			return fmt.Errorf("frontier: truncated header for slot %d", s)
		}
		count := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		if off+4*int(count) > len(buf) {
			return fmt.Errorf("frontier: truncated payload for slot %d (%d ids)", s, count)
		}
		ids := slices.Grow(into[s], int(count))
		for i := 0; i < int(count); i++ {
			ids = append(ids, binary.LittleEndian.Uint32(buf[off:]))
			off += 4
		}
		into[s] = ids
	}
	if off != len(buf) {
		return fmt.Errorf("frontier: %d trailing bytes", len(buf)-off)
	}
	return nil
}

// Arena is the bump allocator of per-iteration id buffers.
type Arena = Bump[uint32]

// Bump is a bump allocator for per-iteration buffers — ids (Arena), or the
// lane-set words that ride beside a sweep's record ids: the decode/merge
// scratch of one exchange lives exactly one BSP iteration, so instead of a
// fresh make() per decoded block the caller carves slices out of one backing
// array and Resets it at the iteration boundary. The backing array is sized
// to the high-water demand of the previous cycle, so after a one-iteration
// warmup every Alloc is a pointer bump — zero heap allocations on the steady
// state. Slices handed out remain valid after Reset grows the backing array
// (they keep pointing into the old one); they are invalidated only by the
// next allocation cycle reusing the space, which is exactly the
// one-iteration lifetime contract.
type Bump[T any] struct {
	buf  []T
	off  int
	need int
}

// Alloc returns a length-0, capacity-n slice backed by the arena; a nil
// arena allocates plainly. When the current backing array is exhausted
// mid-cycle the slice falls back to a plain allocation and the arena
// remembers the shortfall, so the next Reset sizes the backing array to the
// full observed demand.
func (a *Bump[T]) Alloc(n int) []T {
	if a == nil {
		return make([]T, 0, n)
	}
	a.need += n
	if a.off+n > len(a.buf) {
		return make([]T, 0, n)
	}
	s := a.buf[a.off : a.off : a.off+n]
	a.off += n
	return s
}

// Reset starts a new allocation cycle, growing the backing array to the
// previous cycle's total demand. Slices from the previous cycle must no
// longer be used.
func (a *Bump[T]) Reset() {
	if a.need > len(a.buf) {
		a.buf = make([]T, a.need)
	}
	a.off, a.need = 0, 0
}

// MergeSortedArena is the union of ascending id lists in one ascending slice:
// an id at the head of two lists is emitted once. Lists that are sets —
// strictly ascending, which is how the exchange stages every slot with a
// codec active — therefore merge into a set, and a relay that merges what it
// holds with what arrived forwards each id once however many ranks
// discovered it. (A repeat inside one list is that list's own and survives.)
// The output (and any intermediate accumulators) is drawn from the arena; a
// nil arena falls back to plain allocation. Inputs are never mutated, so the
// output may be retained for the arena's cycle while the inputs live on.
func MergeSortedArena(a *Arena, lists [][]uint32) []uint32 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return append(a.Alloc(len(lists[0])), lists[0]...)
	}
	acc := mergeTwo(a, lists[0], lists[1])
	for _, l := range lists[2:] {
		acc = mergeTwo(a, acc, l)
	}
	return acc
}

// mergeTwo is the union of two ascending lists in a new slice from the arena:
// equal heads are emitted once and both advance. The loop has no branch on the
// data — which head is smaller is a coin flip on frontier ids, and a
// mispredicted branch per id costs about as much as the rest of the loop
// (BenchmarkMergeUnion) — so the two "head ≤ other head" bits come from the
// sign of a 64-bit difference and do all the steering: the minimum by mask,
// each cursor by addition.
func mergeTwo(a *Arena, x, y []uint32) []uint32 {
	out := a.Alloc(len(x) + len(y))[:len(x)+len(y)]
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		u, v := uint64(x[i]), uint64(y[j])
		ule, vle := 1-(v-u)>>63, 1-(u-v)>>63 // u ≤ v, v ≤ u
		out[k] = uint32(v ^ (u^v)&-ule)
		k++
		i += int(ule)
		j += int(vle)
	}
	k += copy(out[k:], x[i:])
	k += copy(out[k:], y[j:])
	return out[:k]
}

// SortSet sorts ids ascending and removes duplicates in place, returning the
// compacted slice: the one compare per id runs over data the sort just
// touched. scratch follows SortIDs's contract.
func SortSet(ids []uint32, scratch *[]uint32) []uint32 {
	SortIDs(ids, scratch)
	return compactSorted(ids)
}

// SortUnique is SortSet without a reusable scratch.
func SortUnique(ids []uint32) []uint32 { return SortSet(ids, nil) }
