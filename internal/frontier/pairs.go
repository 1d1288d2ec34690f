package frontier

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Pair carries a destination-local vertex id plus a 64-bit payload: the
// parent global id in the BFS-tree exchange, a float64's bits in PageRank
// contributions, or a component label in connected components. This is the
// "associative values for normal vertices in addition to the vertex numbers
// themselves" traffic the paper anticipates for algorithms beyond BFS
// (§VI-D).
type Pair struct {
	ID  uint32
	Val uint64
}

// PairBins accumulates outgoing (id, value) pairs per destination GPU.
type PairBins struct {
	PerGPU [][]Pair
}

// NewPairBins creates empty bins for p GPUs.
func NewPairBins(p int) *PairBins {
	return &PairBins{PerGPU: make([][]Pair, p)}
}

// Add appends a pair to gpu's bin.
func (b *PairBins) Add(gpu int, id uint32, val uint64) {
	b.PerGPU[gpu] = append(b.PerGPU[gpu], Pair{ID: id, Val: val})
}

// Reset empties all bins, retaining capacity.
func (b *PairBins) Reset() {
	for i := range b.PerGPU {
		b.PerGPU[i] = b.PerGPU[i][:0]
	}
}

// Count returns the total queued pairs.
func (b *PairBins) Count() int64 {
	var c int64
	for _, bin := range b.PerGPU {
		c += int64(len(bin))
	}
	return c
}

// Bytes returns the wire size at 12 bytes per pair (4-byte id + 8-byte
// value), excluding headers — 3× the plain BFS exchange, the §VI-D point
// about heavier traffic for general algorithms.
func (b *PairBins) Bytes() int64 { return 12 * b.Count() }

// PackRank serializes the pairs destined for one rank's GPUs: per slot a
// uint32 count then count×(uint32 id, uint64 val).
func (b *PairBins) PackRank(rank, gpusPerRank int) []byte {
	return AppendPairsRank(nil, b.PerGPU[rank*gpusPerRank:(rank+1)*gpusPerRank])
}

// AppendPairsRank appends the PackRank layout of one rank's per-slot pair
// lists to dst, so a caller can reuse its message buffer across queries.
func AppendPairsRank(dst []byte, slots [][]Pair) []byte {
	size := 0
	for _, bin := range slots {
		size += 4 + 12*len(bin)
	}
	dst = slices.Grow(dst, size)
	for _, bin := range slots {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(bin)))
		for _, pr := range bin {
			dst = binary.LittleEndian.AppendUint32(dst, pr.ID)
			dst = binary.LittleEndian.AppendUint64(dst, pr.Val)
		}
	}
	return dst
}

// UnpackPairsRank parses a PairBins.PackRank payload into per-slot pairs.
func UnpackPairsRank(buf []byte, gpusPerRank int) ([][]Pair, error) {
	out := make([][]Pair, gpusPerRank)
	if err := UnpackPairsRankInto(buf, out); err != nil {
		return nil, err
	}
	return out, nil
}

// UnpackPairsRankInto parses a PackRank payload of len(into) slots,
// overwriting each into[s] in place (capacity reused).
func UnpackPairsRankInto(buf []byte, into [][]Pair) error {
	off := 0
	for s := range into {
		if off+4 > len(buf) {
			return fmt.Errorf("frontier: truncated pair header for slot %d", s)
		}
		count := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		if off+12*int(count) > len(buf) {
			return fmt.Errorf("frontier: truncated pair payload for slot %d (%d pairs)", s, count)
		}
		pairs := slices.Grow(into[s][:0], int(count))[:count]
		for i := range pairs {
			pairs[i].ID = binary.LittleEndian.Uint32(buf[off:])
			pairs[i].Val = binary.LittleEndian.Uint64(buf[off+4:])
			off += 12
		}
		into[s] = pairs
	}
	if off != len(buf) {
		return fmt.Errorf("frontier: %d trailing pair bytes", len(buf)-off)
	}
	return nil
}
