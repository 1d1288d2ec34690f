package frontier

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
