package frontier

// Record bins for the multi-source shared sweep: like Bins, but each queued
// id carries a w-word query-set mask saying which of the K concurrent
// queries discovered the vertex. Masks are stored flat (w words per id, in
// queue order) so binning stays a bump append with no per-record allocation.

// RecordBins accumulates outgoing (local id, query mask) records grouped by
// destination GPU. Ids are destination-local 32-bit ids, converted
// sender-side exactly as in Bins.
type RecordBins struct {
	w     int
	IDs   [][]uint32
	Masks [][]uint64 // flat: w words per id, parallel to IDs
}

// NewRecordBins creates empty record bins for p destination GPUs with w mask
// words per record.
func NewRecordBins(p, w int) *RecordBins {
	return &RecordBins{w: w, IDs: make([][]uint32, p), Masks: make([][]uint64, p)}
}

// Add appends a record to gpu's bin. mask must be w words; it is copied.
func (b *RecordBins) Add(gpu int, localID uint32, mask []uint64) {
	b.IDs[gpu] = append(b.IDs[gpu], localID)
	b.Masks[gpu] = append(b.Masks[gpu], mask[:b.w]...)
}

// Mask returns the i-th record's mask view in gpu's bin.
func (b *RecordBins) Mask(gpu, i int) []uint64 {
	return b.Masks[gpu][i*b.w : (i+1)*b.w]
}

// Reset empties all bins, retaining capacity.
func (b *RecordBins) Reset() {
	for i := range b.IDs {
		b.IDs[i] = b.IDs[i][:0]
		b.Masks[i] = b.Masks[i][:0]
	}
}

// Count returns the total number of queued records.
func (b *RecordBins) Count() int64 {
	var c int64
	for _, bin := range b.IDs {
		c += int64(len(bin))
	}
	return c
}

// MergeRecords is the union of two record sets — strictly ascending ids x and
// y, each with its w-word lane set (xl, yl: flat, in id order) — drawn from
// the arenas (nil allocates): an id at both heads is emitted once with the OR
// of its two lane sets, so a relay forwards each vertex once with every lane
// that reached it. The inputs are never mutated.
func MergeRecords(ids *Arena, lanes *Bump[uint64], x []uint32, xl []uint64, y []uint32, yl []uint64, w int) ([]uint32, []uint64) {
	out, outL := ids.Alloc(len(x)+len(y)), lanes.Alloc((len(x)+len(y))*w)
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		switch {
		case j == len(y) || i < len(x) && x[i] < y[j]:
			out, outL = append(out, x[i]), append(outL, xl[i*w:(i+1)*w]...)
			i++
		case i == len(x) || y[j] < x[i]:
			out, outL = append(out, y[j]), append(outL, yl[j*w:(j+1)*w]...)
			j++
		default:
			out, outL = append(out, x[i]), append(outL, xl[i*w:(i+1)*w]...)
			row := outL[len(outL)-w:]
			for k, word := range yl[j*w : (j+1)*w] {
				row[k] |= word
			}
			i++
			j++
		}
	}
	return out, outL
}
