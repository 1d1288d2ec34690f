package wire

// This file applies the codec to the delegate-mask reduction (§V-A). The
// mask's native wire form is its d/8-byte bitmap, which is already optimal
// for the dense masks of early BFS iterations — but late iterations set only
// a handful of delegate bits, and those masks shrink dramatically as sorted
// varint delta streams. Running the set-bit ids through the same adaptive
// raw/delta/bitmap selection as the normal-vertex payloads lets the engine
// charge the allreduce for the smaller of the two forms.

// EncodedMaskBytes returns the wire size of one block encoding the set-bit
// ids of a delegate mask under mode (ids must be sorted ascending, as a
// mask's bit order guarantees), from the schemes' exact sizes — nothing is
// encoded. Callers compare the result against the mask's native bitmap size
// and ship the smaller form; a dense mask encodes as a bitmap block a few
// framing bytes over its native size, so the native form wins exactly when
// the codec has nothing to offer.
func EncodedMaskBytes(ids []uint32, mode Mode) int64 {
	if mode == ModeOff {
		return 4 * int64(len(ids))
	}
	_, size := smallestScheme(ids, isUnique(ids))
	return int64(blockLen(len(ids), size))
}
