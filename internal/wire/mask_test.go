package wire

import "testing"

// TestEncodedMaskBytes: sparse masks must shrink well below their native
// bitmap size, dense masks must land within framing overhead of it, and the
// block must round-trip to the identical id set.
func TestEncodedMaskBytes(t *testing.T) {
	const d = 1 << 16 // delegate space; native mask = d/8 bytes
	native := int64(d / 8)

	sparse := []uint32{5, 900, 4096, 40000, 65535}
	if got := EncodedMaskBytes(sparse, ModeAdaptive); got >= native/10 {
		t.Fatalf("sparse mask encoded to %d B, want well below native %d B", got, native)
	}

	dense := make([]uint32, 0, d/2)
	for i := uint32(0); i < d; i += 2 {
		dense = append(dense, i)
	}
	if got := EncodedMaskBytes(dense, ModeAdaptive); got > native+64 {
		t.Fatalf("dense mask encoded to %d B, want within framing of native %d B", got, native)
	}

	// The size is the block's, which round-trips to the identical id set.
	for _, ids := range [][]uint32{sparse, dense, nil} {
		buf, _ := appendIDs(nil, ids, ModeAdaptive, HintSorted, nil, 0)
		if got := EncodedMaskBytes(ids, ModeAdaptive); got != int64(len(buf)) {
			t.Fatalf("%d ids: EncodedMaskBytes %d, the block is %d bytes", len(ids), got, len(buf))
		}
		got, n, _, err := decodeOne(buf)
		if err != nil || n != len(buf) || !equalIDs(got, ids) {
			t.Fatalf("decode: ids=%v n=%d err=%v", got, n, err)
		}
	}

	// ModeOff reports the fixed-width equivalent (callers skip encoding).
	if got := EncodedMaskBytes(sparse, ModeOff); got != 4*int64(len(sparse)) {
		t.Fatalf("ModeOff size %d, want %d", got, 4*len(sparse))
	}
}
