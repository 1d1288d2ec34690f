package faults

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func TestPayloadDeterministicReplay(t *testing.T) {
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	a := New(42, KindCorrupt, 1)
	b := New(42, KindCorrupt, 1)
	ma := a.Payload(3, 7, SiteExchange, data)
	mb := b.Payload(3, 7, SiteExchange, data)
	if !bytes.Equal(ma, mb) {
		t.Fatalf("same (seed, decision) produced different mutations: %v vs %v", ma, mb)
	}
	if bytes.Equal(ma, data) {
		t.Fatal("rate-1 corrupt left the payload untouched")
	}
	if data[0] != 1 || data[7] != 8 {
		t.Fatal("injector mutated the sender-owned buffer")
	}
	if a.Injected() != 1 {
		t.Fatalf("Injected = %d, want 1", a.Injected())
	}
}

func TestCorruptFlipsExactlyOneBit(t *testing.T) {
	data := make([]byte, 64)
	m := New(7, KindCorrupt, 1).Payload(0, 0, SiteExchange, data)
	diff := 0
	for i := range data {
		x := data[i] ^ m[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt flipped %d bits, want exactly 1", diff)
	}
}

func TestTruncateAndDrop(t *testing.T) {
	data := []byte{9, 9, 9, 9, 9, 9}
	tr := New(5, KindTruncate, 1).Payload(0, 0, SiteExchange, data)
	if len(tr) >= len(data) {
		t.Fatalf("truncate kept %d of %d bytes", len(tr), len(data))
	}
	dr := New(5, KindDrop, 1).Payload(0, 0, SiteExchange, data)
	if len(dr) != 0 {
		t.Fatalf("drop kept %d bytes", len(dr))
	}
}

func TestEmptyPayloadNeverCountsAsInjected(t *testing.T) {
	for _, k := range []Kind{KindCorrupt, KindTruncate, KindDrop} {
		in := New(1, k, 1)
		if out := in.Payload(0, 0, SiteExchange, nil); len(out) != 0 {
			t.Fatalf("%v: empty payload mutated", k)
		}
		if in.Injected() != 0 {
			t.Fatalf("%v: empty payload counted as an injection", k)
		}
	}
}

func TestNextAttemptRekeysDecisions(t *testing.T) {
	in := New(99, KindCorrupt, 0.5)
	pattern := func() []bool {
		var p []bool
		for rank := 0; rank < 8; rank++ {
			for iter := 0; iter < 8; iter++ {
				p = append(p, in.roll(rank, iter, SiteExchange))
			}
		}
		return p
	}
	before := pattern()
	replay := pattern()
	for i := range before {
		if before[i] != replay[i] {
			t.Fatal("same attempt replayed a different decision pattern")
		}
	}
	in.NextAttempt()
	after := pattern()
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("NextAttempt did not re-roll the decision pattern")
	}
}

func TestStallOnlyForStallKind(t *testing.T) {
	if s := New(3, KindCorrupt, 1).Stall(0, 0, SiteIter); s != 0 {
		t.Fatalf("corrupt injector stalled %g s", s)
	}
	in := New(3, KindStall, 1).WithStall(0.25)
	if s := in.Stall(0, 0, SiteIter); s != 0.25 {
		t.Fatalf("stall = %g s, want 0.25", s)
	}
	if in.Injected() != 1 {
		t.Fatalf("Injected = %d, want 1", in.Injected())
	}
}

func TestCrashPanicsWithTypedValue(t *testing.T) {
	in := New(11, KindCrash, 1)
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("rate-1 crash did not panic")
		}
		err, ok := v.(error)
		if !ok || !errors.Is(err, ErrInjected) {
			t.Fatalf("crash panic value %v not ErrInjected-typed", v)
		}
		c, ok := v.(Crash)
		if !ok || c.Rank != 2 || c.Iter != 5 || c.Site != SiteIter {
			t.Fatalf("crash coordinates %+v, want rank 2 iter 5 site %q", v, SiteIter)
		}
	}()
	in.Crash(2, 5, SiteIter)
}

func TestSiteFilter(t *testing.T) {
	in := New(17, KindCorrupt, 1).WithSites(SiteParents)
	data := []byte{1, 2, 3, 4}
	if out := in.Payload(0, 0, SiteExchange, data); !bytes.Equal(out, data) {
		t.Fatal("filtered site fired")
	}
	if out := in.Payload(0, 0, SiteParents, data); bytes.Equal(out, data) {
		t.Fatal("allowed site did not fire at rate 1")
	}
	in.WithSites()
	if out := in.Payload(0, 0, SiteExchange, data); bytes.Equal(out, data) {
		t.Fatal("cleared filter still suppressed firing")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	data := []byte{1}
	if out := in.Payload(0, 0, SiteExchange, data); &out[0] != &data[0] {
		t.Fatal("nil injector copied the payload")
	}
	if in.Stall(0, 0, SiteIter) != 0 || in.Injected() != 0 {
		t.Fatal("nil injector not inert")
	}
	in.Crash(0, 0, SiteIter)
	in.NextAttempt()
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range append(Kinds(), KindNone) {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("meteor"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// ParseKind converts a CLI spelling into a Kind. No library path parses a
// kind; it stays as the subject of TestParseKindRoundTrip.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "none":
		return KindNone, nil
	case "corrupt":
		return KindCorrupt, nil
	case "truncate":
		return KindTruncate, nil
	case "drop":
		return KindDrop, nil
	case "stall":
		return KindStall, nil
	case "crash":
		return KindCrash, nil
	}
	return KindNone, fmt.Errorf("faults: unknown fault kind %q", s)
}

// WithStall sets the simulated seconds one stall hit charges and returns the
// injector (builder style). The library keeps the default.
func (in *Injector) WithStall(seconds float64) *Injector {
	in.stallSeconds = seconds
	return in
}
