// Package faults provides deterministic, replayable fault injection for the
// simulated cluster. An Injector is armed with a seed, a fault kind and a
// rate; every decision point in the engine — a payload about to be sent, an
// iteration boundary, a hop — asks the injector whether to fire. Decisions
// are a pure function of (seed, attempt, kind, rank, iteration, site), so a
// given configuration injects exactly the same faults on every replay, and
// bumping the attempt counter (the retry path) re-rolls every decision
// without losing determinism.
//
// Fault kinds model the transient failures a production GPU cluster sees:
//
//	KindCorrupt   flip bits in an encoded payload after the CRC was computed
//	              — the receiver's checksum must catch it.
//	KindTruncate  cut the tail off a payload, exercising every truncation
//	              branch of the decoders.
//	KindDrop      deliver the message envelope with an empty payload (the
//	              in-process transport cannot lose an envelope without
//	              deadlocking the receiver, so a drop degenerates to the
//	              maximal truncation — which the decoder rejects the same
//	              way a real receive timeout would surface).
//	KindStall     charge a rank extra simulated seconds at an iteration
//	              boundary — no error, only timing skew.
//	KindCrash     panic the rank's share of a phase with a typed Crash
//	              value, exercising the containment and abort machinery.
//
// The injector mutates only copies of payloads — sender-owned buffers are
// never touched — and is safe for concurrent use by every rank.
package faults

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Kind identifies one fault class.
type Kind uint8

const (
	KindNone Kind = iota
	KindCorrupt
	KindTruncate
	KindDrop
	KindStall
	KindCrash
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindCorrupt:
		return "corrupt"
	case KindTruncate:
		return "truncate"
	case KindDrop:
		return "drop"
	case KindStall:
		return "stall"
	case KindCrash:
		return "crash"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Kinds lists every injectable kind, in ablation sweep order.
func Kinds() []Kind {
	return []Kind{KindCorrupt, KindTruncate, KindDrop, KindStall, KindCrash}
}

// ErrInjected is the sentinel every injector-originated error wraps:
// errors.Is(err, ErrInjected) identifies a failure manufactured by the
// chaos machinery (as opposed to organic corruption, which wraps
// wire.ErrCorrupt only).
var ErrInjected = errors.New("injected fault")

// Crash is the typed panic value KindCrash throws inside a rank's work.
// It is an error wrapping ErrInjected, so the containment boundary that
// recovers it can propagate it like any other typed fault.
type Crash struct {
	Rank int
	Iter int
	Site string
}

func (c Crash) Error() string {
	return fmt.Sprintf("faults: injected crash at rank %d iteration %d site %q", c.Rank, c.Iter, c.Site)
}

// Unwrap makes errors.Is(c, ErrInjected) true.
func (c Crash) Unwrap() error { return ErrInjected }

// Sites named by the engine's decision points. Payload sites key on the
// message class the bytes belong to; boundary sites key on where in the BSP
// loop a stall or crash lands.
const (
	SiteExchange = "exchange" // inter-rank frontier payload (all-pairs or butterfly hop)
	SiteSweep    = "sweep"    // multi-source record payload
	SiteProbe    = "probe"    // repair probe payload
	SiteParents  = "parents"  // parent-resolution payload
	SiteIter     = "iter"     // BSP iteration boundary (stall/crash)
)

// Injector decides, deterministically, where faults fire. The zero Injector
// is not valid; construct with New. A nil *Injector is inert: every hook is
// a nil-check away from the fault-free fast path, so an unarmed engine pays
// one predictable branch per decision point.
type Injector struct {
	seed uint64
	kind Kind
	rate float64
	// stallSeconds is the simulated time one KindStall hit charges.
	stallSeconds float64
	// sites, when non-empty, restricts firing to the named decision sites —
	// targeted chaos for exercising one panic path at a time.
	sites map[string]bool

	// attempt re-keys every decision; the retry path bumps it so a retried
	// query sees an independent (but still deterministic) fault pattern.
	attempt atomic.Uint64

	injected atomic.Int64
}

// New returns an injector firing faults of the given kind at the given rate
// (probability per decision point, clamped to [0,1]), keyed by seed.
func New(seed uint64, kind Kind, rate float64) *Injector {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	return &Injector{seed: seed, kind: kind, rate: rate, stallSeconds: 1e-3}
}

// WithSites restricts the injector to the named decision sites (builder
// style). An empty call clears the filter, restoring fire-anywhere behavior.
func (in *Injector) WithSites(sites ...string) *Injector {
	if len(sites) == 0 {
		in.sites = nil
		return in
	}
	in.sites = make(map[string]bool, len(sites))
	for _, s := range sites {
		in.sites[s] = true
	}
	return in
}

// NextAttempt advances the attempt counter, re-rolling every subsequent
// decision. The retry loop calls it before each re-run so a retried query is
// not doomed to replay the exact faults that killed the previous attempt.
func (in *Injector) NextAttempt() {
	if in == nil {
		return
	}
	in.attempt.Add(1)
}

// Injected returns how many faults have fired so far.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	return in.injected.Load()
}

// splitmix64 is the avalanche of the SplitMix64 generator — a cheap, strong
// bit mixer for decision hashing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// key hashes one decision point into a uniform uint64.
func (in *Injector) key(rank, iter int, site string) uint64 {
	h := splitmix64(in.seed ^ in.attempt.Load()*0x9e3779b97f4a7c15)
	h = splitmix64(h ^ uint64(in.kind))
	h = splitmix64(h ^ uint64(rank)<<32 ^ uint64(uint32(iter)))
	for i := 0; i < len(site); i++ {
		h = splitmix64(h ^ uint64(site[i]))
	}
	return h
}

// roll reports whether the fault fires at this decision point.
func (in *Injector) roll(rank, iter int, site string) bool {
	if in == nil || in.rate == 0 || in.kind == KindNone {
		return false
	}
	if in.sites != nil && !in.sites[site] {
		return false
	}
	// Compare the top 53 bits against the rate as a dyadic fraction — exact
	// for rate 1.0, uniform for everything below.
	return float64(in.key(rank, iter, site)>>11)/float64(1<<53) < in.rate
}

// Payload applies the armed payload fault (corrupt, truncate, drop) to data
// when this decision point fires, returning a mutated copy; otherwise data is
// returned untouched. Boundary kinds (stall, crash) never fire here.
func (in *Injector) Payload(rank, iter int, site string, data []byte) []byte {
	if in == nil {
		return data
	}
	switch in.kind {
	case KindCorrupt, KindTruncate, KindDrop:
	default:
		return data
	}
	if !in.roll(rank, iter, site) {
		return data
	}
	// An already-empty payload cannot be mutated: return it untouched and do
	// NOT count an injection, so Injected() > 0 always means a real fault is
	// in flight (the chaos proof's detected-or-failed invariant relies on it).
	if len(data) == 0 {
		return data
	}
	in.injected.Add(1)
	k := in.key(rank, iter, site)
	switch in.kind {
	case KindCorrupt:
		c := append([]byte(nil), data...)
		// Flip one deterministic bit — the minimal corruption a CRC must
		// still catch.
		pos := int(splitmix64(k) % uint64(len(c)))
		c[pos] ^= 1 << (splitmix64(k+1) % 8)
		return c
	case KindTruncate:
		cut := int(splitmix64(k) % uint64(len(data)))
		return append([]byte(nil), data[:cut]...)
	case KindDrop:
		return []byte{}
	}
	return data
}

// Stall returns the simulated seconds to charge a rank at this boundary —
// zero unless the injector is armed with KindStall and the point fires.
func (in *Injector) Stall(rank, iter int, site string) float64 {
	if in == nil || in.kind != KindStall || !in.roll(rank, iter, site) {
		return 0
	}
	in.injected.Add(1)
	return in.stallSeconds
}

// Crash panics with a typed Crash value when the injector is armed with
// KindCrash and this boundary fires — a real panic on the calling rank
// goroutine, which the engine's containment boundary must recover.
func (in *Injector) Crash(rank, iter int, site string) {
	if in == nil || in.kind != KindCrash || !in.roll(rank, iter, site) {
		return
	}
	in.injected.Add(1)
	panic(Crash{Rank: rank, Iter: iter, Site: site})
}
