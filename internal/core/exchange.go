package core

// This file implements the inter-rank normal-vertex exchange (§V-B) as a
// strategy behind a small interface, keeping run.go's BSP loop thin. There is
// one exchanger per strategy for every traversal: what a slot carries is the
// lanes' business (payload) — a single-source query's ids, or a sweep's
// (id, lane-set) records, whose w-word lane-set column rides each slot beside
// its ids — and the exchanger owns everything between staging and applying:
// topology, delivery, relay unions, accounting and timing.
//
// AllPairs is the paper's pattern: every rank sends one message per
// destination rank per iteration — p−1 sends whose size shrinks as ranks
// grow, exactly the sub-2 MB plateau regime §VI-A1 identifies as the
// scalability ceiling. On the host the round rides the superstep's
// pre-exchange rendezvous, as Buluč & Madduri's 1D BFS moves a level's
// frontier in one collective all-to-all: each rank stages and encodes its
// messages before the rendezvous and posts them (mpi.Comm.Post, see
// exchanger.post), and after it each reads what its sources posted for it
// (mpi.Comm.Posted). No message touches a mailbox, no receiver waits for
// one, and a source with nothing for a destination posts it nothing, so the
// receiver learns from the post itself that the message was empty.
//
// Butterfly is the ButterFly BFS pattern (Green 2021) generalized to
// arbitrary rank counts Bruck-style. Let q be the largest power of two ≤ p
// and r = p − q the remainder. A power-of-two run (r = 0) is the plain
// log2(p)-hop hypercube: at hop k a rank exchanges with partner rank XOR
// 2^k, forwarding everything it holds — its own bins plus payloads received
// on earlier hops — that is destined for the partner's half. Ids reach
// their destination by having their rank bits corrected lowest-first, so
// each hop carries up to p/2 destinations' aggregated payload in one
// message: fewer, larger messages, re-encoded through the wire codec per
// hop so the adaptive selector sees the denser aggregated blocks. Green
// argues the pattern pays most when many traversals share a hop — a sweep's
// 64 lanes do, in every record. The hop schedule is static, so each hop is a
// phase of the superstep of its own (run.go): every rank sends hop k in one
// relay step and receives and merges it in the next, past the hop's
// rendezvous, and no receive ever waits for its message.
//
// With a codec active the exchange carries frontier SETS, not multisets: the
// codec sorts every slot where it is staged, the sort puts the duplicates
// side by side, and each place that already walks the sorted ids drops them —
// the stage compacts (mergeForRank), every butterfly relay forwards the union
// of what it holds and what arrived (mergePending), and the destination
// applies the union of its hops' sections. An id that many GPUs discovered in
// one superstep crosses each link once. wire.ModeOff is the paper's
// fixed-width packing and ships what the kernels binned, repeats and all;
// there the paper's U option (Options.Uniquify) is the ablation that removes
// them, per bin, at the price of its own sort. A sweep's records are sets in
// every mode: its stage sorts them and ORs the lane sets of a vertex binned
// twice (sweepLanes.stage, the sweep's uniquify), and a relay ORs the lane
// sets of a vertex it holds twice (frontier.MergeRecords).
//
// Every message of either strategy is wire blocks, encoded and decoded by the
// same calls whatever Options.Compression says; wire.ModeOff, the default, is
// raw blocks under the paper's charging rule — id bytes only (4+8w per
// record), no codec kernel (codecWork, exchangeCounts.message/received) — not
// a second format.
//
// A repair's probe (repair.go) is no message of its own: it is one all-pairs
// round of ids — the valid nn neighbors of invalidated vertices on other
// GPUs — run as superstep probeIter ahead of the wave, its targets staged,
// encoded, posted, accounted and priced (remoteTime) like any superstep's.
// Outside internal/mpi this file is the only one that sends, receives, posts
// or reads a message.
//
// (id, value) pairs have one exchange as well, and it is all-pairs only: the
// pair round (pairRound), one point-to-point message per destination rank,
// sent whether or not it is empty. It carries the tree resolution's parent
// offers after the traversal (§VI-A3: the nn replay, the repair patch's two
// rounds, the sweep's replay with a lane-set column) and the dense analytics'
// values every iteration (§VI-D). Pairs get no butterfly, no posting and no
// relay combining, for a measured reason. Profiled on
// BenchmarkResolveParents/16x2x2-butterfly-adaptive (RMAT 16, 32 ranks, 97 605
// pairs per query, 2-vCPU Intel Xeon), the varint pair encode, decode and the
// sort that fed it took 15 %, 14 % and 13 % of the CPU, and Isend + Recv 2 %;
// the bit-packed scheme that replaced them sorts nothing. A butterfly would
// re-encode each pair on 80/31 ≈ 2.58 hops on average at 32 ranks, and a
// posted round needs a rendezvous to ride, which a pair round outside the
// superstep loop would have to add, both to save part of that 2 %.
//
// When r > 0, two cleanup hops fold the remainder ranks into the hypercube:
// a pre hop where each remainder rank i (q ≤ i < p) ships everything it
// holds to its proxy rank i−q, then the log2(q) hypercube among ranks
// 0..q−1 routing by the folded destination (dst < q ? dst : dst−q), then a
// post hop where each proxy x < r delivers the payload accumulated for rank
// x+q. Sections carry the true destination rank throughout, so folding two
// destinations onto one hypercube coordinate never mixes their payloads.
//
// Both strategies are two-level when a rank holds more than one GPU: the
// rank's GPUs aggregate their per-destination bins over NVLink (the stage —
// the paper's L staging generalized) into ONE merged message per
// destination, and the NVLink copies (aggregation, send/recv staging) ride
// the exchange schedule as a third pipeline resource next to the wire and
// the codec (simnet.PipelinedExchange). The NVLink tier never enters
// remote-normal time: remote-normal stays the wire+codec schedule
// (comparable across GPU counts and the PR trajectory), and the tier's
// critical-path marginal — whatever the hop pipeline could not hide — is
// charged to LocalComm, where intra-rank staging has always lived. With one
// GPU per rank there is nothing to aggregate and no tier: the send and
// receive staging copies are charged serially in LocalComm by run.go.
//
// The butterfly's hops are software-pipelined: hop k's transfer runs under
// hop k−1's decode/merge/re-encode and NVLink stages, so a step costs the
// maximum of the three, not their sum (butterflyExchange.remoteTime).
//
// Both strategies deliver the identical per-slot id set each iteration (how
// often an id repeats depends on the strategy and the codec, and no visit rule
// cares), and the lanes' visit rules make the order irrelevant — run.go
// applies ids in canonical ascending order, a sweep ORs lane bits — so
// levels, parents and every work counter are bit-identical across strategies
// — and across any per-iteration mix of them (the hybrid policy, see
// policy.go) — by construction. Only message pattern, byte volume and the
// simulated remote-normal time differ.

import (
	"fmt"
	"math/bits"
	"slices"

	"gcbfs/internal/frontier"
	"gcbfs/internal/mpi"
	"gcbfs/internal/simnet"
	"gcbfs/internal/wire"
)

// Exchange selects the inter-rank normal-vertex exchange topology.
type Exchange int

const (
	// ExchangeAllPairs sends one message per destination rank per iteration
	// (the paper's §V-B pattern).
	ExchangeAllPairs Exchange = iota
	// ExchangeButterfly runs hypercube hops with per-hop payload aggregation
	// and re-encoding; non-power-of-two rank counts add a pre/post cleanup
	// hop pair that folds the remainder ranks into the nearest power-of-two
	// hypercube (Bruck-style), so every rank count gets the log(p) pattern.
	ExchangeButterfly
	// ExchangeHybrid picks all-pairs or butterfly per BSP iteration from the
	// globally known frontier volume through the policy cost model — the way
	// direction optimization picks push vs pull (see policy.go).
	ExchangeHybrid
)

func (x Exchange) String() string {
	switch x {
	case ExchangeAllPairs:
		return "allpairs"
	case ExchangeButterfly:
		return "butterfly"
	case ExchangeHybrid:
		return "hybrid"
	}
	return fmt.Sprintf("exchange(%d)", int(x))
}

// ParseExchange converts a CLI/Config spelling into an Exchange.
func ParseExchange(s string) (Exchange, error) {
	switch s {
	case "", "allpairs", "all-pairs":
		return ExchangeAllPairs, nil
	case "butterfly":
		return ExchangeButterfly, nil
	case "hybrid":
		return ExchangeHybrid, nil
	}
	return ExchangeAllPairs, fmt.Errorf("core: unknown exchange strategy %q", s)
}

// exchangeCounts is one rank's accounting for one iteration's exchange.
type exchangeCounts struct {
	sent    int64 // bytes counted as sent (codec framing included when active)
	sentRaw int64 // fixed-width 4+8w bytes of every id sent (forwards included)
	recv    int64 // bytes counted as received (for the staging model)
	// forwarded is the fixed-width equivalent of what this rank sent beyond
	// what it originated: sentRaw − forwarded is the originated volume — the
	// ids staged for other ranks, after the stage's union — identical whatever
	// the strategy. Never negative: an originated id leaves its rank exactly
	// once, alone or absorbed into a relay's union with an equal id.
	forwarded int64
	messages  int64 // point-to-point messages sent by this rank
	// codecRaw is the fixed-width equivalent of every id this rank pushed
	// through the wire codec's encode AND decode kernels (zero with the
	// codec off — the paper's fixed-width packing is a plain copy already
	// charged as staging). The butterfly re-encodes per hop, so relayed ids
	// count once per hop on each relaying rank — exactly the log(p)× codec
	// work the timing model must see. A union is charged for what it reads:
	// the stage's sort-and-compact for every id binned (stagedDups on top of
	// the message it produced), a relay's for the message it decoded and the
	// one it encoded.
	codecRaw int64
	scheme   [wire.NumSchemes]int64
	// hopBytes feeds the timing model: per-hop sent volume (one entry for
	// all-pairs; log2(q), plus two cleanup hops when p is not a power of
	// two, for the butterfly). Length is identical on every rank within an
	// iteration so the vectors max-reduce element-wise.
	hopBytes []int64
	// hopCodecRaw splits codecRaw into the per-hop compute stages the
	// pipeline timing model overlaps against the transfers: entry k is the
	// fixed-width equivalent of hop k's decode plus the re-encode feeding
	// hop k+1 (all-pairs lumps its single round's encode+decode into one
	// entry). preCodecRaw is the first hop's encode, which precedes all
	// communication. preCodecRaw + sum(hopCodecRaw) == codecRaw, and the
	// vectors max-reduce element-wise alongside hopBytes.
	hopCodecRaw []int64
	preCodecRaw int64
	// hopRecvBytes mirrors the recv counter per hop: the bytes this rank
	// received in round k, the volume the hierarchical exchange stages over
	// NVLink after each arrival. Same length and reduction convention as
	// hopBytes.
	hopRecvBytes []int64
	// arrivals collects the remote ids received for each local GPU slot, and
	// arrivalLanes their lane sets when the payload has any; the lanes apply
	// them (lanes.exchange). arrivalHints says which slots already are sets in
	// ascending order — the butterfly's, with a codec active, are the union of
	// its hops' sections — and nil that none is known to be. arrived is how
	// many ids came in for them, before any union: what the apply reads.
	arrivals     [][]uint32
	arrivalLanes [][]uint64
	arrivalHints []wire.Hint
	arrived      int64
	// intra is the fixed-width volume applied directly between the rank's own
	// GPUs (NVLink, not NIC) and dups the duplicates removed before sending —
	// both filled in by lanes.exchange around the strategy's own accounting
	// (intra by the pair round itself).
	intra, dups int64
}

// codecWork is what the codec kernels are charged for moving raw fixed-width
// bytes through an encode or a decode: all of them with a codec active,
// nothing with it off — the paper's fixed-width packing is a plain copy,
// already charged as staging.
func codecWork(mode wire.Mode, raw int64) int64 {
	if mode == wire.ModeOff {
		return 0
	}
	return raw
}

// stagedDups accounts the fixed-width bytes a codec-active stage read and
// dropped from what its GPUs binned (never any with the codec off): the
// sort-and-compact kernel read them, so the encode they precede is charged
// for them. It returns the charge.
func (c *exchangeCounts) stagedDups(mode wire.Mode, dropped int64) int64 {
	work := codecWork(mode, dropped)
	c.codecRaw += work
	return work
}

// message accounts one encoded message this rank sends (or, empty and
// unposted, would send): its bytes, the codec's work on it and the schemes it
// picked.
func (c *exchangeCounts) message(st wire.Stats, mode wire.Mode) {
	c.sent += st.EncodedBytes
	c.sentRaw += st.RawBytes
	c.codecRaw += codecWork(mode, st.RawBytes)
	for i, n := range st.Selected {
		c.scheme[i] += n
	}
	c.messages++
}

// received accounts one decoded message of encoded bytes on the wire that
// decoded to raw fixed-width bytes, the receiving mirror of message: with a
// codec active the encoded message and the decode kernel's work on it; with
// the codec off the fixed-width payload alone, the block framing uncharged.
// It returns the bytes charged as received.
func (c *exchangeCounts) received(mode wire.Mode, encoded int, raw int64) int64 {
	if mode == wire.ModeOff {
		c.recv += raw
		return raw
	}
	c.recv += int64(encoded)
	c.codecRaw += raw
	return int64(encoded)
}

// remoteVolumes carries one iteration's globally max-reduced, amplified
// inputs to the remote-normal timing model. Every field is identical on all
// ranks (max-reduced vectors or values derived from globally known state).
type remoteVolumes struct {
	hopBytes    []int64 // per-hop sent wire volume
	hopCodecRaw []int64 // per-hop codec compute stages (fixed-width bytes)
	hopRecv     []int64 // per-hop received wire volume (NVLink staging input)
	preCodecRaw int64   // first hop's encode, preceding all communication
	// aggBytes is the hierarchical intra-rank aggregation's NVLink volume
	// (runEnv.aggregationBytes, amplified and max-reduced); zero at one GPU
	// per rank.
	aggBytes int64
	// maskWire/maskSecs describe the delegate-mask allreduce of the same
	// iteration: its wire bytes (zero when no mask was exchanged) and its
	// serial seconds (the reduced remoteDelegate). The hierarchical butterfly may fold the
	// chunked reduction into its hop schedule for less.
	maskWire int64
	maskSecs float64
}

// remoteTiming is one iteration's remote-normal accounting derived from the
// globally max-reduced per-hop vectors. Every field is deterministic: all
// ranks compute the identical values from the identical reduced inputs.
type remoteTiming struct {
	// seconds is the remote-normal time: the wire rounds plus the exchange
	// codec compute that stayed exposed (all of it for all-pairs; only the
	// unhidden remainder for the butterfly's pipelined hops). The
	// delegate-mask codec is charged separately by run.go.
	seconds float64
	// maxMsg is the largest per-message size the timing model saw.
	maxMsg int64
	// codecSeconds is the exchange's total codec compute, hidden or not.
	codecSeconds float64
	// hiddenCodec is the codec compute the hop pipeline hid under concurrent
	// transfers; stalls counts pipeline steps where a compute or NVLink stage
	// outlasted the transfer it overlapped. Both zero for all-pairs' single
	// round.
	hiddenCodec float64
	stalls      int64
	// nvlinkSeconds is the hierarchical exchange's NVLink tier (aggregation
	// plus staging copies), hidden or not; nvlinkExposed is the tier's
	// critical-path marginal — how much longer the schedule ran for carrying
	// it — which run.go charges to LocalComm (where all staging time lives),
	// keeping seconds a pure wire+codec quantity; hiddenNVLink
	// is the remainder the pipeline absorbed. All three zero at one GPU per
	// rank — the staging is then charged serially in LocalComm by run.go
	// directly.
	nvlinkSeconds float64
	nvlinkExposed float64
	hiddenNVLink  float64
	// maskSecs is the effective delegate-mask allreduce time: the serial
	// remoteVolumes.maskSecs unless the hierarchical butterfly folded the
	// chunked reduction into its hop schedule for less (never more — the fold
	// only applies when it wins).
	maskSecs float64
}

// exchanger is one rank's exchange strategy instance. Instances hold
// per-rank scratch (pending payloads, encode buffers) and live for one run;
// under the hybrid policy both strategies' instances coexist and encode
// through the rank's one wire.Selector, which keeps no history, so switching
// strategies between iterations changes no block's bytes. allPairsExchange
// and butterflyExchange are the only two.
type exchanger interface {
	// post runs before the pre-exchange rendezvous: all-pairs stages,
	// encodes, accounts and posts every message of the round; the butterfly,
	// whose hops depend on what earlier hops delivered, does nothing.
	post(comm *mpi.Comm, iter int32)
	// relays is how many rendezvous the exchange holds between the pre- and
	// the post-exchange one: none for all-pairs, one per hop for the
	// butterfly.
	relays() int
	// relay is step k < relays() of the exchange, after the pre-exchange
	// rendezvous (k = 0) or the relay rendezvous k−1: the butterfly stages
	// (k = 0) or takes in hop k−1's arrival, and sends hop k.
	relay(comm *mpi.Comm, iter int32, k int)
	// exchange runs after the last of those rendezvous: it completes this
	// iteration's exchange — all-pairs reads its sources' posts, the
	// butterfly takes in its last hop — and returns the accounting plus
	// arrivals, held in the instance's scratch until its next post.
	exchange(comm *mpi.Comm, iter int32) *exchangeCounts
	// rounds is the number of sequential communication rounds per
	// iteration — the length of every exchangeCounts.hopBytes.
	rounds() int
	// remoteTime converts one iteration's globally max-reduced volumes into
	// the remote-normal timing. Deterministic: every rank's instance computes
	// the identical result, so a superstep's closer prices it on whichever
	// rank it runs. It is a pure function of in and of scratch the instance
	// owns, and reads nothing the exchange wrote: the policy runs it on
	// predict's volumes before the iteration's exchange has happened.
	remoteTime(in remoteVolumes) remoteTiming
	// predict returns the volumes this strategy would present to remoteTime
	// for an exchange originating vol fixed-width bytes per rank, whose wire
	// bytes are wireRatio of the raw (see policyFeedback.wireRatio). The
	// result lives in the instance's buffers until the next call.
	predict(vol int64, wireRatio float64) remoteVolumes
}

// payload is the lanes' side of the exchange — a single-source query's ids
// (sourceLanes) or a sweep's (id, lane-set) records (sweepLanes): how wide a
// slot's lane-set column is, which ranks the superstep's bins hold anything
// for, and how the bins become one staged slot list per destination GPU.
// Applying what arrives is the lanes' too (lanes.exchange).
type payload interface {
	// width is the lane-set words per id: 0 for plain ids.
	width() int
	// destinations sets has[r] for every rank r the rank's GPUs binned
	// anything for, leaving the other entries as they are.
	destinations(has []bool)
	// stage writes dst's slots into row — Slots, Hints and, with a lane-set
	// column, Masks, one entry per destination GPU, merged storage drawn from
	// the exchange arenas — and returns the fixed-width bytes it read and
	// dropped, which the first encode is charged for (stagedDups).
	stage(dst int, row *wire.Section) (dropped int64)
}

// exchangeRank is what both strategy instances of one rank share: the
// query's environment, the rank, its exchange scratch and its payload.
type exchangeRank struct {
	e    *runEnv
	rank int
	sc   *exchangeScratch
	pl   payload
}

// rankExchangers lazily constructs and caches one rank's strategy instances
// so the per-iteration policy decision can dispatch without rebuilding
// scratch. The instances live in the rank's scratch and persist across
// pooled queries; bind re-arms them for a fresh query.
type rankExchangers struct {
	exchangeRank
	ap *allPairsExchange
	bf *butterflyExchange
}

// bind points the cached strategy instances at this query's environment,
// scratch and payload and clears the butterfly's pending relays, so a
// recycled exchanger encodes exactly like a fresh one (per-query wire bytes
// stay bit-identical to the unpooled behavior).
func (rx *rankExchangers) bind(e *runEnv, rank int, sc *exchangeScratch, pl payload) *rankExchangers {
	rx.exchangeRank = exchangeRank{e: e, rank: rank, sc: sc, pl: pl}
	if rx.bf != nil {
		clear(rx.bf.pending)
	}
	return rx
}

func (rx *rankExchangers) get(strategy Exchange) exchanger {
	prank := rx.e.shape.Ranks()
	switch strategy {
	case ExchangeButterfly:
		if rx.bf == nil {
			q, rem, nhops := hypercubeGeometry(prank)
			rx.bf = &butterflyExchange{
				exchangeRank: &rx.exchangeRank,
				q:            q,
				rem:          rem,
				nhops:        nhops,
				pending:      make([]wire.Section, prank),
			}
		}
		return rx.bf
	default:
		if rx.ap == nil {
			rx.ap = &allPairsExchange{exchangeRank: &rx.exchangeRank}
		}
		return rx.ap
	}
}

// hypercubeGeometry derives the generalized butterfly's shape for a rank
// count: the largest power-of-two hypercube q that fits, the remainder
// ranks folded in by the cleanup hops, and the log2(q) hypercube hop count.
// The butterfly instance keeps it, and both its exchange and its predict
// read it there, so a predicted hop profile always matches what the
// exchange executes.
func hypercubeGeometry(prank int) (q, rem, nhops int) {
	q = 1 << (bits.Len(uint(prank)) - 1)
	return q, prank - q, bits.Len(uint(q)) - 1
}

// hopTag derives a distinct MPI tag per (iteration, hop); strategies never
// mix within one iteration (the policy decision is global), and the parent
// resolution round sits at 1<<30, far outside both.
func hopTag(iter int32, hop int) int {
	return int(iter)*64 + hop
}

// mergeForRank is the id payload's stage (sourceLanes.stage): it gathers all
// of this rank's bins destined for dst's GPUs into one id list per
// destination slot (written into the caller's merged/hints headers, len pgpu
// each), merging every source GPU of this rank, and returns how many of the
// ids the bins held it dropped as repeats.
//
// This is where a block is born, and with a codec active it is born a set:
// sorted — once, in place: a single contributor's bin where it lies (the rank
// owns its bins), several contributors' concatenation in the arena — and
// compacted in the same breath, the duplicate test one compare per id on data
// the sort just touched. From here on the ids are only unioned (at each
// butterfly relay and on arrival) and encoded as the set they are
// (wire.HintSet), never sorted nor scanned for repeats again. Bins Uniquify
// already turned into sets union instead: U only moves where a duplicate is
// dropped, so the slot — and every byte on the wire — is the same with it on
// or off. With the codec off nothing needs the order and nothing is dropped:
// raw blocks carry the slot as the kernels left it, contributors
// concatenated, and a slot that happens to be ascending is still a multiset.
//
// Allocation contract: a single-contributor slot references the bin directly
// — zero copy, and with a codec active sorted and compacted in that bin, whose
// tail past the slot is then stale. That is safe because the encoders only
// read the slots, the intra-rank apply reads only this rank's own destination
// bins (never staged here), and bins.Reset() (run.go, after the exchange)
// drops the contents unread. Multi-contributor slots draw their merged output
// from the per-iteration arena. Callers may retain the slot slices for the
// current iteration only.
func (e *Session) mergeForRank(myGPUs []*gpuState, dst int, sc *rankScratch, merged [][]uint32, hints []wire.Hint) (dropped int64) {
	pgpu := e.shape.GPUsPerRank
	codec := e.opts.Compression != wire.ModeOff
	lists := sc.lists
	for s := 0; s < pgpu; s++ {
		dstGPU := dst*pgpu + s
		lists = lists[:0]
		total, allSets := 0, true
		for _, gs := range myGPUs {
			if bin := gs.bins.PerGPU[dstGPU]; len(bin) > 0 {
				lists = append(lists, bin)
				total += len(bin)
				allSets = allSets && gs.bins.IsSorted(dstGPU)
			}
		}
		merged[s], hints[s] = nil, wire.HintNone
		if codec {
			hints[s] = wire.HintSet
		}
		switch {
		case len(lists) == 0:
			continue
		case len(lists) == 1:
			merged[s] = lists[0]
		case codec && allSets:
			merged[s] = frontier.MergeSortedArena(&sc.arena, lists)
		default:
			out := sc.arena.Alloc(total)
			for _, l := range lists {
				out = append(out, l...)
			}
			merged[s] = out
		}
		if codec && !allSets {
			merged[s] = frontier.SortSet(merged[s], &sc.sortBuf)
		}
		dropped += int64(total - len(merged[s]))
	}
	sc.lists = lists
	return dropped
}

// ---- all-pairs ----

type allPairsExchange struct {
	*exchangeRank
	// empty is how a message carrying no ids is accounted under emptyMode
	// with emptyWidth lane-set words per id: the sender's Stats for it, whose
	// EncodedBytes is also what a receiver accounts for a source that posted
	// it nothing. An empty block has no payload to choose a scheme for, so
	// the charge depends on the mode, the slot count and the width alone. The
	// zero value is already right for plain ids under ModeOff, which charges
	// id bytes only, and there are none.
	empty      wire.Stats
	emptyMode  wire.Mode
	emptyWidth int
	// sendAll, set by tests only, posts every message, empty ones included,
	// so every message is really delivered: the exchange without empty
	// posts, to hold its accounting against.
	sendAll bool
	// has marks the destination ranks this rank's GPUs binned anything for
	// (payload.destinations).
	has []bool
	// msgBufs is the per-destination reusable encode buffer and the slice
	// post hands to mpi.Comm.Post: entry dst is the message for rank dst,
	// empty when there is none to deliver. Every reader has decoded it before
	// the iteration's post-exchange rendezvous, and this rank rewrites it
	// only after that rendezvous has returned (the posting contract).
	msgBufs [][]byte
	// out is the send side's accounting, from post until exchange completes
	// it with the receives.
	out exchangeCounts
	// pred backs predict's one-round wire and codec vectors.
	pred [2]int64
}

func (x *allPairsExchange) rounds() int { return 1 }

// relays is none: the round rides the pre-exchange rendezvous.
func (x *allPairsExchange) relays() int { return 0 }

func (x *allPairsExchange) relay(*mpi.Comm, int32, int) {}

// emptyMessage returns how one message without ids is accounted under mode:
// its Stats, encoded once per (mode, width) and cached.
func (x *allPairsExchange) emptyMessage(mode wire.Mode) wire.Stats {
	if w := x.pl.width(); x.emptyMode != mode || x.emptyWidth != w {
		_, x.empty = (*wire.Selector)(nil).AppendRankSection(nil, slotRow(0, x.e.shape.GPUsPerRank, w), w, mode)
		x.emptyMode, x.emptyWidth = mode, w
	}
	return x.empty
}

// post stages, encodes and accounts this rank's message for every other
// rank and posts them all at the round's tag. A message with no ids is posted
// empty — nothing to deliver — unless sendAll is set, but it is still
// accounted: bytes, scheme counters and the message count advance exactly as
// if it were sent, which is what the modelled machine does, from the cached
// Stats of an empty message (emptyMessage), so it is not encoded. With the
// codec off an empty message is charged no bytes and tallies no scheme, so
// the count is all of its accounting.
func (x *allPairsExchange) post(comm *mpi.Comm, iter int32) {
	e, rank, sc := x.e, x.rank, x.sc
	prank := e.shape.Ranks()
	mode := e.opts.Compression
	w := x.pl.width()
	sc.arena.Reset()
	sc.words.Reset()
	c := &x.out
	*c = exchangeCounts{}
	if len(x.msgBufs) < prank {
		x.msgBufs = append(x.msgBufs, make([][]byte, prank-len(x.msgBufs))...)
		x.has = make([]bool, prank)
	}
	clear(x.has)
	x.pl.destinations(x.has)

	// One message per destination rank carrying every source GPU's bins for
	// that rank's slots, one wire block per slot (and its lane sets behind
	// it). The encode applies the mode's charging rule: with compression off,
	// id bytes only (the paper's 4·|Enn|; the block framing is not traffic);
	// with a codec active, the encoded message — framing, checksums and all —
	// is what crosses the NIC and what the timing model sees. The staging row
	// is reused per destination: the encode consumes it before the next stage
	// overwrites. Same-rank bins apply directly (lanes.exchange) and never
	// ride the exchange.
	row := &sc.apRow
	var dropped int64
	for dst := 0; dst < prank; dst++ {
		if dst == rank {
			continue
		}
		if !x.has[dst] && !x.sendAll {
			if mode == wire.ModeOff {
				c.messages++
			} else {
				c.message(x.emptyMessage(mode), mode)
			}
			x.msgBufs[dst] = x.msgBufs[dst][:0]
			continue
		}
		dropped += x.pl.stage(dst, row)
		row.Rank = dst
		payload, st := sc.sel.AppendRankSection(x.msgBufs[dst][:0], *row, w, mode)
		c.message(st, mode)
		x.msgBufs[dst] = payload
	}
	// Everything sent was originated here, and the encode is charged for the
	// ids as the GPUs binned them, before the stage's union.
	c.stagedDups(mode, dropped)
	comm.Post(hopTag(iter, 0), x.msgBufs[:prank])
}

// exchange reads the round's posts, decoded zero-copy straight into the
// reusable arrival bins (each block's count header pre-sizes the grow). A
// source that posted this rank nothing had no ids for it: its empty message
// is accounted, and there is nothing to decode.
func (x *allPairsExchange) exchange(comm *mpi.Comm, iter int32) *exchangeCounts {
	e, rank, sc := x.e, x.rank, x.sc
	prank := e.shape.Ranks()
	mode := e.opts.Compression
	w := x.pl.width()
	c := &x.out
	c.arrivals = sc.resetArrivals()
	c.arrivalLanes = sc.arrivalLanes
	for src := 0; src < prank; src++ {
		if src == rank {
			continue
		}
		buf, ok := comm.Posted(src, hopTag(iter, 0))
		if !ok {
			c.recv += x.emptyMessage(mode).EncodedBytes
			continue
		}
		if err := wire.DecodeRankLanesInto(buf, c.arrivals, c.arrivalLanes, w); err != nil {
			panic(fmt.Errorf("core: corrupt exchange payload: %w", err))
		}
		n := countIDs(c.arrivals)
		c.received(mode, len(buf), int64(4+8*w)*(n-c.arrived))
		c.arrived = n
	}
	c.hopBytes = append(sc.hopBytes[:0], c.sent)
	sc.hopBytes = c.hopBytes
	// One communication round: all codec work (encode and decode) is a
	// single compute stage with no earlier transfer to hide under.
	c.hopCodecRaw = append(sc.hopCodecRaw[:0], c.codecRaw)
	sc.hopCodecRaw = c.hopCodecRaw
	c.hopRecvBytes = append(sc.hopRecvBytes[:0], c.recv)
	sc.hopRecvBytes = c.hopRecvBytes
	return c
}

// remoteTime charges one all-pairs round.
func (x *allPairsExchange) remoteTime(in remoteVolumes) remoteTiming {
	e := x.e
	b := in.hopBytes[0]
	msg := e.effMessageBytes(b)
	codec := e.opts.GPU.CodecTime(in.hopCodecRaw[0] + in.preCodecRaw)
	rt := remoteTiming{
		seconds:      e.opts.Net.PointToPoint(b, msg) + codec,
		maxMsg:       msg,
		codecSeconds: codec,
		maskSecs:     in.maskSecs,
	}
	// Hierarchical: the intra-rank aggregation joins the send/recv staging
	// copies as the NVLink tier. All-pairs is a single round, so nothing
	// hides it — the whole tier is exposed, and run.go charges it to
	// LocalComm, keeping seconds the wire+codec remote-normal; only the
	// butterfly's hop pipeline can hide.
	if e.hierExchange() {
		net := e.opts.Net
		nvl := net.LocalExchange(in.aggBytes, e.shape.GPUsPerRank) +
			net.Staging(b) + net.Staging(in.hopRecv[0])
		rt.nvlinkSeconds = nvl
		rt.nvlinkExposed = nvl
	}
	return rt
}

// predict is one all-pairs round: vol on the wire as wireRatio says, floored
// at pairs² bytes, received ≈ sent (the exchange is globally symmetric), and
// with a codec active the encode and the decode of vol as one compute stage.
func (x *allPairsExchange) predict(vol int64, wireRatio float64) remoteVolumes {
	w := onWire(vol, wireRatio)
	// Any volume at all still pays one message per destination — the round
	// is synchronized on the reduced maxima, so even a near-empty predicted
	// frontier meets every pair's latency floor. Below pairs² bytes the
	// ceil-split message count collapses under the pair count and the
	// prediction drops floors the measured side always charges; clamping
	// there costs only a few bytes of phantom bandwidth.
	if pairs := x.e.effPairs(); w > 0 && w < pairs*pairs {
		w = pairs * pairs
	}
	x.pred = [2]int64{w, codecWork(x.e.opts.Compression, 2*vol)}
	return remoteVolumes{
		hopBytes:    x.pred[:1],
		hopCodecRaw: x.pred[1:],
		hopRecv:     x.pred[:1],
		aggBytes:    x.e.aggregationBytes(vol),
	}
}

// onWire converts a fixed-width volume into its predicted wire-byte
// equivalent using the measured compression ratio.
func onWire(vol int64, wireRatio float64) int64 {
	if wireRatio == 1 || vol <= 0 {
		return vol
	}
	w := int64(float64(vol) * wireRatio)
	if w < 1 {
		w = 1
	}
	return w
}

// ---- butterfly ----

type butterflyExchange struct {
	*exchangeRank
	q     int // largest power of two ≤ rank count
	rem   int // remainder ranks folded in by the cleanup hops
	nhops int // log2(q) hypercube hops
	// pending holds, per final destination rank, the section this rank
	// currently carries for it — own bins plus relayed payloads, with what is
	// known of each slot's order — with nil Slots when nothing is pending.
	// The rank's own entry collects what has arrived for it.
	pending []wire.Section
	// encRaw/decRaw are per-iteration scratch: fixed-width bytes pushed
	// through the codec's encode (resp. decode) kernels at each hop, from
	// which exchange() assembles the pipeline's compute stages.
	encRaw, decRaw []int64
	// msgBufs is the per-hop reusable encode buffer: a hop message is
	// always received (and its ids arena-copied) within the same
	// iteration, before the post-exchange rendezvous that every rank passes
	// before the buffer's next rewrite.
	msgBufs [][]byte
	// onSend, set by tests only, sees every hop's outgoing sections just
	// before they are encoded.
	onSend func(hop int, secs []wire.Section)
	// predBytes/predCodec back predict's per-hop wire and codec vectors.
	predBytes, predCodec []int64
	// out is the iteration's accounting, which exchange returns, and ownRaw
	// the fixed-width volume the stage originated.
	out    exchangeCounts
	ownRaw int64
}

// rounds counts the sequential communication rounds per iteration: the
// hypercube hops plus, on non-power-of-two rank counts, the pre and post
// cleanup hops.
func (x *butterflyExchange) rounds() int {
	if x.rem > 0 {
		return x.nhops + 2
	}
	return x.nhops
}

// fold maps a destination rank onto its hypercube coordinate: remainder
// ranks ride their proxy's coordinate until the post cleanup hop.
func (x *butterflyExchange) fold(dst int) int {
	if dst >= x.q {
		return dst - x.q
	}
	return dst
}

// post does nothing: what a hop carries depends on what earlier hops
// delivered, and its hops are synchronized pairwise exchanges
// (simnet.ButterflyHop), so the butterfly stages and sends in its relays.
func (x *butterflyExchange) post(*mpi.Comm, int32) {}

// relays is one rendezvous per hop: a hop's message is sent in one relay step
// and taken in by the next (or by exchange), past the hop's rendezvous.
func (x *butterflyExchange) relays() int { return x.rounds() }

// relay stages the iteration's bins (k = 0) or takes in hop k−1's arrival,
// then sends hop k.
func (x *butterflyExchange) relay(comm *mpi.Comm, iter int32, k int) {
	if k == 0 {
		x.stage()
	} else {
		x.receiveHop(comm, iter, k-1)
	}
	x.sendHop(comm, iter, k)
}

// take moves the pending section for dst into the hop's section list.
func (x *butterflyExchange) take(secs []wire.Section, dst int) []wire.Section {
	secs = append(secs, x.pending[dst])
	x.pending[dst] = wire.Section{}
	return secs
}

// peers returns the rank this rank sends hop k to and the one it receives hop
// k from, −1 for none. The pre cleanup hop (when there is a remainder) is a
// one-directional send from each remainder rank i (q ≤ i < p) to its proxy
// i−q, the hypercube hops are pairwise exchanges with partner rank XOR 2^h
// among ranks < q (the remainder ranks idle inside the hypercube), and the post
// cleanup hop is each proxy's delivery to its remainder partner. A rank
// without a partner sits the hop out with a zero hopBytes entry, so the
// vectors still max-reduce element-wise.
func (x *butterflyExchange) peers(k int) (to, from int) {
	rank := x.rank
	if x.rem > 0 {
		switch {
		case k == 0 && rank >= x.q:
			return rank - x.q, -1
		case k == 0 && rank < x.rem:
			return -1, rank + x.q
		case k == x.nhops+1 && rank < x.rem:
			return rank + x.q, -1
		case k == x.nhops+1 && rank >= x.q:
			return -1, rank - x.q
		case k == 0 || k == x.nhops+1:
			return -1, -1
		}
		k--
	}
	if rank >= x.q {
		return -1, -1
	}
	partner := rank ^ 1<<k
	return partner, partner
}

// carries reports whether hop k forwards what is pending for dst: everything a
// remainder rank holds on the pre hop, what is destined for the partner's half
// on a hypercube hop — ids travel by having their folded destination-rank
// bits corrected lowest-first — and the partner's own on the post hop.
func (x *butterflyExchange) carries(k, dst int) bool {
	if x.rem > 0 {
		switch k {
		case 0:
			return true
		case x.nhops + 1:
			return dst == x.rank+x.q
		}
		k--
	}
	return (x.fold(dst)^x.rank)&(1<<k) != 0
}

// stage resets the iteration's scratch and stages its own bins.
func (x *butterflyExchange) stage() {
	e, rank, sc := x.e, x.rank, x.sc
	prank := e.shape.Ranks()
	sc.arena.Reset()
	sc.words.Reset()
	sc.wireSecs.Reset()
	c := &x.out
	*c = exchangeCounts{}
	c.hopBytes = grownInt64(sc.hopBytes, x.rounds())
	sc.hopBytes = c.hopBytes
	c.hopRecvBytes = grownInt64(sc.hopRecvBytes, x.rounds())
	sc.hopRecvBytes = c.hopRecvBytes
	x.encRaw = grownInt64(x.encRaw, x.rounds())
	x.decRaw = grownInt64(x.decRaw, x.rounds())
	if n := x.rounds(); len(x.msgBufs) < n {
		x.msgBufs = append(x.msgBufs, make([][]byte, n-len(x.msgBufs))...)
	}

	// ownRaw is the fixed-width equivalent of originated traffic — the
	// staged slots, sets with a codec active — and everything sent beyond
	// it was forwarded. Each destination keeps its own staging row — the
	// butterfly retains every destination's slots across its hops, so the
	// rows cannot be shared the way all-pairs reuses one.
	rec := 4 + 8*int64(x.pl.width())
	var dropped int64
	x.ownRaw = 0
	for dst := 0; dst < prank; dst++ {
		x.pending[dst] = wire.Section{}
		if dst == rank {
			continue
		}
		row := &sc.stageRows[dst]
		dropped += x.pl.stage(dst, row)
		if n := countIDs(row.Slots); n > 0 {
			x.pending[dst] = *row
			x.ownRaw += rec * n
		}
	}
	// The stage runs before any hop, so what it read and dropped is charged
	// to the first hop's encode, whichever hop its slot leaves on. (No hops,
	// no other ranks, nothing staged.)
	if x.rounds() > 0 {
		x.encRaw[0] = c.stagedDups(e.opts.Compression, dropped)
	}
}

// sendHop sends hop k's sections to the hop's partner, if this rank has one
// on it: everything pending that the hop carries.
func (x *butterflyExchange) sendHop(comm *mpi.Comm, iter int32, k int) {
	to, _ := x.peers(k)
	if to < 0 {
		return
	}
	sc := x.sc
	secs := sc.secs[:0]
	for dst := range x.pending {
		if x.pending[dst].Slots != nil && x.carries(k, dst) {
			secs = x.take(secs, dst)
		}
	}
	sc.secs = secs
	x.out.hopBytes[k] = x.send(comm, to, iter, k, secs, x.e.opts.Compression, &x.out)
}

// receiveHop takes in hop k's message, if this rank has a partner on it.
func (x *butterflyExchange) receiveHop(comm *mpi.Comm, iter int32, k int) {
	if _, from := x.peers(k); from >= 0 {
		x.receive(comm, from, iter, k, x.e.opts.Compression, &x.out)
	}
}

// exchange takes in the last hop and completes the iteration: what is pending
// for this rank is what arrived.
func (x *butterflyExchange) exchange(comm *mpi.Comm, iter int32) *exchangeCounts {
	rank, sc := x.rank, x.sc
	rounds := x.rounds()
	if rounds == 0 {
		x.stage()
	} else {
		x.receiveHop(comm, iter, rounds-1)
	}
	c := &x.out
	// Every relayed id must have reached its destination by the last hop.
	mine := x.pending[rank]
	c.arrivals, c.arrivalHints, c.arrivalLanes = mine.Slots, mine.Hints, mine.Masks
	for dst, p := range x.pending {
		if n := countIDs(p.Slots); dst != rank && n > 0 {
			panic(fmt.Sprintf("core: butterfly left %d ids undelivered for rank %d", n, dst))
		}
		x.pending[dst] = wire.Section{}
	}
	c.forwarded = c.sentRaw - x.ownRaw

	// Assemble the pipeline's compute stages from the per-hop codec scratch:
	// hop k's stage is its decode plus the re-encode feeding hop k+1, and
	// the first hop's encode precedes all communication. The stages sum to
	// codecRaw exactly.
	c.hopCodecRaw = grownInt64(sc.hopCodecRaw, rounds)
	sc.hopCodecRaw = c.hopCodecRaw
	if rounds > 0 {
		c.preCodecRaw = x.encRaw[0]
		for k := 0; k < rounds; k++ {
			c.hopCodecRaw[k] = x.decRaw[k]
			if k+1 < rounds {
				c.hopCodecRaw[k] += x.encRaw[k+1]
			}
		}
	}
	return c
}

// predict profiles the hops of an exchange originating vol bytes per rank.
// With traffic spread uniformly over p−1 destinations, each hypercube hop
// forwards about half the standing volume — vol·p/(2(p−1)) per hop, the
// relay factor the strategy pays for its fewer messages — while the cleanup
// hops move a remainder rank's full origination (pre) and a full rank's
// worth of arrivals (post). Each hop receives what it sends (the hops are
// pairwise exchanges), and the codec stages are assembled the way exchange()
// assembles the measured ones: hop k's decode plus the re-encode feeding
// hop k+1, the first hop's encode the pre stage.
func (x *butterflyExchange) predict(vol int64, wireRatio float64) remoteVolumes {
	prank := x.e.shape.Ranks()
	mode := x.e.opts.Compression
	hopVol := int64(float64(vol) * float64(prank) / (2 * float64(prank-1)))
	n := x.rounds()
	raw := func(k int) int64 {
		if x.rem > 0 && (k == 0 || k == n-1) {
			return vol
		}
		return hopVol
	}
	x.predBytes = grownInt64(x.predBytes, n)
	x.predCodec = grownInt64(x.predCodec, n)
	for k := range n {
		x.predBytes[k] = onWire(raw(k), wireRatio)
		stage := raw(k)
		if k+1 < n {
			stage += raw(k + 1)
		}
		x.predCodec[k] = codecWork(mode, stage)
	}
	in := remoteVolumes{
		hopBytes:    x.predBytes,
		hopCodecRaw: x.predCodec,
		hopRecv:     x.predBytes,
		aggBytes:    x.e.aggregationBytes(vol),
	}
	if n > 0 {
		in.preCodecRaw = codecWork(mode, raw(0))
	}
	return in
}

// send encodes sections into one hop message for dst, accounts it, and
// returns the hop's sent bytes. Empty hops still send (the partner's receive
// is unconditional) and still count as messages — they cross the NIC.
func (x *butterflyExchange) send(comm *mpi.Comm, dst int, iter int32, hop int, secs []wire.Section, mode wire.Mode, c *exchangeCounts) int64 {
	if x.onSend != nil {
		x.onSend(hop, secs)
	}
	payload, st := x.sc.sel.AppendSections(x.msgBufs[hop][:0], secs, x.pl.width(), mode)
	x.msgBufs[hop] = payload
	c.message(st, mode)
	x.encRaw[hop] += codecWork(mode, st.RawBytes)
	comm.Isend(dst, hopTag(iter, hop), payload)
	return st.EncodedBytes
}

// receive decodes one hop's arrival from src and folds its sections into
// pending: the ones addressed to other ranks to be relayed, the one addressed
// to this rank to be applied.
func (x *butterflyExchange) receive(comm *mpi.Comm, src int, iter int32, hop int, mode wire.Mode, c *exchangeCounts) {
	w := x.pl.width()
	buf := comm.Recv(src, hopTag(iter, hop))
	secsIn, err := wire.DecodeSectionsScratch(buf, x.e.shape.GPUsPerRank, w, x.e.shape.Ranks(), &x.sc.arena, &x.sc.words, &x.sc.wireSecs)
	if err != nil {
		panic(fmt.Errorf("core: corrupt butterfly payload (hop %d): %w", hop, err))
	}
	var raw int64
	for _, sec := range secsIn {
		n := countIDs(sec.Slots)
		raw += (4 + 8*int64(w)) * n
		if sec.Rank == x.rank {
			c.arrived += n
		}
		x.mergePending(sec, mode != wire.ModeOff)
	}
	c.hopRecvBytes[hop] += c.received(mode, len(buf), raw)
	x.decRaw[hop] += codecWork(mode, raw)
}

// mergePending folds a received section into the pending payload for its
// destination. With a codec active (sets) both sides are sets — staged slots
// by mergeForRank, decoded ones by construction or by the decoder's check,
// unions of either by induction — so the relay unions them: the next hop's
// encode, or this rank's apply, sees each id once, in order, however many
// ranks sent it. A slot the decoder could not vouch for concatenates and
// loses its hint, which costs the encoder a sort and nothing else. With the
// codec off the slots are multisets in no order: they always concatenate,
// ascending by accident or not, and every repeat rides on. Records are sets
// in every mode — staged by sweepLanes.stage, checked by the decoder — and
// always union, a vertex held twice keeping the OR of its lane sets.
func (x *butterflyExchange) mergePending(sec wire.Section, sets bool) {
	cur := &x.pending[sec.Rank]
	if cur.Slots == nil {
		*cur = sec
		return
	}
	w := x.pl.width()
	for s, inc := range sec.Slots {
		switch {
		case len(inc) == 0:
			// Nothing to merge.
		case len(cur.Slots[s]) == 0:
			cur.Slots[s], cur.Hints[s] = inc, sec.Hints[s]
			if w > 0 {
				cur.Masks[s] = sec.Masks[s]
			}
		case w > 0:
			cur.Slots[s], cur.Masks[s] = frontier.MergeRecords(&x.sc.arena, &x.sc.words, cur.Slots[s], cur.Masks[s], inc, sec.Masks[s], w)
		case sets && cur.Hints[s] == wire.HintSet && sec.Hints[s] == wire.HintSet:
			x.sc.pair[0], x.sc.pair[1] = cur.Slots[s], inc
			cur.Slots[s] = frontier.MergeSortedArena(&x.sc.arena, x.sc.pair[:])
			x.sc.pair[0], x.sc.pair[1] = nil, nil
		default:
			out := x.sc.arena.Alloc(len(cur.Slots[s]) + len(inc))
			cur.Slots[s] = append(append(out, cur.Slots[s]...), inc...)
			cur.Hints[s] = wire.HintNone
		}
	}
}

// remoteTime charges the butterfly's hops through the simnet pipeline model:
// the per-hop codec stages overlap the transfers — hop k's send hides hop
// k−1's decode/merge/re-encode, cleanup hops included. Under the hierarchical
// exchange the NVLink tier joins the schedule as a third resource: hop k's
// transfer also hides hop k−1's staging copies, and the pre stage grows by
// the intra-rank aggregation; the delegate-mask allreduce may additionally
// be folded into the hop steps as chunked wire extras when that beats the
// serial reduction.
func (x *butterflyExchange) remoteTime(in remoteVolumes) remoteTiming {
	hopBytes := in.hopBytes
	var maxMsg int64
	msgCap := x.e.opts.MessageBytes
	for _, b := range hopBytes {
		msg := b
		if msg > msgCap {
			msg = msgCap
		}
		if msg > maxMsg {
			maxMsg = msg
		}
	}
	gpu := x.e.opts.GPU
	stages := grownFloat64(x.sc.rtStages, len(in.hopCodecRaw))
	x.sc.rtStages = stages
	for i, raw := range in.hopCodecRaw {
		stages[i] = gpu.CodecTime(raw)
	}
	pre := gpu.CodecTime(in.preCodecRaw)
	net := x.e.opts.Net
	// NVLink stages: staging is charged per direction per iteration — one
	// engine-setup latency for all sends and one for all receives
	// (simnet.Staging over the direction's total, exactly the LocalComm
	// charge at one GPU per rank) — and the copy time is spread over the
	// hops in proportion to their volume, so the pipeline hides each hop's
	// share under the neighbouring transfers: hop k's stage is its arrival
	// share plus hop k+1's send share, the pre stage the intra-rank
	// aggregation plus the first send's share.
	var nv []float64
	var preNV, nvTotal float64
	if x.e.hierExchange() {
		var sendTot, recvTot int64
		for k := range hopBytes {
			sendTot += hopBytes[k]
			recvTot += in.hopRecv[k]
		}
		sendSecs, recvSecs := net.Staging(sendTot), net.Staging(recvTot)
		nv = grownFloat64(x.sc.nvStages, len(hopBytes))
		x.sc.nvStages = nv
		for k := range hopBytes {
			t := stagingShare(recvSecs, in.hopRecv[k], recvTot)
			if k+1 < len(hopBytes) {
				t += stagingShare(sendSecs, hopBytes[k+1], sendTot)
			}
			nv[k] = t
			nvTotal += t
		}
		preNV = net.LocalExchange(in.aggBytes, x.e.shape.GPUsPerRank)
		if len(hopBytes) > 0 {
			preNV += stagingShare(sendSecs, hopBytes[0], sendTot)
		}
		nvTotal += preNV
	}
	// Remote-normal is the two-resource (wire+codec) schedule; the NVLink
	// tier's exposure is the marginal elapsed cost of carrying it — the
	// difference between the three- and two-resource schedules — which
	// run.go charges to LocalComm. The remainder of the tier hid under the
	// schedule's transfers and compute. Without the tier the two schedules
	// are one.
	sched := simnet.ExchangeSchedule{
		HopBytes: hopBytes,
		HopCodec: stages,
		PreCodec: pre,
		MsgCap:   msgCap,
	}
	wc := net.PipelinedExchange(sched)
	base := wc
	if x.e.hierExchange() {
		sched.HopNVLink, sched.PreNVLink = nv, preNV
		base = net.PipelinedExchange(sched)
	}
	exposedNV := base.Total - wc.Total
	rt := remoteTiming{
		seconds:       wc.Total,
		maxMsg:        maxMsg,
		codecSeconds:  wc.CodecSeconds,
		hiddenCodec:   wc.HiddenCodec,
		nvlinkSeconds: nvTotal,
		nvlinkExposed: exposedNV,
		hiddenNVLink:  nvTotal - exposedNV,
		stalls:        base.Stalls,
		maskSecs:      in.maskSecs,
	}
	// Delegate-mask folding: split the mask allreduce into one chunk per hop
	// and let the chunks ride the steps' wire resource, filling NIC idle
	// time on compute- or NVLink-bound steps. The effective mask cost is
	// then the marginal elapsed delta of the combined schedule — taken only
	// when it beats the serial reduction, so the fold is never worse; the
	// comparison is deterministic from reduced inputs on every rank.
	if x.e.hierExchange() && in.maskWire > 0 && in.maskSecs > 0 && len(hopBytes) >= 2 {
		rounds := int64(len(hopBytes))
		chunk := (in.maskWire + rounds - 1) / rounds
		per := net.Allreduce(chunk, x.e.shape.Ranks(), x.e.opts.BlockingReduce)
		extra := grownFloat64(x.sc.maskExtra, len(hopBytes))
		x.sc.maskExtra = extra
		for k := range extra {
			extra[k] = per
		}
		sched.WireExtra = extra
		comb := net.PipelinedExchange(sched)
		if eff := comb.Total - base.Total; eff < in.maskSecs {
			// Only the mask attribution changes: remote-normal stays the
			// wire+codec schedule and the NVLink exposure stays the
			// three-vs-two-resource marginal computed above — the fold's
			// chunks ride otherwise-idle wire time, and their marginal is
			// charged to RemoteDelegate via maskSecs.
			rt.maskSecs = eff
			rt.stalls = comb.Stalls
		}
	}
	return rt
}

// stagingShare apportions a direction's iteration-wide staging time to one
// hop by its share of the direction's volume (zero when the direction moved
// nothing) — the per-hop copies stream through one staging-engine setup, so
// the latency is paid once per direction, not once per hop.
func stagingShare(total float64, part, sum int64) float64 {
	if sum <= 0 || part <= 0 {
		return 0
	}
	return total * float64(part) / float64(sum)
}

// ---- pairs ----

// pairRound is one rank's all-pairs round of (id, value) pairs — the tree
// resolution's nn replay and the repair patch's two rounds (parents.go,
// repair_tree.go), the sweep's lane replay (sweep_tree.go), the dense
// analytics' iteration (ExchangePairs) — and the scratch it reuses: a bin per
// destination GPU with a w-word lane-set column beside it when w > 0, a
// message buffer per destination rank, and the arrival slots. Nothing sorts a
// bin: every pairs scheme keeps its pairs in bin order, so a lane set stays
// beside its pair and every consumer folds by minimum. A receiver holds a
// message only until it has decoded it, and every caller reaches a
// collective, or the end of the run, before it fills the same round again; a
// caller with two rounds in flight at once (the repair patch) keeps two.
type pairRound struct {
	w       int
	bins    *frontier.PairBins
	lanes   [][]uint64 // per destination GPU, w words per pair in bin order
	msgBufs [][]byte

	arrivals     [][]frontier.Pair
	arrivalLanes [][]uint64
}

// newPairRound returns the round of one rank of shape over bins, with w
// lane-set words per pair.
func newPairRound(shape ClusterShape, bins *frontier.PairBins, w int) pairRound {
	return pairRound{
		w:            w,
		bins:         bins,
		lanes:        make([][]uint64, shape.P()),
		msgBufs:      make([][]byte, shape.Ranks()),
		arrivals:     make([][]frontier.Pair, shape.GPUsPerRank),
		arrivalLanes: make([][]uint64, shape.GPUsPerRank),
	}
}

// presize grows every bin to hold n pairs, and their lane sets, without
// reallocating.
func (x *pairRound) presize(n int) {
	for g := range x.lanes {
		x.bins.PerGPU[g] = slices.Grow(x.bins.PerGPU[g], n)
		x.lanes[g] = slices.Grow(x.lanes[g], n*x.w)
	}
}

// exchange runs the round at message tag: the bins for this rank's own GPUs go
// straight to apply, every other rank's as one message of wire pair blocks (a
// lane-set section behind each at w > 0). apply sees every block that lands on
// one of this rank's GPUs, by local slot, in bin order in every mode: the
// rank's own first, then each other rank's in rank order. Accounting follows
// the frontier's charging rule (exchangeCounts.message, received), and intra
// is the fixed-width volume applied within the rank.
func (x *pairRound) exchange(comm *mpi.Comm, tag int, mode wire.Mode, apply func(slot int, prs []frontier.Pair, lanes []uint64)) exchangeCounts {
	rank, prank := comm.Rank(), comm.Size()
	pgpu, w := len(x.arrivals), x.w
	rec := int64(12 + 8*w)
	var c exchangeCounts
	for dst := 0; dst < prank; dst++ {
		slots, lanes := x.bins.PerGPU[dst*pgpu:(dst+1)*pgpu], x.lanes[dst*pgpu:(dst+1)*pgpu]
		if dst == rank {
			for s, prs := range slots {
				c.intra += rec * int64(len(prs))
				apply(s, prs, lanes[s])
			}
			continue
		}
		var n int
		for s := range slots {
			n += len(slots[s])
		}
		// Room for the raw encoding, which a codec picks only when nothing
		// is smaller.
		buf := slices.Grow(x.msgBufs[dst][:0], n*int(rec)+16*pgpu)
		payload, st := wire.AppendPairsRank(buf, slots, lanes, w, mode)
		x.msgBufs[dst] = payload
		c.message(st, mode)
		comm.Isend(dst, tag, payload)
	}
	for src := 0; src < prank; src++ {
		if src == rank {
			continue
		}
		buf := comm.Recv(src, tag)
		if err := wire.DecodePairsRankInto(buf, x.arrivals, x.arrivalLanes, w); err != nil {
			panic(fmt.Errorf("core: corrupt pair payload: %w", err))
		}
		var n int64
		for s, prs := range x.arrivals {
			n += int64(len(prs))
			apply(s, prs, x.arrivalLanes[s])
		}
		c.received(mode, len(buf), rec*n)
	}
	return c
}

// ExchangePairs is the pair round of the dense analytics (internal/dense):
// rank comm.Rank()'s bins — one per destination GPU of shape, filled GPU by
// GPU — delivered as raw pair blocks (wire.ModeOff) at message tag, and every
// block that lands on one of the rank's GPUs handed to apply by local slot,
// the rank's own first, each in bin order. It returns the bytes sent and
// received and the volume applied within the rank, all at ModeOff's 12 bytes
// per pair, and the messages sent: one per other rank.
func ExchangePairs(comm *mpi.Comm, shape ClusterShape, bins *frontier.PairBins, tag int, apply func(slot int, prs []frontier.Pair)) (sent, recv, intra, messages int64) {
	x := newPairRound(shape, bins, 0)
	c := x.exchange(comm, tag, wire.ModeOff, func(s int, prs []frontier.Pair, _ []uint64) { apply(s, prs) })
	return c.sent, c.recv, c.intra, c.messages
}

// countIDs totals the ids across a slot list.
func countIDs(slots [][]uint32) int64 {
	var n int64
	for _, ids := range slots {
		n += int64(len(ids))
	}
	return n
}
