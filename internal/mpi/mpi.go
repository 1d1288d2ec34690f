// Package mpi provides an in-process message-passing runtime with MPI-like
// semantics for the simulated cluster: a World of ranks (one goroutine
// each), non-blocking point-to-point sends with unbounded buffering
// (MPI_Isend/Irecv, as the butterfly's hops of the normal-vertex exchange
// use them, §V-B), posted payloads that ride a rendezvous (the all-pairs
// exchange's one message per destination), OR/SUM/MAX/MIN allreduce
// collectives (the delegate-mask reduction, §V-A)
// and a min reduce-scatter (where every BFS tree's delegate parent candidates
// meet, each on the rank that writes the delegate).
//
// The package is purely functional — data really moves between rank heaps
// and collectives really fold — while *timing* is modeled separately by
// internal/simnet from the byte volumes this package counts.
//
// # Rendezvous
//
// A collective is one rendezvous: every rank takes the collective's lock,
// folds its contribution, and all but the last park until the last one
// broadcasts. On the host that hand-off — not the fold — is what a collective
// costs, so the unit of cost is the rendezvous, not the reduced value.
// AllreduceFused carries three independently typed sections (an optional OR
// section, a max section, a sum section) through a single rendezvous; the
// one-section collectives (AllreduceOr/Sum/Max/Min) are wrappers over
// the same reduce (Min folds the max section the other way). The BFS
// superstep (core/run.go) is two fused rendezvous: one before the exchange
// carrying the delegate-mask words — and, posted just ahead of it, every
// rank's all-pairs payloads — and one after it carrying the timing maxima and
// the work sums, whose closer prices and records the superstep.
//
// # Closing a generation
//
// AllreduceFusedClose hands the fused reduce a closer: whatever every rank
// would derive from the reduced sections alike is derived once. The rules:
//
//   - The last rank to arrive runs its closer, once per generation, under the
//     collective's lock, on the folded max and sum sections, before any rank
//     is released; every rank passes a closer that does the same. The other
//     ranks are parked anyway, and the lock orders the closer's writes
//     before every rank's return.
//   - What the closer writes, every rank may read once its call returns, until
//     it arrives at its own next rendezvous; the closer may read any state a
//     rank wrote before it arrived, since that rank is parked in the same
//     generation. It must not keep or modify the sections it is handed.
//   - On an aborted World no closer runs; every parked rank still unwinds
//     with the typed abort.
//   - A closer that panics unwinds the last rank alone; the others stay
//     parked until the World is aborted.
//
// ReduceScatterMin is two rendezvous whatever the rank count, and its fold is
// not under the lock: every rank shares its buffer, folds its own stripe out
// of every other rank's, in parallel with the others, and waits at the second
// rendezvous until nobody reads its buffer any more. An allreduce per stripe
// would be one rendezvous per rank, each folding and copying out a whole
// stripe on every rank under the collective's one lock.
//
// # Posting contract
//
// A round in which every rank sends every other rank one message need not
// touch a mailbox: each rank posts its per-destination payloads (Post), the
// ranks meet at a rendezvous they hold anyway, and each reads what its
// sources posted for it (Posted). No lock is taken per message, no receiver
// parks waiting for one, and a source with nothing for a destination says so
// by posting it nothing. The rules:
//
//   - A posted payload stays valid until the poster's next rendezvous
//     completes: the rendezvous after the one it posted ahead of. The poster
//     may rewrite its buffers only once that one has returned.
//   - A reader must finish reading before it arrives at its own next
//     rendezvous, which is what lets the poster's complete.
//   - Posted with a tag other than the one posted panics, as does reading a
//     rank that has posted nothing since the World was created or Reset, so a
//     stale post from an earlier round can never be decoded.
//   - The send hook is applied on read, with the post's tag, to every
//     non-empty payload; an empty one is reported absent, unhooked.
//   - BytesSent and MessagesSent count every non-empty post, when it is made.
//   - World.Reset clears the posts.
//   - Posted on an aborted World panics with the typed abort, as Post does.
//
// Point-to-point Isend/Recv remain for rounds whose partners or payloads
// depend on what earlier rounds delivered (a butterfly's hops) and for
// callers outside a superstep.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// World is a fixed-size communicator. Create one per simulated job and hand
// each rank goroutine its Comm via Rank. Worlds are poolable: a World whose
// queries all ran to completion is empty again (every message received,
// every collective folded), so Reset plus reuse replaces per-query
// construction on the engine's hot path.
type World struct {
	size int
	// boxes and comms are flat arrays — one allocation each, with the
	// per-mailbox condition variables embedded — so constructing a World
	// costs O(1) allocations instead of O(ranks).
	boxes []mailbox
	comms []Comm
	coll  *collective
	// posts[r] is rank r's latest Post (see the posting contract).
	posts []posting

	// hook, when set, intercepts every Isend payload (fault injection).
	hook SendHook

	// Abort poison: once aborted is set every blocked or future MPI call on
	// this World panics with a typed abort value carrying abortErr, so no
	// rank goroutine is ever stranded waiting on a peer that unwound.
	aborted  atomic.Bool
	abortMu  sync.Mutex
	abortErr error
}

// SendHook intercepts every payload before delivery — the fault-injection
// seam: an Isend's when it is sent, a non-empty post's when it is read. It
// receives the sender, destination, tag and encoded payload and returns the
// payload to deliver; implementations must mutate only copies (senders may
// reuse their buffers).
type SendHook func(src, dst, tag int, data []byte) []byte

// SetSendHook installs (nil clears) the send hook. Install before launching
// rank goroutines; the hook is read without synchronization on the send and
// read paths.
func (w *World) SetSendHook(h SendHook) { w.hook = h }

// abortPanic is the typed panic value MPI calls throw on an aborted World.
type abortPanic struct{ err error }

// AbortError reports whether a recovered panic value came from an aborted
// World, returning the abort cause. Rank containment boundaries use it to
// tell a secondary unwind (a peer woken by Abort) from a genuine bug.
func AbortError(v any) (error, bool) {
	if ap, ok := v.(abortPanic); ok {
		return ap.err, true
	}
	return nil, false
}

// Abort poisons the World: the first call records err as the cause, and every
// rank currently blocked in Recv or a collective — plus every later MPI call
// — panics with a typed abort value. A rank goroutine that hit a fault calls
// Abort before unwinding so its peers never deadlock on messages or
// collective arrivals that will not come. An aborted World must be discarded
// (or Reset) before reuse.
func (w *World) Abort(err error) {
	if err == nil {
		err = errors.New("mpi: world aborted")
	}
	w.abortMu.Lock()
	if w.abortErr == nil {
		w.abortErr = err
	}
	w.abortMu.Unlock()
	w.aborted.Store(true)
	// Wake every waiter under its own lock so nobody sleeps through the
	// poison flag.
	for i := range w.boxes {
		mb := &w.boxes[i]
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
	cl := w.coll
	cl.mu.Lock()
	cl.cond.Broadcast()
	cl.mu.Unlock()
}

// Aborted returns the abort cause, or nil if the World is healthy.
func (w *World) Aborted() error {
	if !w.aborted.Load() {
		return nil
	}
	w.abortMu.Lock()
	defer w.abortMu.Unlock()
	return w.abortErr
}

// checkAbort panics with the typed abort value on a poisoned World — one
// predictable atomic load on the healthy path.
func (w *World) checkAbort() {
	if w.aborted.Load() {
		panic(abortPanic{w.Aborted()})
	}
}

// NewWorld creates a communicator with size ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: invalid world size %d", size))
	}
	w := &World{size: size, boxes: make([]mailbox, size), comms: make([]Comm, size), posts: make([]posting, size)}
	for i := range w.boxes {
		w.boxes[i].cond.L = &w.boxes[i].mu
	}
	for i := range w.comms {
		w.comms[i] = Comm{w: w, rank: i}
	}
	w.coll = newCollective(size)
	w.coll.w = w
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// BytesSent returns the total payload bytes sent so far, by Isend or by a
// non-empty post. The counters are plain per-rank fields (a send touches no
// shared cache line for them), so read them only while no rank goroutine is
// sending — after the ranks joined, as the tests do.
func (w *World) BytesSent() int64 {
	var n int64
	for i := range w.comms {
		n += w.comms[i].bytesSent
	}
	return n
}

// MessagesSent returns the total message count so far, Isends and non-empty
// posts; the same quiescence rule as BytesSent applies.
func (w *World) MessagesSent() int64 {
	var n int64
	for i := range w.comms {
		n += w.comms[i].msgsSent
	}
	return n
}

// MailboxSends returns how many of MessagesSent went through a mailbox
// (Isend) rather than a post; the same quiescence rule applies.
func (w *World) MailboxSends() int64 {
	var n int64
	for i := range w.comms {
		n += w.comms[i].mailed
	}
	return n
}

// Rendezvous returns how many collectives have completed on this World since
// it was created — the host-side cost unit of a superstep (see the package
// comment). Reset does not rewind it; callers diff two readings.
func (w *World) Rendezvous() uint64 {
	cl := w.coll
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.gen
}

// Rank returns the communicator handle for rank r.
func (w *World) Rank(r int) *Comm {
	if r < 0 || r >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, w.size))
	}
	return &w.comms[r]
}

// Reset drops any queued messages and posts and zeroes the traffic counters,
// returning the World to its freshly constructed state (mailbox and
// accumulator capacity retained). Callers pooling Worlds across queries
// call it before reuse; after a query that ran to completion it is a no-op
// apart from the counters, and after an abandoned (cancelled) query it
// discards the stragglers.
func (w *World) Reset() {
	for i := range w.boxes {
		mb := &w.boxes[i]
		mb.mu.Lock()
		clear(mb.queue)
		mb.queue = mb.queue[:0]
		mb.mu.Unlock()
	}
	for i := range w.comms {
		w.comms[i].bytesSent, w.comms[i].msgsSent, w.comms[i].mailed = 0, 0, 0
	}
	clear(w.posts)
	// Clear abort poison and any half-folded collective state an aborted
	// query left behind (ranks that unwound never arrived).
	cl := w.coll
	cl.mu.Lock()
	cl.arrived = 0
	cl.acc = nil
	clear(cl.shared)
	cl.mu.Unlock()
	w.abortMu.Lock()
	w.abortErr = nil
	w.abortMu.Unlock()
	w.aborted.Store(false)
}

// Comm is one rank's endpoint. It is owned by exactly one rank goroutine,
// which is what lets its traffic counters be plain fields.
type Comm struct {
	w    *World
	rank int

	bytesSent int64
	msgsSent  int64
	mailed    int64    // the Isends among msgsSent
	_         [24]byte // pad to a cache line: Comms sit side by side in World.comms
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

type message struct {
	src, tag int
	data     []byte
}

type mailbox struct {
	mu    sync.Mutex
	cond  sync.Cond // L set to &mu at World construction
	queue []message
}

// Isend delivers data to dst's mailbox immediately (buffered semantics — it
// never blocks, so any send/recv ordering is deadlock-free, mirroring the
// paper's use of non-blocking MPI to keep the pipeline running). The data
// slice is retained by the receiver; callers must not mutate it afterwards.
func (c *Comm) Isend(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.w.size {
		panic(fmt.Sprintf("mpi: Isend to invalid rank %d", dst))
	}
	c.w.checkAbort()
	if c.w.hook != nil {
		data = c.w.hook(c.rank, dst, tag, data)
	}
	c.bytesSent += int64(len(data))
	c.msgsSent++
	c.mailed++
	mb := &c.w.boxes[dst]
	mb.mu.Lock()
	mb.queue = append(mb.queue, message{src: c.rank, tag: tag, data: data})
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// Recv blocks until a message with the given source and tag arrives and
// returns its payload. Messages from the same (src, tag) are delivered in
// send order.
func (c *Comm) Recv(src, tag int) []byte {
	mb := &c.w.boxes[c.rank]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		c.w.checkAbort()
		for i, m := range mb.queue {
			if m.src == src && m.tag == tag {
				// Zero the vacated tail slot: the shifted-down queue would
				// otherwise keep a second reference to the last payload
				// alive until a later send happens to overwrite it.
				last := len(mb.queue) - 1
				copy(mb.queue[i:], mb.queue[i+1:])
				mb.queue[last] = message{}
				mb.queue = mb.queue[:last]
				return m.data
			}
		}
		mb.cond.Wait()
	}
}

// posting is one rank's latest Post: its tag and per-destination payloads,
// nil when it has posted nothing since the World was created or Reset.
type posting struct {
	tag  int
	bufs [][]byte
}

// Post publishes this rank's payloads for one round under tag: bufs[dst] is
// what rank dst reads with Posted, nil or empty when this rank has nothing
// for it (this rank's own entry is ignored). Post neither blocks nor copies:
// the ranks meet at their next rendezvous, and every rank reads its sources'
// posts between that one and the next (see the posting contract in the
// package comment). bufs must hold one entry per rank; it replaces this rank's
// previous post.
func (c *Comm) Post(tag int, bufs [][]byte) {
	if len(bufs) != c.w.size {
		panic(fmt.Sprintf("mpi: Post of %d payloads on a world of %d ranks", len(bufs), c.w.size))
	}
	c.w.checkAbort()
	for dst, data := range bufs {
		if dst != c.rank && len(data) > 0 {
			c.bytesSent += int64(len(data))
			c.msgsSent++
		}
	}
	c.w.posts[c.rank] = posting{tag: tag, bufs: bufs}
}

// Posted returns what rank src posted for this rank under tag, passed through
// the send hook, and true; or nil and false when src posted nothing for it.
// It panics if src's latest post carries another tag or src has posted
// nothing at all, and with the typed abort on an aborted World.
func (c *Comm) Posted(src, tag int) ([]byte, bool) {
	if src < 0 || src >= c.w.size || src == c.rank {
		panic(fmt.Sprintf("mpi: rank %d reads a post of rank %d", c.rank, src))
	}
	c.w.checkAbort()
	p := &c.w.posts[src]
	if p.bufs == nil {
		panic(fmt.Sprintf("mpi: rank %d reads tag %d from rank %d, which has posted nothing", c.rank, tag, src))
	}
	if p.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d reads tag %d from rank %d, whose post is tag %d", c.rank, tag, src, p.tag))
	}
	data := p.bufs[c.rank]
	if len(data) == 0 {
		return nil, false
	}
	if c.w.hook != nil {
		data = c.w.hook(src, c.rank, tag, data)
	}
	return data, true
}

// collective implements generation-counted fold-and-broadcast, reused for
// every allreduce flavor and for barriers.
type collective struct {
	mu      sync.Mutex
	cond    *sync.Cond
	w       *World
	size    int
	gen     uint64
	arrived int
	acc     any
	result  any
	// Reusable accumulators for the typed fused reduce, double-buffered by
	// generation parity: generation g+2 (the first reuse of g's buffer)
	// cannot start until every rank finished g, because each rank copies
	// the result out under the lock before it can arrive for g+1.
	acc3 [2]fusedAcc
	// shared[r] is rank r's buffer between a reduce-scatter's two rendezvous.
	shared [][]uint32
}

func newCollective(size int) *collective {
	cl := &collective{size: size, shared: make([][]uint32, size)}
	cl.cond = sync.NewCond(&cl.mu)
	return cl
}

// run folds contribution into the shared accumulator with combine (called
// under the lock) and returns the final accumulator once all ranks arrive.
// init clones the first contribution. The returned value is shared — callers
// copy out of it.
func (cl *collective) run(contrib any, init func(any) any, combine func(acc, in any)) any {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.w.checkAbort()
	if cl.arrived == 0 {
		cl.acc = init(contrib)
	} else {
		combine(cl.acc, contrib)
	}
	if cl.arrived == cl.size-1 {
		cl.result = cl.acc
		cl.acc = nil
	}
	cl.arrive()
	return cl.result
}

// arrive counts the caller into the current generation and parks it until the
// last rank arrives, which ends the generation; it reports whether the caller
// was that last rank. Called with cl.mu held.
func (cl *collective) arrive() bool {
	gen := cl.gen
	cl.arrived++
	if cl.arrived == cl.size {
		cl.arrived = 0
		cl.gen++
		cl.cond.Broadcast()
		return true
	}
	for cl.gen == gen {
		cl.cond.Wait()
		cl.w.checkAbort()
	}
	return false
}

// fusedAcc is one generation's accumulator of the typed fused reduce.
type fusedAcc struct {
	or    []uint64
	hasOr bool // some rank contributed OR words this generation
	ext   []int64
	sum   []int64
}

// extremum selects how the fused reduce's ext section folds.
type extremum bool

const (
	extMax extremum = false
	extMin extremum = true
)

// fused is the typed reduce behind every per-iteration collective: an
// optional OR section, an extremum section (element-wise max, or min when
// every rank says so) and a sum section folded in one rendezvous. No interface boxing, and the accumulator is a reusable
// generation-parity buffer, so the steady state allocates nothing. Every rank
// passes equal section lengths; a rank with contribute unset passes or as an
// output buffer only. Each rank copies the result into its own slices under
// the lock before returning; or is overwritten only when the returned flag
// says some rank contributed.
func (cl *collective) fused(or []uint64, contribute bool, ext []int64, which extremum, sum []int64, closer func(max, sum []int64)) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.w.checkAbort()
	acc := &cl.acc3[cl.gen%2]
	if cl.arrived == 0 {
		acc.hasOr = false
		acc.ext = append(acc.ext[:0], ext...)
		acc.sum = append(acc.sum[:0], sum...)
	} else {
		if len(acc.ext) != len(ext) || len(acc.sum) != len(sum) {
			panic(fmt.Sprintf("mpi: collective length mismatch ext %d vs %d, sum %d vs %d",
				len(acc.ext), len(ext), len(acc.sum), len(sum)))
		}
		if which == extMin {
			for i, v := range ext {
				if v < acc.ext[i] {
					acc.ext[i] = v
				}
			}
		} else {
			for i, v := range ext {
				if v > acc.ext[i] {
					acc.ext[i] = v
				}
			}
		}
		for i, v := range sum {
			acc.sum[i] += v
		}
	}
	if contribute {
		if !acc.hasOr {
			acc.or = append(acc.or[:0], or...)
			acc.hasOr = true
		} else {
			if len(acc.or) != len(or) {
				panic(fmt.Sprintf("mpi: collective length mismatch or %d vs %d", len(acc.or), len(or)))
			}
			for i, w := range or {
				acc.or[i] |= w
			}
		}
	}
	if closer != nil && cl.arrived == cl.size-1 {
		closer(acc.ext, acc.sum)
	}
	cl.arrive()
	copy(ext, acc.ext)
	copy(sum, acc.sum)
	if acc.hasOr {
		if len(acc.or) != len(or) {
			panic(fmt.Sprintf("mpi: collective length mismatch or %d vs %d", len(acc.or), len(or)))
		}
		copy(or, acc.or)
	}
	return acc.hasOr
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() {
	c.w.coll.run(nil,
		func(any) any { return nil },
		func(any, any) {})
}

// AllreduceFused folds three independently typed sections in one rendezvous
// (see the package comment) and stores each result in place in every rank's
// slices. All ranks must pass equal lengths per section; nil sections are
// empty.
//
// The OR section is optional per rank: a rank with contribute unset passes or
// as an output buffer whose contents are ignored, so a rank with nothing to
// add never has to zero or build its words. The result reports whether any
// rank contributed; when none did, or is left untouched on every rank.
//
// max and sum fold element-wise as AllreduceMax and AllreduceSum do.
func (c *Comm) AllreduceFused(or []uint64, contribute bool, max, sum []int64) bool {
	return c.w.coll.fused(or, contribute, max, extMax, sum, nil)
}

// AllreduceFusedClose is AllreduceFused whose generation closer runs once,
// on the last rank to arrive, over the folded max and sum sections before any
// rank returns (see "Closing a generation" in the package comment).
func (c *Comm) AllreduceFusedClose(or []uint64, contribute bool, max, sum []int64, closer func(max, sum []int64)) bool {
	return c.w.coll.fused(or, contribute, max, extMax, sum, closer)
}

// AllreduceOr ORs the word slices of all ranks element-wise and stores the
// result in-place in every rank's slice. All ranks must pass equal lengths.
// This is the delegate-mask reduction primitive (§V-A).
func (c *Comm) AllreduceOr(words []uint64) {
	c.w.coll.fused(words, true, nil, extMax, nil, nil)
}

// AllreduceSum sums int64 slices element-wise across ranks, in-place.
func (c *Comm) AllreduceSum(vals []int64) {
	c.w.coll.fused(nil, false, nil, extMax, vals, nil)
}

// AllreduceMax takes the element-wise max of int64 slices across ranks.
func (c *Comm) AllreduceMax(vals []int64) {
	c.w.coll.fused(nil, false, vals, extMax, nil, nil)
}

// AllreduceMin takes the element-wise min of int64 slices across ranks —
// the label-propagation primitive of connected components (internal/concomp),
// where every rank needs every delegate's label. The BFS trees' delegate
// candidates, which only the rank that writes a delegate needs, meet in
// ReduceScatterMin instead.
func (c *Comm) AllreduceMin(vals []int64) {
	c.w.coll.fused(nil, false, vals, extMin, nil, nil)
}

// AllreduceSumFloat64 sums float64 slices element-wise across ranks — the
// delegate-state reduction for rank-valued algorithms like PageRank, where
// delegates carry scores instead of one visited bit (§VI-D's
// generalization). Floating-point addition is not associative, so the fold
// happens in rank order regardless of arrival order — results are
// bit-reproducible across runs.
func (c *Comm) AllreduceSumFloat64(vals []float64) {
	type contrib struct {
		rank int
		vals []float64
	}
	mine := contrib{rank: c.rank, vals: append([]float64(nil), vals...)}
	res := c.w.coll.run(mine,
		func(in any) any {
			all := make([][]float64, c.w.size)
			first := in.(contrib)
			all[first.rank] = first.vals
			return all
		},
		func(acc, in any) {
			all := acc.([][]float64)
			cb := in.(contrib)
			if all[cb.rank] != nil {
				panic(fmt.Sprintf("mpi: duplicate contribution from rank %d", cb.rank))
			}
			all[cb.rank] = cb.vals
		}).([][]float64)
	for i := range vals {
		vals[i] = 0
	}
	for r := 0; r < c.w.size; r++ {
		row := res[r]
		if len(row) != len(vals) {
			panic(fmt.Sprintf("mpi: AllreduceSumFloat64 length mismatch %d vs %d", len(row), len(vals)))
		}
		for i, w := range row {
			vals[i] += w
		}
	}
}

// ReduceScatterMin reduces the uint32 buffers of all ranks element-wise and
// leaves each rank the result on its own stripe, buf[lo:hi]: the smallest
// value any rank holds there, where 0 means "none" and loses every comparison
// (0 only if every rank holds 0). The rest of buf is left as it was. All ranks
// pass buffers of equal length and disjoint stripes, which may be uneven or
// empty; a rank that owns none passes lo == hi.
//
// It is two rendezvous, with no copy through the collective: in the first
// every rank shares its buffer; between them each rank folds its stripe out of
// every other rank's buffer, all ranks in parallel; the second keeps every
// buffer untouched until no rank reads it any more.
func (c *Comm) ReduceScatterMin(buf []uint32, lo, hi int) {
	if lo < 0 || lo > hi || hi > len(buf) {
		panic(fmt.Sprintf("mpi: reduce-scatter stripe [%d,%d) of a %d-element buffer", lo, hi, len(buf)))
	}
	shared := c.shareBuffer(buf)
	mine := buf[lo:hi]
	for r, theirs := range shared {
		if r == c.rank {
			continue
		}
		if len(theirs) != len(buf) {
			panic(fmt.Sprintf("mpi: reduce-scatter length mismatch %d vs %d", len(theirs), len(buf)))
		}
		for i, v := range theirs[lo:hi] {
			// v−1 wraps "none" to the largest value.
			mine[i] = min(mine[i]-1, v-1) + 1
		}
	}
	c.releaseBuffers()
}

// shareBuffer is a reduce-scatter's first rendezvous: it shares buf as this
// rank's and returns every rank's once all have shared theirs.
func (c *Comm) shareBuffer(buf []uint32) [][]uint32 {
	cl := c.w.coll
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.w.checkAbort()
	cl.shared[c.rank] = buf
	cl.arrive()
	return cl.shared
}

// releaseBuffers is a reduce-scatter's second rendezvous: once every rank has
// folded its stripe, the last to arrive drops the shared buffers.
func (c *Comm) releaseBuffers() {
	cl := c.w.coll
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.w.checkAbort()
	if cl.arrive() {
		clear(cl.shared)
	}
}
