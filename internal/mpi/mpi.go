// Package mpi provides an in-process message-passing runtime with MPI-like
// semantics for the simulated cluster: a World of ranks, posted payloads that
// ride a rendezvous (an all-pairs round's one message per destination), and
// non-blocking point-to-point sends with unbounded buffering (MPI_Isend, as
// the butterfly's hops of the normal-vertex exchange use them, §V-B).
//
// The package is purely functional — data really moves between rank heaps —
// while *timing* is modeled separately by internal/simnet from the byte
// volumes this package counts.
//
// # Rendezvous
//
// Nothing in the library parks a goroutine per rank. Core's phase driver runs
// every rank's side of a round on one goroutine (or a few workers) up to each
// rendezvous, folds what the ranks contributed itself — a superstep's OR and
// max/sum sections, the tree finishers' sums and delegate-candidate min-fold,
// the dense analytics' float sums and minima — and completes the rendezvous
// with World.Meet, which counts a generation (Rendezvous) and holds the
// posting contract. What remains besides Meet and the posts, and why:
//
//   - Isend/Recv and the mailboxes, for rounds whose partners depend on what
//     earlier rounds delivered: a butterfly hop is sent in one driven phase
//     and received in the next, past a Meet, so a Recv never waits.
//   - AllreduceOr and AllreduceSum, blocking collectives in which every rank
//     goroutine parks until the last arrives. No library code calls them;
//     the host benchmark's probes do. They and the collective's arrive and
//     fold are in the benchmark-only set that the module's reachability
//     gate pins (reachBenchmarkOnly in reach_test.go at the module root),
//     beside core.Plan.RunRepair, delta.Affected, g500.VisitedCount and
//     the frontier and wire entry points the probes call. The set may shrink
//     but not grow; ROADMAP item 10(ii) empties it.
//
// # Posting contract
//
// A round in which every rank sends every other rank one message need not
// touch a mailbox: each rank posts its per-destination payloads (Post), the
// ranks meet at a rendezvous, and each reads what its sources posted for it
// (Posted). No lock is taken per message, no receiver parks waiting for one,
// and a source with nothing for a destination says so by posting it nothing.
// The rules:
//
//   - A posted payload stays valid until the poster's next rendezvous
//     completes: the rendezvous after the one it posted ahead of. The poster
//     may rewrite its buffers only once that one has returned.
//   - A reader must finish reading before it arrives at its own next
//     rendezvous, which is what lets the poster's complete.
//   - Posted with a tag other than the one posted panics, as does reading a
//     rank that has posted nothing since the World was created or Reset, so a
//     stale post from an earlier round can never be decoded.
//   - A post delivers only the entries it names (Post's to) that are not
//     empty; every other rank is posted nothing, whatever its entry holds.
//   - The send hook is applied on read, with the post's tag, to every
//     delivered payload; one that is not delivered is reported absent,
//     unhooked.
//   - MessagesSent counts every delivered entry, when it is posted.
//   - World.Reset clears the posts.
//   - Posted on an aborted World panics with the typed abort, as Post does.
//
// # Source sets
//
// A post also records, as it is made, which sources posted each destination
// a payload: the round's source set, which PostedSources hands a reader in
// ascending rank order, so a reader visits the k sources that have something
// for it and knows the other p−1−k posted it nothing without asking each. A
// poster's work grows with the destinations it names, and a reader's with
// its sources, not with the world.
//
//   - The set is one bit per (destination, source), ⌈p/64⌉ words per
//     destination whatever p is, set with an atomic OR: the ranks of a
//     fanned-out phase post without a lock.
//   - It is scoped to its round. Posts made while g rendezvous have completed
//     fill set g mod 2, which readers read after rendezvous g+1; rendezvous
//     g+2 clears it for the posts it will take, so a round nobody read leaks
//     no source into a later one. A rank's second post in a round replaces
//     its first in the set as well.
//   - It replaces no tag check. The round's first PostedSources checks every
//     rank's post — each made in this round, under the reader's tag, the rule
//     Posted applies to one source — once for all readers, and panics naming
//     the first rank that breaks it. A source it returns is read with Posted,
//     which checks that post again and applies the hook.
package mpi

import (
	"errors"
	"fmt"
	"math/bits"
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
	// posts[r] is rank r's latest Post (see the posting contract), and
	// rounds the source sets of the rounds posted ahead of an even and an odd
	// rendezvous generation.
	posts  []posting
	rounds [2]round

	// hook, when set, intercepts every payload (fault injection, SendHook).
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

// Abort poisons the World: the first call records err as the cause, and every
// rank goroutine currently blocked in Recv or a collective — plus every later
// MPI call — panics with a typed abort value, so nobody waits for a message or
// an arrival that will not come. Core's phase driver aborts the World with
// the lowest faulting rank's error once a faulted phase has ended. An aborted
// World must be discarded (or Reset) before reuse.
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
	for i := range w.rounds {
		w.rounds[i].from = make([]uint64, size*sourceWords(size))
	}
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

// MessagesSent returns the total message count so far, Isends and non-empty
// posts. The counters are plain per-rank fields (a send touches no shared
// cache line for them), so read them only while no rank is sending — after
// the ranks joined, as the tests do.
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
func (w *World) Rendezvous() uint64 { return w.coll.gen.Load() }

// Meet completes a rendezvous in which no rank goroutine parks: its caller is
// a driver that has run every rank's side of the round up to it, so every rank
// has arrived. It counts one generation (Rendezvous), and the posting contract
// holds across it as across any collective's. It panics with the typed abort
// on an aborted World. Call it only while no rank is inside a collective.
func (w *World) Meet() {
	w.checkAbort()
	cl := w.coll
	cl.mu.Lock()
	cl.advance()
	cl.mu.Unlock()
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
		w.comms[i].msgsSent, w.comms[i].mailed = 0, 0
	}
	clear(w.posts)
	for i := range w.rounds {
		w.rounds[i].clear()
	}
	// Clear abort poison and any half-folded collective state an aborted
	// query left behind (ranks that unwound never arrived).
	cl := w.coll
	cl.mu.Lock()
	cl.arrived = 0
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

	msgsSent int64
	mailed   int64    // the Isends among msgsSent
	_        [32]byte // pad to a cache line: Comms sit side by side in World.comms
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

// posting is one rank's latest Post: its tag, the rendezvous generation it
// was made in, its per-destination payloads, nil when it has posted nothing
// since the World was created or Reset, and the ranks it named.
type posting struct {
	tag  int
	gen  uint64
	bufs [][]byte
	to   []int
}

// Post publishes this rank's payloads for one round under tag, which must not
// be negative: bufs[dst] is what rank dst reads with Posted, for each rank dst
// that to names; every rank to does not name is posted nothing, whatever its
// entry holds, and so is one whose entry is empty. to names distinct ranks
// other than this one, in any order. Post neither blocks nor copies bufs or
// to: the ranks meet at their next rendezvous, and every rank reads its
// sources' posts between that one and the next (see the posting contract in
// the package comment). bufs must hold one entry per rank; it replaces this
// rank's previous post. Each non-empty entry to names puts this rank into its
// destination's source set of the round (PostedSources), in O(1): Post's work
// grows with to, not with the world.
func (c *Comm) Post(tag int, bufs [][]byte, to []int) {
	if len(bufs) != c.w.size {
		panic(fmt.Sprintf("mpi: Post of %d payloads on a world of %d ranks", len(bufs), c.w.size))
	}
	if tag < 0 {
		panic(fmt.Sprintf("mpi: Post under negative tag %d", tag))
	}
	c.w.checkAbort()
	gen := c.w.coll.gen.Load()
	rd := &c.w.rounds[gen&1]
	words := sourceWords(c.w.size)
	at, bit := c.rank/64, uint64(1)<<(c.rank%64)
	if prev := &c.w.posts[c.rank]; prev.bufs != nil && prev.gen == gen {
		// A second post in one round replaces the first in the source set
		// too.
		for _, dst := range prev.to {
			atomic.AndUint64(&rd.from[dst*words+at], ^bit)
		}
	}
	for _, dst := range to {
		if dst == c.rank {
			panic(fmt.Sprintf("mpi: rank %d posts to itself", c.rank))
		}
		if len(bufs[dst]) > 0 {
			c.msgsSent++
			atomic.OrUint64(&rd.from[dst*words+at], bit)
		}
	}
	c.w.posts[c.rank] = posting{tag: tag, gen: gen, bufs: bufs, to: to}
}

// Posted returns what rank src posted for this rank under tag, passed through
// the send hook, and true; or nil and false when src posted nothing for it:
// when src's Post did not name this rank, or named it with an empty entry.
// It panics if src's latest post carries another tag or src has posted
// nothing at all, and with the typed abort on an aborted World.
func (c *Comm) Posted(src, tag int) ([]byte, bool) {
	if src < 0 || src >= c.w.size || src == c.rank {
		panic(fmt.Sprintf("mpi: rank %d reads a post of rank %d", c.rank, src))
	}
	c.w.checkAbort()
	p := c.w.checkPost(c.rank, src, tag)
	words := sourceWords(c.w.size)
	data := p.bufs[c.rank]
	if len(data) == 0 || atomic.LoadUint64(&c.w.rounds[p.gen&1].from[c.rank*words+src/64])&(1<<(src%64)) == 0 {
		return nil, false
	}
	if c.w.hook != nil {
		data = c.w.hook(src, c.rank, tag, data)
	}
	return data, true
}

// checkPost returns src's latest post after checking that rank may read it
// under tag: it panics if src has posted nothing or under another tag.
func (w *World) checkPost(rank, src, tag int) *posting {
	p := &w.posts[src]
	if p.bufs == nil {
		panic(fmt.Sprintf("mpi: rank %d reads tag %d from rank %d, which has posted nothing", rank, tag, src))
	}
	if p.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d reads tag %d from rank %d, whose post is tag %d", rank, tag, src, p.tag))
	}
	return p
}

// PostedSources appends to into, in ascending order, the ranks that posted
// this rank a non-empty payload in the round the last rendezvous completed,
// and returns it: the sources Posted would return a payload for, found
// without asking each (see the package comment). Every other rank posted this
// one nothing. It panics unless every rank posted in that round under tag —
// naming a source that has not posted in the round or posted under another
// tag — and with the typed abort on an aborted World.
func (c *Comm) PostedSources(tag int, into []int) []int {
	w := c.w
	w.checkAbort()
	gen := w.coll.gen.Load() - 1
	rd := &w.rounds[gen&1]
	if rd.checked.Load() != uint64(tag)+1 {
		// The round's first reader checks every source's post, once.
		for src := range w.size {
			if p := w.checkPost(c.rank, src, tag); p.gen != gen {
				panic(fmt.Sprintf("mpi: rank %d reads tag %d of a round rank %d has not posted in", c.rank, tag, src))
			}
		}
		rd.checked.Store(uint64(tag) + 1)
	}
	words := sourceWords(w.size)
	for i := range words {
		for word := atomic.LoadUint64(&rd.from[c.rank*words+i]); word != 0; word &= word - 1 {
			into = append(into, i*64+bits.TrailingZeros64(word))
		}
	}
	return into
}

// round is one round's record beside the posts themselves: its source set,
// from[dst·sourceWords + src/64] bit src%64 set when src posted dst a
// non-empty payload, which posts set with an atomic OR, so the ranks of a
// fanned-out phase post without a lock; and checked, the tag + 1 under which
// PostedSources has found every rank's post to be the round's (0: not yet).
type round struct {
	from    []uint64
	checked atomic.Uint64
}

// sourceWords is how many words one destination's row of a source set takes.
func sourceWords(size int) int { return (size + 63) / 64 }

// clear empties the round for the posts of a later generation. Call it only
// while no rank posts or reads it.
func (rd *round) clear() {
	clear(rd.from)
	rd.checked.Store(0)
}

// collective is the rendezvous of the two blocking collectives (AllreduceOr,
// AllreduceSum) and the generation counter World.Meet advances.
type collective struct {
	mu   sync.Mutex
	cond *sync.Cond
	w    *World
	size int
	// gen counts completed rendezvous. It changes only under mu, and is
	// atomic because posts read it to find their round.
	gen     atomic.Uint64
	arrived int
	// Reusable accumulators, double-buffered by generation parity:
	// generation g+2 (the first reuse of g's buffer) cannot start until every
	// rank finished g, because each rank copies the result out under the lock
	// before it can arrive for g+1.
	acc [2]foldAcc
}

func newCollective(size int) *collective {
	cl := &collective{size: size}
	cl.cond = sync.NewCond(&cl.mu)
	return cl
}

// arrive counts the caller into the current generation and parks it until the
// last rank arrives, which ends the generation. Called with cl.mu held.
func (cl *collective) arrive() {
	gen := cl.gen.Load()
	cl.arrived++
	if cl.arrived == cl.size {
		cl.arrived = 0
		cl.advance()
		cl.cond.Broadcast()
		return
	}
	for cl.gen.Load() == gen {
		cl.cond.Wait()
		cl.w.checkAbort()
	}
}

// advance completes a rendezvous: it counts the generation and clears the
// round the next generation's posts fill, whose posts of two generations ago
// were read before this rendezvous. Called with cl.mu held, when every rank
// has arrived and none posts.
func (cl *collective) advance() {
	cl.w.rounds[cl.gen.Add(1)&1].clear()
}

// foldAcc is one generation's accumulator.
type foldAcc struct {
	or  []uint64
	sum []int64
}

// fold ORs or and sums sum element-wise across the ranks in one rendezvous and
// copies the results into every rank's slices before it returns. Every rank
// passes equal lengths; the steady state allocates nothing.
func (cl *collective) fold(or []uint64, sum []int64) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.w.checkAbort()
	acc := &cl.acc[cl.gen.Load()%2]
	if cl.arrived == 0 {
		acc.or = append(acc.or[:0], or...)
		acc.sum = append(acc.sum[:0], sum...)
	} else {
		if len(acc.or) != len(or) || len(acc.sum) != len(sum) {
			panic(fmt.Sprintf("mpi: collective length mismatch or %d vs %d, sum %d vs %d",
				len(acc.or), len(or), len(acc.sum), len(sum)))
		}
		for i, w := range or {
			acc.or[i] |= w
		}
		for i, v := range sum {
			acc.sum[i] += v
		}
	}
	cl.arrive()
	copy(or, acc.or)
	copy(sum, acc.sum)
}

// AllreduceOr ORs the word slices of all ranks element-wise and stores the
// result in place in every rank's slice; it parks the calling goroutine until
// every rank has arrived. All ranks must pass equal lengths. Benchmark-only
// until ROADMAP item 10(ii): the engine folds its delegate proposals in core's
// phase driver.
func (c *Comm) AllreduceOr(words []uint64) { c.w.coll.fold(words, nil) }

// AllreduceSum sums int64 slices element-wise across ranks, in place, parking
// like AllreduceOr. Benchmark-only until ROADMAP item 10(ii).
func (c *Comm) AllreduceSum(vals []int64) { c.w.coll.fold(nil, vals) }
