package mpi

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// spawn runs fn on every rank of a fresh world and waits for completion.
func spawn(t *testing.T, size int, fn func(c *Comm)) *World {
	t.Helper()
	w := NewWorld(size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(w.Rank(r))
		}(r)
	}
	wg.Wait()
	return w
}

func TestWorldBasics(t *testing.T) {
	w := NewWorld(4)
	if w.Size() != 4 {
		t.Fatalf("Size = %d", w.Size())
	}
	if w.Rank(2).Rank() != 2 || w.Rank(2).Size() != 4 {
		t.Fatal("Comm identity wrong")
	}
}

func TestInvalidWorldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

func TestInvalidRankPanics(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Rank(5) did not panic")
		}
	}()
	w.Rank(5)
}

func TestSendRecvPair(t *testing.T) {
	spawn(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Isend(1, 7, []byte("hello"))
		} else {
			got := c.Recv(0, 7)
			if string(got) != "hello" {
				t.Errorf("got %q", got)
			}
		}
	})
}

func TestRecvFiltersBySourceAndTag(t *testing.T) {
	spawn(t, 3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Isend(2, 1, []byte("from0tag1"))
		case 1:
			c.Isend(2, 2, []byte("from1tag2"))
			c.Isend(2, 1, []byte("from1tag1"))
		case 2:
			if got := string(c.Recv(1, 2)); got != "from1tag2" {
				t.Errorf("recv(1,2) = %q", got)
			}
			if got := string(c.Recv(0, 1)); got != "from0tag1" {
				t.Errorf("recv(0,1) = %q", got)
			}
			if got := string(c.Recv(1, 1)); got != "from1tag1" {
				t.Errorf("recv(1,1) = %q", got)
			}
		}
	})
}

func TestMessageOrderPreservedPerPair(t *testing.T) {
	const n = 100
	spawn(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Isend(1, 0, []byte{byte(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				if got := c.Recv(0, 0); got[0] != byte(i) {
					t.Errorf("message %d out of order: %d", i, got[0])
					return
				}
			}
		}
	})
}

func TestByteAccounting(t *testing.T) {
	w := spawn(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Isend(1, 0, make([]byte, 123))
			c.Isend(1, 0, make([]byte, 77))
		} else {
			c.Recv(0, 0)
			c.Recv(0, 0)
		}
	})
	if w.BytesSent() != 200 {
		t.Fatalf("BytesSent = %d, want 200", w.BytesSent())
	}
	if w.MessagesSent() != 2 {
		t.Fatalf("MessagesSent = %d", w.MessagesSent())
	}
}

func TestBarrier(t *testing.T) {
	const size = 8
	var before, after atomic64
	spawn(t, size, func(c *Comm) {
		before.add(1)
		c.Barrier()
		// Every rank must have passed `before` by now.
		if before.load() != size {
			t.Errorf("rank %d passed barrier with before=%d", c.Rank(), before.load())
		}
		after.add(1)
	})
	if after.load() != size {
		t.Fatalf("after = %d", after.load())
	}
}

type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

func TestAllreduceOr(t *testing.T) {
	const size = 4
	spawn(t, size, func(c *Comm) {
		words := []uint64{0, 0}
		words[0] = 1 << uint(c.Rank())
		words[1] = 1 << uint(10+c.Rank())
		c.AllreduceOr(words)
		if words[0] != 0b1111 {
			t.Errorf("rank %d: words[0] = %b", c.Rank(), words[0])
		}
		if words[1] != 0b1111<<10 {
			t.Errorf("rank %d: words[1] = %b", c.Rank(), words[1])
		}
	})
}

func TestAllreduceSumAndMax(t *testing.T) {
	const size = 5
	spawn(t, size, func(c *Comm) {
		sums := []int64{int64(c.Rank()), 1}
		c.AllreduceSum(sums)
		if sums[0] != 0+1+2+3+4 || sums[1] != size {
			t.Errorf("rank %d: sums = %v", c.Rank(), sums)
		}
		maxs := []int64{int64(c.Rank() * 10)}
		c.AllreduceMax(maxs)
		if maxs[0] != 40 {
			t.Errorf("rank %d: max = %d", c.Rank(), maxs[0])
		}
	})
}

func TestAllreduceMin(t *testing.T) {
	const size = 4
	spawn(t, size, func(c *Comm) {
		vals := []int64{int64(10 + c.Rank()), int64(-c.Rank())}
		c.AllreduceMin(vals)
		if vals[0] != 10 || vals[1] != -3 {
			t.Errorf("rank %d: min = %v", c.Rank(), vals)
		}
	})
}

// A reduce-scatter leaves each rank the element-wise min of its stripe, 0
// ("none") losing every comparison, and every other element as it was; uneven
// and empty stripes included, in two rendezvous per call.
func TestReduceScatterMin(t *testing.T) {
	const n, rounds = 37, 3
	for _, size := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(size)))
		// Stripe r is [bounds[r], bounds[r+1]); every third one is empty.
		bounds := make([]int, size+1)
		bounds[size] = n
		for r := 1; r < size; r++ {
			bounds[r] = bounds[r-1]
			if r%3 != 0 {
				bounds[r] += 1 + rng.Intn(2*n/size)
			}
			bounds[r] = min(bounds[r], n)
		}
		contribs := make([][][]uint32, rounds)
		for k := range contribs {
			contribs[k] = make([][]uint32, size)
			for r := range contribs[k] {
				contribs[k][r] = make([]uint32, n)
				for i := range contribs[k][r] {
					if rng.Intn(3) > 0 {
						contribs[k][r][i] = uint32(rng.Intn(1 << 20))
					}
				}
				if size > 1 {
					contribs[k][r][n-1] = 0 // the last element stays "none"
				}
			}
		}
		w := spawn(t, size, func(c *Comm) {
			lo, hi := bounds[c.Rank()], bounds[c.Rank()+1]
			for k := 0; k < rounds; k++ {
				buf := append([]uint32(nil), contribs[k][c.Rank()]...)
				c.ReduceScatterMin(buf, lo, hi)
				for i, got := range buf {
					want := contribs[k][c.Rank()][i]
					if i >= lo && i < hi {
						want = 0
						for _, in := range contribs[k] {
							if in[i] != 0 && (want == 0 || in[i] < want) {
								want = in[i]
							}
						}
					}
					if got != want {
						t.Errorf("p=%d round %d rank %d stripe [%d,%d): buf[%d] = %d, want %d", size, k, c.Rank(), lo, hi, i, got, want)
					}
				}
			}
		})
		if got := w.Rendezvous(); got != 2*rounds {
			t.Errorf("p=%d: %d rendezvous for %d reduce-scatters, want %d", size, got, rounds, 2*rounds)
		}
		for r, buf := range w.coll.shared {
			if buf != nil {
				t.Errorf("p=%d: the World still holds rank %d's buffer", size, r)
			}
		}
	}
}

func TestAllreduceSumFloat64(t *testing.T) {
	const size = 3
	spawn(t, size, func(c *Comm) {
		vals := []float64{float64(c.Rank()) + 0.5, 1.0}
		c.AllreduceSumFloat64(vals)
		if vals[0] != 0.5+1.5+2.5 || vals[1] != 3.0 {
			t.Errorf("rank %d: sum = %v", c.Rank(), vals)
		}
	})
}

func TestRepeatedCollectives(t *testing.T) {
	// Generations must not bleed into each other across iterations.
	const size, iters = 4, 50
	spawn(t, size, func(c *Comm) {
		for i := 0; i < iters; i++ {
			v := []int64{int64(i)}
			c.AllreduceMax(v)
			if v[0] != int64(i) {
				t.Errorf("iter %d: max = %d", i, v[0])
				return
			}
			c.Barrier()
		}
	})
}

// Property: OR-allreduce equals the serial fold for random contributions.
func TestQuickAllreduceOrEqualsFold(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		size := int(sizeRaw%6) + 1
		rng := rand.New(rand.NewSource(seed))
		const words = 8
		contribs := make([][]uint64, size)
		want := make([]uint64, words)
		for r := range contribs {
			contribs[r] = make([]uint64, words)
			for i := range contribs[r] {
				contribs[r][i] = rng.Uint64()
				want[i] |= contribs[r][i]
			}
		}
		w := NewWorld(size)
		var wg sync.WaitGroup
		ok := true
		var mu sync.Mutex
		for r := 0; r < size; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				local := make([]uint64, words)
				copy(local, contribs[r])
				w.Rank(r).AllreduceOr(local)
				mu.Lock()
				for i := range local {
					if local[i] != want[i] {
						ok = false
					}
				}
				mu.Unlock()
			}(r)
		}
		wg.Wait()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllPattern(t *testing.T) {
	// The normal-vertex exchange pattern: every rank sends a distinct
	// payload to every other rank, then receives from all.
	const size = 5
	spawn(t, size, func(c *Comm) {
		for dst := 0; dst < size; dst++ {
			if dst == c.Rank() {
				continue
			}
			c.Isend(dst, 9, []byte{byte(c.Rank()), byte(dst)})
		}
		for src := 0; src < size; src++ {
			if src == c.Rank() {
				continue
			}
			got := c.Recv(src, 9)
			if got[0] != byte(src) || got[1] != byte(c.Rank()) {
				t.Errorf("rank %d: bad payload from %d: %v", c.Rank(), src, got)
			}
		}
	})
}

// The fused reduce equals its three one-section reduces, on random vectors,
// whether or not a rank contributes OR words, and with no contributor at all.
func TestAllreduceFusedEqualsSeparateReduces(t *testing.T) {
	const nOr, nMax, nSum, rounds = 5, 7, 9, 20
	for _, size := range []int{1, 3, 8, 32} {
		rng := rand.New(rand.NewSource(int64(size)))
		type contrib struct {
			or       []uint64
			has      bool
			max, sum []int64
		}
		all := make([][]contrib, rounds)
		for k := range all {
			all[k] = make([]contrib, size)
			for r := range all[k] {
				c := contrib{or: make([]uint64, nOr), max: make([]int64, nMax), sum: make([]int64, nSum)}
				// Round 0 has no OR contributor; later rounds a random subset.
				c.has = k > 0 && rng.Intn(3) == 0
				for i := range c.or {
					c.or[i] = rng.Uint64() // garbage when !has: must be ignored
				}
				for i := range c.max {
					c.max[i] = rng.Int63() - rng.Int63()
				}
				for i := range c.sum {
					c.sum[i] = int64(rng.Uint64()) // wraps like the fold does
				}
				all[k][r] = c
			}
		}
		spawn(t, size, func(c *Comm) {
			for k := range all {
				mine := all[k][c.Rank()]
				or := append([]uint64(nil), mine.or...)
				max := append([]int64(nil), mine.max...)
				sum := append([]int64(nil), mine.sum...)
				gotAny := c.AllreduceFused(or, mine.has, max, sum)

				anyWord := []uint64{0}
				if mine.has {
					anyWord[0] = 1
				}
				c.AllreduceOr(anyWord)
				wantAny := anyWord[0] != 0
				wantOr := make([]uint64, nOr)
				if mine.has {
					copy(wantOr, mine.or)
				}
				c.AllreduceOr(wantOr)
				wantMax := append([]int64(nil), mine.max...)
				c.AllreduceMax(wantMax)
				wantSum := append([]int64(nil), mine.sum...)
				c.AllreduceSum(wantSum)

				if gotAny != wantAny {
					t.Errorf("p=%d round %d rank %d: any = %v, want %v", size, k, c.Rank(), gotAny, wantAny)
				}
				if !gotAny {
					wantOr = mine.or // no contributor: the buffer is left alone
				}
				for i := range or {
					if or[i] != wantOr[i] {
						t.Errorf("p=%d round %d rank %d: or[%d] = %x, want %x", size, k, c.Rank(), i, or[i], wantOr[i])
					}
				}
				for i := range max {
					if max[i] != wantMax[i] {
						t.Errorf("p=%d round %d rank %d: max[%d] = %d, want %d", size, k, c.Rank(), i, max[i], wantMax[i])
					}
				}
				for i := range sum {
					if sum[i] != wantSum[i] {
						t.Errorf("p=%d round %d rank %d: sum[%d] = %d, want %d", size, k, c.Rank(), i, sum[i], wantSum[i])
					}
				}
			}
		})
	}
}

func TestAllreduceMinExtremes(t *testing.T) {
	const lo, hi = -1 << 63, 1<<63 - 1
	spawn(t, 3, func(c *Comm) {
		vals := []int64{hi, hi, int64(c.Rank())}
		if c.Rank() == 1 {
			vals[0] = lo
		}
		c.AllreduceMin(vals)
		if vals[0] != lo || vals[1] != hi || vals[2] != 0 {
			t.Errorf("rank %d: min = %v", c.Rank(), vals)
		}
	})
}

// A rank that aborts the World instead of arriving strands nobody: every rank
// parked in the rendezvous unwinds with the typed abort, and after Reset the
// World folds again from a clean accumulator.
func TestAbortMidRendezvousStrandsNoRank(t *testing.T) {
	const size = 8
	w := NewWorld(size)
	cause := errors.New("rank 5 failed")
	run := func(fn func(c *Comm)) (aborted int) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for r := 0; r < size; r++ {
			wg.Add(1)
			go func(c *Comm) {
				defer wg.Done()
				defer func() {
					if v := recover(); v != nil {
						err, ok := AbortError(v)
						if !ok || !errors.Is(err, cause) {
							panic(v)
						}
						mu.Lock()
						aborted++
						mu.Unlock()
					}
				}()
				fn(c)
			}(w.Rank(r))
		}
		wg.Wait() // returns only if no rank is stranded (the test times out otherwise)
		return aborted
	}
	got := run(func(c *Comm) {
		sum := []int64{1}
		c.AllreduceFused(nil, false, nil, sum) // a full rendezvous first
		if c.Rank() == 5 {
			w.Abort(cause)
			return
		}
		or := []uint64{1 << uint(c.Rank())}
		c.AllreduceFused(or, true, []int64{int64(c.Rank())}, sum)
		t.Errorf("rank %d passed a rendezvous rank 5 never entered", c.Rank())
	})
	if got != size-1 {
		t.Fatalf("%d ranks unwound with the abort, want %d", got, size-1)
	}
	if w.Aborted() == nil {
		t.Fatal("World not marked aborted")
	}
	w.Reset()

	// The same between a reduce-scatter's two rendezvous: rank 5 posts its
	// buffer and aborts instead of folding, and the others unwind before the
	// second completes.
	got = run(func(c *Comm) {
		buf := make([]uint32, size)
		if c.Rank() == 5 {
			c.shareBuffer(buf)
			w.Abort(cause)
			return
		}
		c.ReduceScatterMin(buf, c.Rank(), c.Rank()+1)
		t.Errorf("rank %d passed a rendezvous rank 5 never entered", c.Rank())
	})
	if got != size-1 {
		t.Fatalf("reduce-scatter: %d ranks unwound with the abort, want %d", got, size-1)
	}
	w.Reset()

	// The same between a post and the rendezvous it rides: rank 5 posts its
	// payloads and aborts instead of arriving, and the others unwind in the
	// rendezvous (or at their own Post, if the abort came first) without
	// reading a post.
	got = run(func(c *Comm) {
		bufs := make([][]byte, size)
		for dst := range bufs {
			bufs[dst] = []byte{byte(c.Rank()), byte(dst)}
		}
		c.Post(3, bufs)
		if c.Rank() == 5 {
			w.Abort(cause)
			return
		}
		c.AllreduceFused(nil, false, nil, []int64{1})
		t.Errorf("rank %d passed a rendezvous rank 5 never entered", c.Rank())
	})
	if got != size-1 {
		t.Fatalf("post: %d ranks unwound with the abort, want %d", got, size-1)
	}
	w.Reset()
	if got := run(func(c *Comm) {
		or := []uint64{0}
		max, sum := []int64{int64(c.Rank())}, []int64{1}
		if any := c.AllreduceFused(or, c.Rank() == 2, max, sum); !any || max[0] != size-1 || sum[0] != size {
			t.Errorf("rank %d after Reset: any=%v max=%v sum=%v", c.Rank(), any, max, sum)
		}
	}); got != 0 {
		t.Fatalf("%d ranks aborted after Reset", got)
	}
}

// A fused reduce's closer runs once per generation, on one rank, after every
// rank has arrived and before any returns, over the folded sections; what it
// writes, every rank reads once its call returns. p = 1 closes every
// generation on its one rank.
func TestAllreduceFusedCloser(t *testing.T) {
	const gens = 40
	for _, size := range []int{1, 2, 5, 8} {
		var (
			arrived, returned [gens]atomic.Int32
			calls, closedBy   [gens]int // written by closers only
			closed            [gens]int64
		)
		spawn(t, size, func(c *Comm) {
			for g := range gens {
				max, sum := []int64{int64(c.Rank() + g)}, []int64{int64(c.Rank())}
				arrived[g].Add(1)
				c.AllreduceFusedClose(nil, false, max, sum, func(mx, sm []int64) {
					calls[g]++
					closedBy[g] = c.Rank()
					if n := arrived[g].Load(); n != int32(size) {
						t.Errorf("p=%d gen %d: closed with %d of %d ranks arrived", size, g, n, size)
					}
					if n := returned[g].Load(); n != 0 {
						t.Errorf("p=%d gen %d: %d ranks returned before the closer ran", size, g, n)
					}
					if mx[0] != int64(size-1+g) || sm[0] != int64(size*(size-1)/2) {
						t.Errorf("p=%d gen %d: closer saw max %d sum %d, not the folded sections", size, g, mx[0], sm[0])
					}
					closed[g] = mx[0] + sm[0]
				})
				returned[g].Add(1)
				if closed[g] != max[0]+sum[0] {
					t.Errorf("p=%d gen %d rank %d: read %d from the closer, want %d", size, g, c.Rank(), closed[g], max[0]+sum[0])
				}
			}
		})
		for g := range gens {
			if calls[g] != 1 {
				t.Errorf("p=%d gen %d: closer ran %d times", size, g, calls[g])
			}
			if closedBy[g] < 0 || closedBy[g] >= size {
				t.Errorf("p=%d gen %d: closed by rank %d", size, g, closedBy[g])
			}
		}
	}
}

// An aborted World runs no closer: the rank that would have closed the
// generation unwinds with the abort at its arrival, and so does every rank
// parked before the abort. A closer that panics unwinds its own rank, whose
// abort releases the parked others.
func TestAllreduceFusedCloserOnAbort(t *testing.T) {
	const size = 4
	cause := errors.New("rank failed")
	var closes atomic.Int32
	closer := func(_, _ []int64) { closes.Add(1) }
	// parked launches ranks 0..size-2 into a closing rendezvous and returns
	// once all of them are parked in it, and a wait for all to have unwound.
	parked := func(w *World) (wait func()) {
		var wg sync.WaitGroup
		for r := 0; r < size-1; r++ {
			wg.Add(1)
			go func(c *Comm) {
				defer wg.Done()
				defer func() {
					if err, ok := AbortError(recover()); !ok || !errors.Is(err, cause) {
						t.Errorf("rank %d did not unwind with the abort: %v", c.Rank(), err)
					}
				}()
				c.AllreduceFusedClose(nil, false, []int64{1}, []int64{1}, closer)
			}(w.Rank(r))
		}
		for {
			w.coll.mu.Lock()
			n := w.coll.arrived
			w.coll.mu.Unlock()
			if n == size-1 {
				return wg.Wait
			}
			runtime.Gosched()
		}
	}
	last := func(w *World, close func(_, _ []int64)) (v any) {
		defer func() { v = recover() }()
		w.Rank(size-1).AllreduceFusedClose(nil, false, []int64{1}, []int64{1}, close)
		return nil
	}

	w := NewWorld(size)
	wait := parked(w)
	w.Abort(cause)
	if err, ok := AbortError(last(w, closer)); !ok || !errors.Is(err, cause) {
		t.Fatalf("the last rank arrived on an aborted World and did not unwind with the abort: %v", err)
	}
	wait()
	if n := closes.Load(); n != 0 {
		t.Fatalf("%d closers ran on an aborted World", n)
	}

	w.Reset()
	wait = parked(w)
	if v := last(w, func(_, _ []int64) { panic("closer failed") }); v != "closer failed" {
		t.Fatalf("the closing rank recovered %v, want the closer's panic", v)
	}
	w.Abort(cause)
	wait()
	if n := closes.Load(); n != 0 {
		t.Fatalf("%d other closers ran", n)
	}
}

// A received payload is unreachable from the mailbox: removing a message
// must not leave its data pinned in the queue's vacated tail slot.
func TestRecvReleasesPayload(t *testing.T) {
	w := NewWorld(2)
	c0, c1 := w.Rank(0), w.Rank(1)
	for i := 0; i < 4; i++ {
		c0.Isend(1, i, []byte{byte(i)})
	}
	// Out of queue order, so removals shift the tail down.
	for _, tag := range []int{1, 0, 3, 2} {
		if got := c1.Recv(0, tag); got[0] != byte(tag) {
			t.Fatalf("tag %d: got %v", tag, got)
		}
		q := w.boxes[1].queue
		for i, m := range q[:cap(q)] {
			if i >= len(q) && m.data != nil {
				t.Fatalf("after Recv(tag %d): vacated slot %d still holds a payload", tag, i)
			}
			if i < len(q) && m.tag == tag {
				t.Fatalf("after Recv(tag %d): message still queued", tag)
			}
		}
	}
}

func TestTrafficCountersPerRankAndReset(t *testing.T) {
	w := spawn(t, 4, func(c *Comm) {
		next := (c.Rank() + 1) % c.Size()
		c.Isend(next, 0, make([]byte, 10*(c.Rank()+1)))
		c.Recv((c.Rank()+c.Size()-1)%c.Size(), 0)
	})
	if w.BytesSent() != 100 || w.MessagesSent() != 4 {
		t.Fatalf("BytesSent = %d, MessagesSent = %d, want 100 and 4", w.BytesSent(), w.MessagesSent())
	}
	w.Reset()
	if w.BytesSent() != 0 || w.MessagesSent() != 0 {
		t.Fatalf("after Reset: BytesSent = %d, MessagesSent = %d", w.BytesSent(), w.MessagesSent())
	}
}

// panicValue runs fn and returns what it panicked with, nil if it returned.
func panicValue(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// The posting contract (see the package comment), rule by rule.
func TestPostedPayloads(t *testing.T) {
	const size = 4
	// payload is what src posts for dst in round k: nothing when src+dst+k is
	// odd.
	payload := func(src, dst, k int) []byte {
		if (src+dst+k)%2 == 1 {
			return nil
		}
		return []byte{byte(src), byte(dst), byte(k)}
	}

	t.Run("valid-until-the-next-rendezvous", func(t *testing.T) {
		// Each rank rewrites the same buffers every round, between the
		// rendezvous that ends one round's reads and the one its next post
		// rides; every reader finishes reading before that first one. Under
		// -race this is the contract's whole synchronization.
		const rounds = 50
		w := spawn(t, size, func(c *Comm) {
			me := c.Rank()
			bufs, store := make([][]byte, size), make([][]byte, size)
			for k := 0; k < rounds; k++ {
				for dst := range bufs {
					store[dst] = append(store[dst][:0], payload(me, dst, k)...)
					bufs[dst] = store[dst]
				}
				tag := 100 + k
				c.Post(tag, bufs)
				c.Barrier()
				for src := 0; src < size; src++ {
					if src == me {
						continue
					}
					got, ok := c.Posted(src, tag)
					want := payload(src, me, k)
					if ok != (want != nil) || string(got) != string(want) {
						t.Errorf("round %d: rank %d read %v (%v) from rank %d, want %v", k, me, got, ok, src, want)
					}
				}
				c.Barrier()
			}
		})
		if got := w.MailboxSends(); got != 0 {
			t.Errorf("posted rounds sent %d mailbox messages", got)
		}
	})

	t.Run("tag-mismatch-panics", func(t *testing.T) {
		w := NewWorld(2)
		c0, c1 := w.Rank(0), w.Rank(1)
		if panicValue(func() { c1.Posted(0, 7) }) == nil {
			t.Error("reading a rank that never posted did not panic")
		}
		c0.Post(7, [][]byte{nil, []byte("round 7")})
		if got, ok := c1.Posted(0, 7); !ok || string(got) != "round 7" {
			t.Errorf("Posted(0, 7) = %q, %v", got, ok)
		}
		c0.Post(8, [][]byte{nil, []byte("round 8")})
		if panicValue(func() { c1.Posted(0, 7) }) == nil {
			t.Error("a stale tag read the next round's post")
		}
		if panicValue(func() { c1.Posted(1, 8) }) == nil {
			t.Error("a rank read its own post")
		}
	})

	t.Run("hook-applied-on-read-with-the-tag", func(t *testing.T) {
		w := NewWorld(3)
		type call struct{ src, dst, tag, n int }
		var calls []call
		w.SetSendHook(func(src, dst, tag int, data []byte) []byte {
			calls = append(calls, call{src, dst, tag, len(data)})
			return []byte{} // what a dropped payload looks like
		})
		w.Rank(0).Post(42, [][]byte{nil, []byte("abc"), nil})
		if len(calls) != 0 {
			t.Fatalf("the hook ran on Post: %v", calls)
		}
		if got, ok := w.Rank(1).Posted(0, 42); !ok || got == nil || len(got) != 0 {
			t.Errorf("Posted returned %v, %v; want the hook's empty payload, present", got, ok)
		}
		if got, ok := w.Rank(2).Posted(0, 42); ok || got != nil {
			t.Errorf("an empty post read as %v, %v", got, ok)
		}
		if want := []call{{0, 1, 42, 3}}; len(calls) != 1 || calls[0] != want[0] {
			t.Errorf("hook calls %v, want %v", calls, want)
		}
	})

	t.Run("counters-count-non-empty-posts", func(t *testing.T) {
		w := NewWorld(3)
		// The poster's own entry is ignored; empty entries are not messages.
		w.Rank(1).Post(1, [][]byte{make([]byte, 10), make([]byte, 99), {}})
		w.Rank(2).Post(1, [][]byte{nil, make([]byte, 5), nil})
		if w.BytesSent() != 15 || w.MessagesSent() != 2 || w.MailboxSends() != 0 {
			t.Fatalf("BytesSent %d, MessagesSent %d, MailboxSends %d; want 15, 2, 0", w.BytesSent(), w.MessagesSent(), w.MailboxSends())
		}
		w.Rank(0).Isend(1, 0, make([]byte, 4))
		if w.BytesSent() != 19 || w.MessagesSent() != 3 || w.MailboxSends() != 1 {
			t.Fatalf("after an Isend: BytesSent %d, MessagesSent %d, MailboxSends %d; want 19, 3, 1", w.BytesSent(), w.MessagesSent(), w.MailboxSends())
		}
	})

	t.Run("reset-clears-the-posts", func(t *testing.T) {
		w := NewWorld(2)
		w.Rank(0).Post(1, [][]byte{nil, []byte("x")})
		w.Reset()
		if w.BytesSent() != 0 || w.MessagesSent() != 0 {
			t.Errorf("after Reset: BytesSent %d, MessagesSent %d", w.BytesSent(), w.MessagesSent())
		}
		if panicValue(func() { w.Rank(1).Posted(0, 1) }) == nil {
			t.Error("a post survived Reset")
		}
	})

	t.Run("aborted-world-panics-with-the-abort", func(t *testing.T) {
		w := NewWorld(2)
		cause := errors.New("poster failed")
		w.Rank(0).Post(1, [][]byte{nil, []byte("x")})
		w.Abort(cause)
		for name, fn := range map[string]func(){
			"Posted": func() { w.Rank(1).Posted(0, 1) },
			"Post":   func() { w.Rank(1).Post(1, [][]byte{[]byte("y"), nil}) },
		} {
			if err, ok := AbortError(panicValue(fn)); !ok || !errors.Is(err, cause) {
				t.Errorf("%s on an aborted World: %v, %v; want the typed abort", name, err, ok)
			}
		}
	})
}
