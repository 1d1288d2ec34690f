package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// others is every rank but c's own: a Post to all of them.
func others(c *Comm) []int {
	var to []int
	for r := range c.Size() {
		if r != c.Rank() {
			to = append(to, r)
		}
	}
	return to
}

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
	if w.MessagesSent() != 2 {
		t.Fatalf("MessagesSent = %d", w.MessagesSent())
	}
}

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

func TestAllreduceSum(t *testing.T) {
	const size = 5
	spawn(t, size, func(c *Comm) {
		sums := []int64{int64(c.Rank()), 1}
		c.AllreduceSum(sums)
		if sums[0] != 0+1+2+3+4 || sums[1] != size {
			t.Errorf("rank %d: sums = %v", c.Rank(), sums)
		}
	})
}

func TestRepeatedCollectives(t *testing.T) {
	// Generations must not bleed into each other across iterations, the
	// accumulators' parity reuse included.
	const size, iters = 4, 50
	spawn(t, size, func(c *Comm) {
		for i := 0; i < iters; i++ {
			v := []int64{int64(i)}
			c.AllreduceSum(v)
			if v[0] != int64(size*i) {
				t.Errorf("iter %d: sum = %d", i, v[0])
				return
			}
			w := []uint64{1 << uint(i%64)}
			c.AllreduceOr(w)
			if w[0] != 1<<uint(i%64) {
				t.Errorf("iter %d: or = %x", i, w[0])
				return
			}
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
		c.AllreduceSum(sum) // a full rendezvous first
		if c.Rank() == 5 {
			w.Abort(cause)
			return
		}
		c.AllreduceOr([]uint64{1 << uint(c.Rank())})
		t.Errorf("rank %d passed a rendezvous rank 5 never entered", c.Rank())
	})
	if got != size-1 {
		t.Fatalf("%d ranks unwound with the abort, want %d", got, size-1)
	}
	if w.Aborted() == nil {
		t.Fatal("World not marked aborted")
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
		c.Post(3, bufs, others(c))
		if c.Rank() == 5 {
			w.Abort(cause)
			return
		}
		c.AllreduceSum([]int64{1})
		t.Errorf("rank %d passed a rendezvous rank 5 never entered", c.Rank())
	})
	if got != size-1 {
		t.Fatalf("post: %d ranks unwound with the abort, want %d", got, size-1)
	}
	w.Reset()
	if got := run(func(c *Comm) {
		or, sum := []uint64{uint64(c.Rank() & 2)}, []int64{1}
		c.AllreduceOr(or)
		c.AllreduceSum(sum)
		if or[0] != 2 || sum[0] != size {
			t.Errorf("rank %d after Reset: or=%v sum=%v", c.Rank(), or, sum)
		}
	}); got != 0 {
		t.Fatalf("%d ranks aborted after Reset", got)
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
	if w.MessagesSent() != 4 || w.MailboxSends() != 4 {
		t.Fatalf("MessagesSent = %d, MailboxSends = %d, want 4 and 4", w.MessagesSent(), w.MailboxSends())
	}
	w.Reset()
	if w.MessagesSent() != 0 || w.MailboxSends() != 0 {
		t.Fatalf("after Reset: MessagesSent = %d, MailboxSends = %d", w.MessagesSent(), w.MailboxSends())
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
		// rides; every reader finishes reading before that first one. The
		// ranks of a phase run at once, so under -race this is the
		// contract's whole synchronization.
		const rounds = 50
		w := NewWorld(size)
		// phase runs fn on every rank at once, as a driver fans a phase
		// out, and completes the rendezvous that ends it.
		phase := func(fn func(c *Comm)) {
			var wg sync.WaitGroup
			for r := range size {
				wg.Add(1)
				go func(c *Comm) {
					defer wg.Done()
					fn(c)
				}(w.Rank(r))
			}
			wg.Wait()
			w.Meet()
		}
		bufs, store := make([][][]byte, size), make([][][]byte, size)
		for r := range size {
			bufs[r], store[r] = make([][]byte, size), make([][]byte, size)
		}
		for k := 0; k < rounds; k++ {
			tag := 100 + k
			phase(func(c *Comm) {
				me := c.Rank()
				for dst := range bufs[me] {
					store[me][dst] = append(store[me][dst][:0], payload(me, dst, k)...)
					bufs[me][dst] = store[me][dst]
				}
				c.Post(tag, bufs[me], others(c))
			})
			phase(func(c *Comm) {
				me := c.Rank()
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
			})
		}
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
		c0.Post(7, [][]byte{nil, []byte("round 7")}, []int{1})
		if got, ok := c1.Posted(0, 7); !ok || string(got) != "round 7" {
			t.Errorf("Posted(0, 7) = %q, %v", got, ok)
		}
		c0.Post(8, [][]byte{nil, []byte("round 8")}, []int{1})
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
		w.Rank(0).Post(42, [][]byte{nil, []byte("abc"), nil}, []int{1, 2})
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
		w.Rank(1).Post(1, [][]byte{make([]byte, 10), make([]byte, 99), {}}, []int{0, 2})
		w.Rank(2).Post(1, [][]byte{nil, make([]byte, 5), nil}, []int{0, 1})
		if w.MessagesSent() != 2 || w.MailboxSends() != 0 {
			t.Fatalf("MessagesSent %d, MailboxSends %d; want 2, 0", w.MessagesSent(), w.MailboxSends())
		}
		w.Rank(0).Isend(1, 0, make([]byte, 4))
		if w.MessagesSent() != 3 || w.MailboxSends() != 1 {
			t.Fatalf("after an Isend: MessagesSent %d, MailboxSends %d; want 3, 1", w.MessagesSent(), w.MailboxSends())
		}
	})

	t.Run("to-names-what-is-delivered", func(t *testing.T) {
		w := NewWorld(3)
		// Rank 0's entry for rank 2 holds bytes, but the post does not name
		// rank 2: it is posted nothing.
		w.Rank(0).Post(1, [][]byte{nil, []byte("a"), []byte("stale")}, []int{1})
		for r := 1; r < 3; r++ {
			w.Rank(r).Post(1, make([][]byte, 3), nil)
		}
		w.Meet()
		if got, ok := w.Rank(2).Posted(0, 1); ok || got != nil {
			t.Errorf("an unnamed entry read as %q, %v", got, ok)
		}
		if got := w.Rank(2).PostedSources(1, nil); len(got) != 0 {
			t.Errorf("an unnamed entry made sources %v", got)
		}
		if got, ok := w.Rank(1).Posted(0, 1); !ok || string(got) != "a" {
			t.Errorf("Posted(0, 1) = %q, %v", got, ok)
		}
		if got := w.MessagesSent(); got != 1 {
			t.Errorf("MessagesSent %d, want 1", got)
		}
		if panicValue(func() { w.Rank(1).Post(2, make([][]byte, 3), []int{1}) }) == nil {
			t.Error("a rank posted to itself")
		}
	})

	t.Run("reset-clears-the-posts", func(t *testing.T) {
		w := NewWorld(2)
		w.Rank(0).Post(1, [][]byte{nil, []byte("x")}, []int{1})
		w.Reset()
		if w.MessagesSent() != 0 {
			t.Errorf("after Reset: MessagesSent %d", w.MessagesSent())
		}
		if panicValue(func() { w.Rank(1).Posted(0, 1) }) == nil {
			t.Error("a post survived Reset")
		}
	})

	t.Run("aborted-world-panics-with-the-abort", func(t *testing.T) {
		w := NewWorld(2)
		cause := errors.New("poster failed")
		w.Rank(0).Post(1, [][]byte{nil, []byte("x")}, []int{1})
		w.Abort(cause)
		for name, fn := range map[string]func(){
			"Posted": func() { w.Rank(1).Posted(0, 1) },
			"Post":   func() { w.Rank(1).Post(1, [][]byte{[]byte("y"), nil}, []int{0}) },
		} {
			if err, ok := AbortError(panicValue(fn)); !ok || !errors.Is(err, cause) {
				t.Errorf("%s on an aborted World: %v, %v; want the typed abort", name, err, ok)
			}
		}
	})
}

// The round's source set (PostedSources): built by concurrent posters, one
// layout past the first word of sources, scoped to its round, replaced with
// a rank's post, and held to the tag checks of every source.
func TestPostedSources(t *testing.T) {
	// carries reports whether src posts dst a payload in round k.
	carries := func(src, dst, k int) bool { return src != dst && (7*src+3*dst+k)%5 < 2 }
	// post makes every rank's post of round k at once, as a driver's
	// fanned-out phase does.
	post := func(w *World, k, tag int) {
		var wg sync.WaitGroup
		for r := range w.Size() {
			wg.Add(1)
			go func(c *Comm) {
				defer wg.Done()
				bufs := make([][]byte, w.Size())
				for dst := range bufs {
					if carries(c.Rank(), dst, k) {
						bufs[dst] = []byte{byte(k)}
					}
				}
				c.Post(tag, bufs, others(c))
			}(w.Rank(r))
		}
		wg.Wait()
	}
	// read checks every rank's sources of round k at once: the ascending
	// ranks that carry it a payload, each of which Posted returns.
	read := func(t *testing.T, w *World, k, tag int) {
		t.Helper()
		var wg sync.WaitGroup
		for r := range w.Size() {
			wg.Add(1)
			go func(c *Comm) {
				defer wg.Done()
				var want []int
				for src := range w.Size() {
					if carries(src, c.Rank(), k) {
						want = append(want, src)
					}
				}
				got := c.PostedSources(tag, nil)
				if !slices.Equal(got, want) {
					t.Errorf("round %d: rank %d has sources %v, want %v", k, c.Rank(), got, want)
				}
				for _, src := range got {
					if b, ok := c.Posted(src, tag); !ok || b[0] != byte(k) {
						t.Errorf("round %d: rank %d read %v, %v from source %d", k, c.Rank(), b, ok, src)
					}
				}
			}(w.Rank(r))
		}
		wg.Wait()
	}

	for _, size := range []int{1, 3, 64, 65, 130} {
		t.Run(fmt.Sprintf("p=%d", size), func(t *testing.T) {
			w := NewWorld(size)
			// Every third round is read by nobody; the next one must not
			// see its sources.
			for k := range 7 {
				tag := 10 + k
				post(w, k, tag)
				w.Meet()
				if k%3 != 1 {
					read(t, w, k, tag)
				}
				w.Meet()
			}
			// A Reset mid-round leaves no source behind either.
			post(w, 0, 1)
			w.Reset()
			post(w, 1, 2)
			w.Meet()
			read(t, w, 1, 2)
		})
	}

	t.Run("tag-checks-cover-every-source", func(t *testing.T) {
		const size = 3
		bufs := func(r int) [][]byte {
			b := make([][]byte, size)
			b[(r+1)%size] = []byte{byte(r)}
			return b
		}
		to := func(r int) []int { return []int{(r + 1) % size} }
		for name, round := range map[string]func(w *World){
			"nothing posted": func(*World) {},
			"another tag": func(w *World) {
				for r := range size {
					w.Rank(r).Post(6, bufs(r), to(r))
				}
			},
			"mixed tags": func(w *World) {
				for r := range size {
					w.Rank(r).Post(5+r%2, bufs(r), to(r))
				}
			},
			// Rank 2's post is the earlier round's, under the same tag:
			// Posted alone would read it.
			// The same, after a read of the earlier round: its check does
			// not carry over.
			"a stale post after a read round": func(w *World) {
				for r := range size {
					w.Rank(r).Post(5, bufs(r), to(r))
				}
				w.Meet()
				w.Rank(0).PostedSources(5, nil)
				w.Meet()
				for r := range 2 {
					w.Rank(r).Post(5, bufs(r), to(r))
				}
			},
			"a stale post": func(w *World) {
				for r := range size {
					w.Rank(r).Post(5, bufs(r), to(r))
				}
				w.Meet()
				w.Meet()
				for r := range 2 {
					w.Rank(r).Post(5, bufs(r), to(r))
				}
			},
		} {
			w := NewWorld(size)
			round(w)
			w.Meet()
			if panicValue(func() { w.Rank(0).PostedSources(5, nil) }) == nil {
				t.Errorf("%s: PostedSources read the round", name)
			}
		}
		// A second post in a round replaces the first in the source set as
		// well: rank 1 posts rank 2, then rank 0 instead.
		w := NewWorld(size)
		for r := range size {
			w.Rank(r).Post(5, bufs(r), to(r))
		}
		w.Rank(1).Post(5, [][]byte{{1}, nil, nil}, []int{0})
		w.Meet()
		if got := w.Rank(2).PostedSources(5, nil); len(got) != 0 {
			t.Errorf("rank 2's sources %v after rank 1 reposted, want none", got)
		}
		if got := w.Rank(0).PostedSources(5, nil); !slices.Equal(got, []int{1, 2}) {
			t.Errorf("rank 0's sources %v after rank 1 reposted, want [1 2]", got)
		}
		w = NewWorld(size)
		if panicValue(func() { w.Rank(0).Post(-1, bufs(0), to(0)) }) == nil {
			t.Error("a post under a negative tag was taken")
		}
		cause := errors.New("rank 2 failed")
		for r := range size {
			w.Rank(r).Post(5, bufs(r), to(r))
		}
		w.Meet()
		w.Abort(cause)
		if err, ok := AbortError(panicValue(func() { w.Rank(0).PostedSources(5, nil) })); !ok || !errors.Is(err, cause) {
			t.Errorf("PostedSources on an aborted World: %v, %v; want the typed abort", err, ok)
		}
	})
}

// A driver's rendezvous: Meet counts one generation among the collectives',
// holds the posting contract between the rounds it separates with no rank
// goroutine running, and panics with the typed abort once the World is
// aborted.
func TestMeet(t *testing.T) {
	const size, rounds = 3, 20
	w := NewWorld(size)
	bufs := make([][][]byte, size)
	for k := 0; k < rounds; k++ {
		for r := range size {
			bufs[r] = append(bufs[r][:0], make([][]byte, size)...)
			bufs[r][(r+1)%size] = []byte{byte(r), byte(k)}
			w.Rank(r).Post(k, bufs[r], []int{(r + 1) % size})
		}
		w.Meet()
		for r := range size {
			src := (r + size - 1) % size
			if got, ok := w.Rank(r).Posted(src, k); !ok || got[0] != byte(src) || got[1] != byte(k) {
				t.Fatalf("round %d: rank %d read %v (%v) from rank %d", k, r, got, ok, src)
			}
		}
		w.Meet()
	}
	if got := w.Rendezvous(); got != 2*rounds {
		t.Fatalf("%d rendezvous for %d meets", got, 2*rounds)
	}
	cause := errors.New("rank 1 failed")
	w.Abort(cause)
	v := panicValue(w.Meet)
	if err, ok := AbortError(v); !ok || !errors.Is(err, cause) {
		t.Fatalf("Meet on an aborted World panicked with %v", v)
	}
}

// AbortError reports whether a recovered panic value came from an aborted
// World, returning the abort cause.
func AbortError(v any) (error, bool) {
	if ap, ok := v.(abortPanic); ok {
		return ap.err, true
	}
	return nil, false
}
