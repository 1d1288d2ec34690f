package main

import (
	"fmt"
	"time"

	"gcbfs/internal/graph"
)

// yardstick is the benchmark's own clock for the host it runs on: a plain
// single-threaded BFS of the run's initial graph, from a fixed source, over
// arrays the benchmark builds and keeps itself. The sandbox is a few cores of
// a shared host whose speed moves by a third for minutes at a time, so a
// wall-clock second measured in one run is not the second of the next; a
// reading taken beside every timed op sees the same host as the op does, and
// the op's time over the reading is steady where neither is alone. It stands
// apart from baseline.SerialBFS (which checks the answers) on purpose: it
// allocates nothing, so the collector's state does not reach it, and no later
// change to the repository can move it.
type yardstick struct {
	offsets []int32
	cols    []int32
	levels  []int32
	queue   []int32
	source  int32
	// reps is the number of traversals per reading, so that a reading of a
	// small graph is still long enough to time; visited is what each must reach.
	reps    int
	visited int
}

// yardstickEdges is the least number of edges one reading scans.
const yardstickEdges = 1 << 21

func newYardstick(el *graph.EdgeList, source int64, want []int32) (*yardstick, error) {
	y := &yardstick{
		offsets: make([]int32, el.N+1),
		cols:    make([]int32, len(el.Edges)),
		levels:  make([]int32, el.N),
		queue:   make([]int32, el.N),
		source:  int32(source),
		reps:    max(1, yardstickEdges/max(len(el.Edges), 1)),
	}
	for _, e := range el.Edges {
		y.offsets[e.U+1]++
	}
	for i := int64(0); i < el.N; i++ {
		y.offsets[i+1] += y.offsets[i]
	}
	cursor := make([]int32, el.N)
	for _, e := range el.Edges {
		y.cols[y.offsets[e.U]+cursor[e.U]] = int32(e.V)
		cursor[e.U]++
	}
	y.visited = y.bfs()
	for v, l := range want {
		if y.levels[v] != l {
			return nil, fmt.Errorf("yardstick BFS puts vertex %d at level %d, the reference at %d", v, y.levels[v], l)
		}
	}
	return y, nil
}

// bfs runs one traversal and returns the number of vertices it reached.
func (y *yardstick) bfs() int {
	for i := range y.levels {
		y.levels[i] = -1
	}
	y.levels[y.source] = 0
	y.queue[0] = y.source
	head, tail := 0, 1
	for head < tail {
		u := y.queue[head]
		head++
		next := y.levels[u] + 1
		for _, v := range y.cols[y.offsets[u]:y.offsets[u+1]] {
			if y.levels[v] < 0 {
				y.levels[v] = next
				y.queue[tail] = v
				tail++
			}
		}
	}
	return tail
}

// reading times reps traversals and returns the seconds one took. One
// untimed traversal goes first: it leaves the arrays as near the core as the
// host lets them stay, so the reading does not depend on what the program
// that ran before it left in the caches.
func (y *yardstick) reading() float64 {
	y.bfs()
	t0 := time.Now()
	for i := 0; i < y.reps; i++ {
		if got := y.bfs(); got != y.visited {
			panic(fmt.Sprintf("yardstick BFS reached %d vertices, %d before", got, y.visited))
		}
	}
	return time.Since(t0).Seconds() / float64(y.reps)
}
