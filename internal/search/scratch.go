package search

import (
	"scalefree/internal/rng"

	"scalefree/internal/graph"
)

// Scratch holds the reusable state of one search worker: a persistent
// Oracle whose vertex-indexed tables are cleared and reused search to
// search, the slot-permutation shuffler, slab arenas for the
// per-vertex slices the oracle hands out, and the working sets of the
// algorithm searching it. One scratch serves one oracle at a time;
// constructing a new oracle with the same scratch invalidates the
// previous one. After a warm-up search, repeated searches over
// same-size graphs allocate nothing, in the oracle or in Search.
//
// Scratch is memory reuse only: a search through a scratch-backed
// oracle behaves bit-identically to one through a fresh oracle.
type Scratch struct {
	oracle   Oracle
	shuffler rng.RNG

	viewSlab   slab[View]
	slotSlab   slab[int32]
	vertexSlab slab[graph.Vertex]

	drivers driverScratch
}

// driverScratch holds the search algorithms' own working sets, reused
// search to search through a Scratch: the greedy frontier heaps,
// RandomEdge's pool of unresolved slots, and BiasedWalk's per-vertex
// prefix sums of neighbour weights.
type driverScratch struct {
	heaps [2]prioHeap
	pool  []slotRef
	// cumAt[v] is 1 + the offset of v's prefix sums in cum, 0 while
	// not built yet; vertex-indexed.
	cumAt []int32
	cum   []float64
}

// slotRef names one edge slot of a discovered vertex.
type slotRef struct {
	v    graph.Vertex
	slot int32
}

// drivers returns the emptied working sets for the algorithm searching
// o: the scratch's when o is scratch-backed, fresh ones otherwise.
func (o *Oracle) drivers() *driverScratch {
	if o.scratch == nil {
		return &driverScratch{}
	}
	d := &o.scratch.drivers
	d.heaps[0], d.heaps[1] = d.heaps[0][:0], d.heaps[1][:0]
	d.pool = d.pool[:0]
	return d
}

// slab is a bump allocator handing out zeroed sub-slices of one backing
// buffer. Exhausting the buffer abandons it to the slices already
// handed out and starts a doubled one, so steady-state reuse converges
// to zero allocations after a few warm-up rounds.
type slab[T any] struct {
	buf []T
	off int
}

func (s *slab[T]) reset() { s.off = 0 }

//sf:hotpath
func (s *slab[T]) alloc(n int) []T {
	if s.off+n > len(s.buf) {
		c := 2 * len(s.buf)
		if c < s.off+n {
			c = s.off + n
		}
		if c < 64 {
			c = 64
		}
		s.buf = make([]T, c)
		s.off = 0
	}
	out := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	clear(out)
	return out
}

// allocOne hands out one zeroed T from the slab.
//
//sf:hotpath
func (s *slab[T]) allocOne() *T {
	return &s.alloc(1)[0]
}
