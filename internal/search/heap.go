package search

import "scalefree/internal/graph"

// prioEntry is one frontier candidate of a greedy searcher: a vertex
// and its priority, smaller first.
type prioEntry struct {
	prio int64
	v    graph.Vertex
}

// priority ranks a frontier vertex for a greedy searcher; smaller
// ranks first, and ties break towards older (smaller) identities.
type priority func(o *Oracle, v graph.Vertex) int64

// degreePriority ranks the highest degree first.
func degreePriority(o *Oracle, v graph.Vertex) int64 {
	return -int64(o.views[v].Degree)<<32 + int64(v)
}

// labelPriority ranks the identity closest to the target first.
func labelPriority(o *Oracle, v graph.Vertex) int64 {
	d := int64(v) - int64(o.target)
	if d < 0 {
		d = -d
	}
	return d<<32 + int64(v)
}

// prioHeap is a binary min-heap of frontier candidates. It backs the
// greedy searchers, which need repeated extract-best over the
// knowledge frontier with lazy invalidation. Its buffer lives in the
// oracle's driver working set, so warm searches do not allocate.
type prioHeap []prioEntry

func (h *prioHeap) Push(e prioEntry) {
	*h = append(*h, e)
	h.siftUp(len(*h) - 1)
}

// Pop removes and returns the minimum entry; ok is false when empty.
func (h *prioHeap) Pop() (e prioEntry, ok bool) {
	items := *h
	if len(items) == 0 {
		return e, false
	}
	top := items[0]
	last := len(items) - 1
	items[0] = items[last]
	*h = items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top, true
}

func (h prioHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h[i].prio >= h[parent].prio {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h prioHeap) siftDown(i int) {
	n := len(h)
	for {
		left, right := 2*i+1, 2*i+2
		best := i
		if left < n && h[left].prio < h[best].prio {
			best = left
		}
		if right < n && h[right].prio < h[best].prio {
			best = right
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
