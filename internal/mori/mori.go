// Package mori implements the Móri model of scale-free random trees and
// its merged m-out graph variant, the first of the two graph families
// for which the paper proves the Ω(√n) non-searchability lower bound.
//
// The Móri tree G_t starts at time t = 2 with vertices 1, 2 and the
// single edge 2 → 1. At each later time t, vertex t is added with one
// outgoing edge to an older vertex u chosen with probability
// proportional to
//
//	p·d_t(u) + (1 − p),
//
// where d_t(u) is the indegree of u at time t and 0 < p ≤ 1 mixes
// preferential (p) and uniform (1 − p) attachment.
//
// As an extension beyond the paper's parameter range, p = 0 is also
// accepted: the process degenerates to pure uniform attachment (the
// random recursive tree), for which the same equivalence machinery
// applies with P(E_{a,b}) → e^{-1} — experiment E11 measures that the
// Ω(√n) non-searchability carries over, answering the paper's closing
// remark that the technique "seems broad enough to be adapted to other
// models of growing random graphs". The m-out Móri graph
// G^(m)_n is obtained by generating the tree of size n·m and merging
// each block of m consecutive vertices into one, preserving multi-edges
// and self-loops, exactly as the paper defines it.
//
// The implementation samples the mixture exactly: the total attachment
// weight splits as p·E + (1−p)·V with E the total indegree (t−2) and V
// the vertex count (t−1), so the generator flips a coin with the exact
// state-dependent probability and then draws either proportionally to
// indegree or uniformly. Because the coin is flipped *before* the
// vertex draw, the preferential draw is pure hit-count sampling and is
// served by the O(1) endpoint array (weights.EndpointArray): generation
// of an n-vertex tree costs O(n) time and O(1) allocations (amortized
// zero with a Scratch). GenerateTreeFenwick keeps the historical
// O(n log n) Fenwick-tree path as the reference implementation the
// production sampler is validated against (chi-square equivalence in
// the tests, BenchmarkGenerateMori for the speedup). EventReplay
// decides the equivalence event E_{a,b} on the tree GenerateTree would
// draw without building it, consuming the same random draws.
package mori

import (
	"fmt"
	"math"
	"math/bits"

	"scalefree/internal/buf"
	"scalefree/internal/graph"
	"scalefree/internal/rng"
	"scalefree/internal/weights"
)

// Tree is a realized Móri tree: Fathers[k] records the destination of
// vertex k's outgoing edge, for 2 <= k <= Size. Fathers[0] and
// Fathers[1] are zero padding; Fathers[2] is always 1.
type Tree struct {
	P       float64
	Fathers []graph.Vertex
}

// GenerateTree draws a Móri tree with size >= 2 vertices and mixing
// parameter 0 < p <= 1, in O(n) time via endpoint-array preferential
// sampling.
func GenerateTree(r *rng.RNG, size int, p float64) (*Tree, error) {
	if size < 2 {
		return nil, fmt.Errorf("mori: tree size %d < 2", size)
	}
	if err := validateP(p); err != nil {
		return nil, err
	}
	t := &Tree{P: p, Fathers: make([]graph.Vertex, size+1)}
	generateTree(r, size, p, t.Fathers, weights.NewEndpointArray(size-1))
	return t, nil
}

// generateTree fills fathers (length size+1, entries 0 and 1 zeroed)
// with a fresh draw, recording every attachment endpoint in ends. The
// endpoint array holds one entry per indegree hit, so a uniform draw
// from it is exactly the indegree-proportional draw of the model.
//
// Draw-order contract (EventReplay depends on it): vertex k = 3..size
// takes one Float64 coin, then either Intn(k-2) (preferential, an index
// into ends) or IntRange(1, k-1) (uniform). Which one depends only on
// the coin, never on the tree drawn so far, so the sequence of RNG
// calls is fixed by (size, p) and the coins. Each of those bounded
// draws is one Uint64 unless Lemire's rejection step may fire (low
// product word below the bound n, probability n/2⁶⁴), so a tree almost
// always consumes exactly 2(size-2) outputs. Changing the order or
// number of draws here changes every seed's output and must change
// EventReplay in the same commit.
func generateTree(r *rng.RNG, size int, p float64, fathers []graph.Vertex, ends *weights.EndpointArray) {
	fathers[0], fathers[1] = 0, 0
	fathers[2] = 1
	ends.Record(1) // the initial edge 2 → 1
	for k := 3; k <= size; k++ {
		prefMass, total := coinMasses(p, k)
		var u graph.Vertex
		if r.Float64()*total < prefMass {
			u = graph.Vertex(ends.Sample(r))
		} else {
			u = graph.Vertex(r.IntRange(1, k-1))
		}
		fathers[k] = u
		ends.Record(int32(u))
	}
}

// coinMasses returns vertex k's coin operands: the preferential mass
// p(k-2) and the total attachment weight p(k-2) + (1-p)(k-1) over the
// k-1 vertices and k-2 edges present before k arrives. The explicit
// float64 conversions round each product on its own: the Go spec lets
// a compiler fuse p·x + (1-p)·y into one FMA (arm64 does), which would
// round differently from the separate products and could split the
// generators and EventReplay's threshold table. Both call this helper.
func coinMasses(p float64, k int) (pref, total float64) {
	pref = float64(p * float64(k-2))
	unif := float64((1 - p) * float64(k-1))
	return pref, pref + unif
}

// EventReplay decides the window event E_{a,b} = {Father(k) <= a for
// every a < k <= b} on trees of size b without building them. Each
// Next call consumes the RNG exactly as GenerateTree(r, b, p) would and
// reports whether the tree that call would have drawn satisfies the
// event, so a Monte Carlo loop over Next is bit-identical to one over
// GenerateTree with the same seed, at a fraction of the cost.
//
// It rests on generateTree's draw-order contract plus one observation:
// while the event holds, every edge so far points into [1, a], so a
// preferential draw lands in [1, a] and cannot break it. The event
// therefore fails exactly at the first uniform draw 1+Intn(k-1) > a of
// a window vertex. Vertices up to a+1 still take their two draws but
// can never fail it, since their uniform draws stay below k.
type EventReplay struct {
	size, a int
	p       float64
	// thresholds[k-3] is the number of 53-bit coin values m for which
	// vertex k takes the preferential branch (coinThreshold).
	thresholds []uint64
	// fallback serves the reps whose draws hit Lemire's rejection
	// step; it stays empty until the first such rep.
	fallback Scratch
	// forceFallback makes every rep take the fallback path; only the
	// package's tests set it, since a real rejection is too rare to
	// sample.
	forceFallback bool
	buf           [2 * replayChunk]uint64
}

// replayChunk is the number of vertices EventReplay decodes per Fill;
// the 2·replayChunk draws of one chunk fit in L1.
const replayChunk = 256

// NewEventReplay prepares the replay of GenerateTree(r, size, p) for
// the event with window start a (1 <= a <= size). It validates size and
// p exactly as GenerateTree does.
func NewEventReplay(size int, p float64, a int) (*EventReplay, error) {
	if size < 2 {
		return nil, fmt.Errorf("mori: tree size %d < 2", size)
	}
	if err := validateP(p); err != nil {
		return nil, err
	}
	if a < 1 || a > size {
		return nil, fmt.Errorf("mori: event window start %d outside [1, %d]", a, size)
	}
	e := &EventReplay{size: size, a: a, p: p, thresholds: make([]uint64, size-2)}
	for k := 3; k <= size; k++ {
		e.thresholds[k-3] = coinThreshold(coinMasses(p, k))
	}
	return e, nil
}

// coinThreshold turns the coin test Float64()·total < pref into an
// integer one. Float64 returns m·2⁻⁵³ for the top 53 bits m of a draw,
// and fl(m·2⁻⁵³·total) is monotone in m, so the preferential branch is
// taken exactly for m below the returned threshold. The quotient
// pref/total lands within a few units of it; the search brackets that
// guess by doubling steps and then bisects, testing every candidate
// with the generator's own float expression (prefCoin).
func coinThreshold(pref, total float64) uint64 {
	const end = uint64(1) << 53
	guess := uint64(min(pref/total, 1) * (1 << 53))
	// Invariant: the threshold lies in [lo, hi].
	lo, hi := guess, guess
	for step := uint64(1); lo > 0 && !prefCoin(lo-1, pref, total); step *= 2 {
		lo -= min(step, lo)
	}
	for step := uint64(1); hi < end && prefCoin(hi, pref, total); step *= 2 {
		hi = min(hi+step, end)
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if prefCoin(mid, pref, total) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// prefCoin reports whether the coin whose Float64 is m·2⁻⁵³ takes the
// preferential branch, by generateTree's comparison.
func prefCoin(m uint64, pref, total float64) bool {
	return float64(m)/(1<<53)*total < pref
}

// Next draws one tree's worth of randomness from r, exactly as
// GenerateTree(r, size, p) would, and reports whether that tree
// satisfies the event. It allocates nothing, except on the first rep
// whose draws hit a rejection, which it re-runs through GenerateTree's
// own code from the saved RNG state.
//
//sf:hotpath
func (e *EventReplay) Next(r *rng.RNG) bool {
	saved := *r
	var failed, rejected uint64
	for i := 0; i < len(e.thresholds); i += replayChunk {
		thr := e.thresholds[i:min(i+replayChunk, len(e.thresholds))]
		draws := e.buf[:2*len(thr)]
		r.Fill(draws)
		f, rej := scanDraws(draws, thr, uint64(i+3), uint64(e.a))
		failed |= f
		rejected |= rej
	}
	if rejected == 0 && !e.forceFallback {
		return failed == 0
	}
	*r = saved
	// NewEventReplay validated size and p, so this cannot fail.
	t, _ := GenerateTreeScratch(r, e.size, e.p, &e.fallback)
	for k := e.a + 1; k <= e.size; k++ {
		if int(t.Fathers[k]) > e.a {
			return false
		}
	}
	return true
}

// scanDraws decodes the coin and bounded draws of vertices k0,
// k0+1, ... from draws (two per vertex, in generateTree's order),
// branch-free. failed is 1 when some uniform draw attaches a vertex
// above a, which can only happen inside the window; rejected is 1 when
// some bounded draw's low product word is below its bound, the only
// case in which Uint64n may consume more than one output.
//
//sf:hotpath
func scanDraws(draws, thresholds []uint64, k0, a uint64) (failed, rejected uint64) {
	draws = draws[:2*len(thresholds)]
	n := k0 - 1 // vertex k0's uniform bound; its preferential one is n-1
	j := 0
	// Up to vertex a+1 (n <= a) a uniform father 1+Intn(n) is at most
	// a, so only the rejection check is needed.
	for ; j < len(thresholds) && n <= a; j++ {
		d := draws[2*j : 2*j+2]
		bound := n - (d[0]>>11-thresholds[j])>>63
		_, rej := bits.Sub64(d[1]*bound, bound, 0)
		rejected |= rej
		n++
	}
	for ; j < len(thresholds); j++ {
		d := draws[2*j : 2*j+2]
		pref := (d[0]>>11 - thresholds[j]) >> 63 // 1 iff coin < thr; both < 2⁶³
		bound := n - pref
		hi, lo := bits.Mul64(d[1], bound)
		_, rej := bits.Sub64(lo, bound, 0)
		_, below := bits.Sub64(hi, a, 0)
		rejected |= rej
		failed |= ^(pref | below) & 1
		n++
	}
	return failed, rejected
}

// GenerateTreeFenwick is the historical O(n log n) generator drawing
// the preferential vertex from a Fenwick tree over indegrees. It
// samples exactly the same distribution as GenerateTree and is kept as
// the reference implementation for the sampler ablation
// (BenchmarkGenerateMori, DESIGN.md §5.2) and the chi-square
// equivalence test; the two consume RNG streams differently, so equal
// seeds yield different (identically distributed) trees.
func GenerateTreeFenwick(r *rng.RNG, size int, p float64) (*Tree, error) {
	if size < 2 {
		return nil, fmt.Errorf("mori: tree size %d < 2", size)
	}
	if err := validateP(p); err != nil {
		return nil, err
	}
	t := &Tree{P: p, Fathers: make([]graph.Vertex, size+1)}
	t.Fathers[2] = 1
	indeg := weights.NewFenwick(size)
	indeg.Add(1, 1) // the initial edge 2 → 1
	for k := 3; k <= size; k++ {
		prefMass, total := coinMasses(p, k)
		var u graph.Vertex
		if r.Float64()*total < prefMass {
			u = graph.Vertex(indeg.Sample(r))
		} else {
			u = graph.Vertex(r.IntRange(1, k-1))
		}
		t.Fathers[k] = u
		indeg.Add(int(u), 1)
	}
	return t, nil
}

// Size returns the number of vertices.
func (t *Tree) Size() int { return len(t.Fathers) - 1 }

// Father returns the destination of vertex k's outgoing edge
// (2 <= k <= Size).
func (t *Tree) Father(k graph.Vertex) graph.Vertex {
	return t.Fathers[k]
}

// Graph freezes the tree into a directed graph with edges k → Father(k)
// appended in insertion order k = 2..Size.
func (t *Tree) Graph() *graph.Graph {
	size := t.Size()
	b := graph.NewBuilder(size, size-1)
	b.AddVertices(size)
	for k := 2; k <= size; k++ {
		b.AddEdge(graph.Vertex(k), t.Fathers[k])
	}
	return b.Freeze()
}

// InDegrees replays the tree and returns the indegree of every vertex
// (indexed 1..Size).
func (t *Tree) InDegrees() []int {
	ds := make([]int, t.Size()+1)
	for k := 2; k <= t.Size(); k++ {
		ds[t.Fathers[k]]++
	}
	return ds
}

// Merge produces the m-out Móri graph from a tree whose size is
// divisible by m: tree vertices m(i-1)+1..mi become graph vertex i and
// every tree edge is carried over, so the result has Size/m vertices
// and Size-1 edges, possibly with loops and multi-edges.
func Merge(t *Tree, m int) (*graph.Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("mori: merge factor %d < 1", m)
	}
	size := t.Size()
	if size%m != 0 {
		return nil, fmt.Errorf("mori: tree size %d not divisible by merge factor %d", size, m)
	}
	return mergeInto(t, m, graph.NewBuilder(size/m, size-1), new(graph.Graph)), nil
}

// mergeInto performs the merge through a caller-owned builder and
// snapshot (both reused when their capacity suffices). The builder must
// be freshly Reset.
func mergeInto(t *Tree, m int, b *graph.Builder, g *graph.Graph) *graph.Graph {
	size := t.Size()
	b.AddVertices(size / m)
	for k := 2; k <= size; k++ {
		b.AddEdge(mergedID(graph.Vertex(k), m), mergedID(t.Fathers[k], m))
	}
	return b.FreezeInto(g)
}

// mergedID maps tree vertex v to its block identity under merge factor m.
func mergedID(v graph.Vertex, m int) graph.Vertex {
	return (v + graph.Vertex(m) - 1) / graph.Vertex(m)
}

// Config describes a merged Móri graph G^(m)_N.
type Config struct {
	N int     // merged graph size (number of vertices), >= 2
	M int     // merge factor m >= 1; 1 yields the plain tree
	P float64 // preferential mixing, 0 < p <= 1
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("mori: N = %d < 2", c.N)
	}
	if c.M < 1 {
		return fmt.Errorf("mori: M = %d < 1", c.M)
	}
	return validateP(c.P)
}

// String implements fmt.Stringer for bench and log labels.
func (c Config) String() string {
	return fmt.Sprintf("mori(n=%d,m=%d,p=%g)", c.N, c.M, c.P)
}

// Generate draws the merged Móri graph: a tree of size N·M merged with
// factor M.
func (c Config) Generate(r *rng.RNG) (*graph.Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	t, err := GenerateTree(r, c.N*c.M, c.P)
	if err != nil {
		return nil, err
	}
	return Merge(t, c.M)
}

// Scratch holds the reusable buffers of one generation worker: the
// tree's father array, the endpoint array, and the merge builder plus
// its CSR snapshot. The zero value is ready to use; after a warm-up
// generation, repeated same-size GenerateScratch calls allocate
// nothing.
type Scratch struct {
	tree    Tree
	ends    weights.EndpointArray
	builder graph.Builder
	g       graph.Graph
}

// GenerateTreeScratch is GenerateTree through s's reusable buffers:
// after a warm-up call, repeated same-size draws allocate nothing. The
// returned tree aliases s and is valid until the next use of the same
// scratch. A nil scratch falls back to GenerateTree; equal seeds yield
// the identical tree either way.
func GenerateTreeScratch(r *rng.RNG, size int, p float64, s *Scratch) (*Tree, error) {
	if s == nil {
		return GenerateTree(r, size, p)
	}
	if size < 2 {
		return nil, fmt.Errorf("mori: tree size %d < 2", size)
	}
	if err := validateP(p); err != nil {
		return nil, err
	}
	// generateTree overwrites every entry, so plain Grow suffices.
	s.tree.Fathers = buf.Grow(s.tree.Fathers, size+1)
	s.tree.P = p
	s.ends.Reset(size - 1)
	generateTree(r, size, p, s.tree.Fathers, &s.ends)
	return &s.tree, nil
}

// GenerateScratch is Generate drawing the identical distribution (and,
// for equal seeds, the identical graph) through s's reusable buffers.
// The returned graph aliases s and is valid until the next call with
// the same scratch; callers that outlive the scratch must use Generate.
func (c Config) GenerateScratch(r *rng.RNG, s *Scratch) (*graph.Graph, error) {
	if s == nil {
		return c.Generate(r)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	t, err := GenerateTreeScratch(r, c.N*c.M, c.P, s)
	if err != nil {
		return nil, err
	}
	s.builder.Reset(c.N, c.N*c.M-1)
	return mergeInto(t, c.M, &s.builder, &s.g), nil
}

func validateP(p float64) error {
	// p = 0 (pure uniform attachment) is accepted as a documented
	// extension; the paper's theorems cover 0 < p <= 1.
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("mori: p = %v out of [0, 1]", p)
	}
	return nil
}

// TreeLogProb returns the exact log-probability that GenerateTree
// produces exactly the given father assignment under mixing parameter
// p. Fathers must be a valid increasing assignment (father(k) < k); the
// function replays the attachment weights step by step.
func TreeLogProb(fathers []graph.Vertex, p float64) (float64, error) {
	size := len(fathers) - 1
	if size < 2 {
		return 0, fmt.Errorf("mori: father array for size %d < 2", size)
	}
	if err := validateP(p); err != nil {
		return 0, err
	}
	if fathers[2] != 1 {
		return 0, fmt.Errorf("mori: fathers[2] = %d, must be 1", fathers[2])
	}
	indeg := make([]int, size+1)
	indeg[1] = 1
	logProb := 0.0
	for k := 3; k <= size; k++ {
		u := fathers[k]
		if u < 1 || int(u) >= k {
			return 0, fmt.Errorf("mori: fathers[%d] = %d violates father < child", k, u)
		}
		num := p*float64(indeg[u]) + (1 - p)
		den := p*float64(k-2) + (1-p)*float64(k-1)
		logProb += math.Log(num / den)
		indeg[u]++
	}
	return logProb, nil
}

// TreeProb is TreeLogProb exponentiated; it underflows for large trees,
// so use it only on small instances (enumeration tests).
func TreeProb(fathers []graph.Vertex, p float64) (float64, error) {
	lp, err := TreeLogProb(fathers, p)
	if err != nil {
		return 0, err
	}
	return math.Exp(lp), nil
}

// EnumerateTrees visits every possible father assignment of a Móri tree
// with the given size, in lexicographic order. The callback receives a
// reused slice that it must not retain. The number of assignments is
// (size-1)!, so this is intended for size <= 10.
func EnumerateTrees(size int, visit func(fathers []graph.Vertex)) error {
	if size < 2 {
		return fmt.Errorf("mori: cannot enumerate trees of size %d < 2", size)
	}
	fathers := make([]graph.Vertex, size+1)
	fathers[2] = 1
	var rec func(k int)
	rec = func(k int) {
		if k > size {
			visit(fathers)
			return
		}
		for u := 1; u < k; u++ {
			fathers[k] = graph.Vertex(u)
			rec(k + 1)
		}
	}
	rec(3)
	return nil
}
