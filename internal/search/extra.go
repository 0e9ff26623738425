package search

import (
	"fmt"
	"math"
	"sort"

	"scalefree/internal/buf"
	"scalefree/internal/graph"
	"scalefree/internal/rng"
)

// TwoPhase is Adamic et al.'s protocol sketch made concrete: phase one
// climbs the degree sequence (request the highest-degree visible vertex
// until the frontier stops improving on the best degree seen), phase
// two falls back to identity-greedy descent towards the target. On
// age-correlated graphs the hub neighborhood covers much of the old
// core, after which label descent probes the young periphery.
type TwoPhase struct{}

// NewTwoPhase returns the strong-model hub-then-label searcher.
func NewTwoPhase() *TwoPhase { return &TwoPhase{} }

// Name implements Algorithm.
func (*TwoPhase) Name() string { return "two-phase" }

// Knowledge implements Algorithm.
func (*TwoPhase) Knowledge() Knowledge { return Strong }

// Search implements Algorithm.
func (*TwoPhase) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(NewTwoPhase(), o); err != nil {
		return Result{}, err
	}
	d := o.drivers()
	byDegree, byLabel := &d.heaps[0], &d.heaps[1]
	push := func(v graph.Vertex) {
		byDegree.Push(prioEntry{degreePriority(o, v), v})
		byLabel.Push(prioEntry{labelPriority(o, v), v})
	}
	push(o.Start())

	bestDegree := 0
	climbing := true
	for !o.Found() && budgetLeft(o, maxRequests) {
		h := byLabel
		if climbing {
			h = byDegree
		}
		e, ok := h.Pop()
		if !ok {
			break
		}
		if !o.IsVisible(e.v) {
			continue
		}
		view, _ := o.ViewOf(e.v)
		if climbing {
			if view.Degree > bestDegree {
				bestDegree = view.Degree
			} else {
				// Frontier stopped improving: the hub has been reached;
				// switch to label descent for the rest of the search.
				climbing = false
			}
		}
		neighbors, _, err := o.RequestVertex(e.v)
		if err != nil {
			return Result{}, err
		}
		for _, w := range neighbors {
			if o.IsVisible(w) {
				push(w)
			}
		}
	}
	return Result{Found: o.Found(), Requests: o.Requests()}, nil
}

// BiasedWalk is a degree-biased random walk in the strong model: the
// next vertex is drawn from the current neighborhood with probability
// proportional to degree^bias. bias = 0 recovers the uniform walk;
// bias > 0 hugs the hubs (the "high-degree seeking" walk analysed in
// the P2P literature); bias < 0 explores the periphery.
type BiasedWalk struct {
	bias float64
}

// NewBiasedWalk returns a degree-biased strong-model walk.
func NewBiasedWalk(bias float64) *BiasedWalk { return &BiasedWalk{bias: bias} }

// Name implements Algorithm.
func (w *BiasedWalk) Name() string { return fmt.Sprintf("biased-walk(%+.1f)", w.bias) }

// Knowledge implements Algorithm.
func (*BiasedWalk) Knowledge() Knowledge { return Strong }

// Search implements Algorithm.
func (w *BiasedWalk) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(w, o); err != nil {
		return Result{}, err
	}
	cur := o.Start()
	if _, _, err := o.RequestVertex(cur); err != nil {
		return Result{}, err
	}
	// A vertex's neighbour weights never change, so each visited
	// vertex sums them once and later visits sample in O(log deg).
	d := o.drivers()
	d.cumAt = buf.GrowClear(d.cumAt, o.NumVertices()+1)
	d.cum = d.cum[:0]
	for steps := 0; !o.Found() && budgetLeft(o, maxRequests) && steps < stepCap(maxRequests); steps++ {
		view, ok := o.ViewOf(cur)
		if !ok || view.Resolved == nil {
			return Result{}, fmt.Errorf("search: biased walk standing on unrequested vertex %d", cur)
		}
		if view.Degree == 0 {
			break
		}
		if d.cumAt[cur] == 0 {
			d.cumAt[cur] = int32(len(d.cum)) + 1
			acc := 0.0
			for _, nb := range view.Resolved {
				acc += powWeight(o.views[nb].Degree, w.bias)
				d.cum = append(d.cum, acc)
			}
		}
		at := int(d.cumAt[cur]) - 1
		next := view.Resolved[sampleIndex(r, d.cum[at:at+view.Degree])]
		if _, _, err := o.RequestVertex(next); err != nil {
			return Result{}, err
		}
		cur = next
	}
	return Result{Found: o.Found(), Requests: o.Requests()}, nil
}

// powWeight computes max(d, 1)^bias, the sampling weight of a
// neighbor with degree d.
func powWeight(d int, bias float64) float64 {
	x := float64(d)
	if x < 1 {
		x = 1
	}
	if bias == 0 {
		return 1
	}
	return math.Pow(x, bias)
}

// sampleIndex draws an index with probability proportional to its
// weight, given the prefix sums cum of the weights (all finite, at
// least one positive — guaranteed by powWeight >= 0 with max(d,1)):
// the first i with u < cum[i] for u uniform in [0, total).
func sampleIndex(r *rng.RNG, cum []float64) int {
	u := r.Float64() * cum[len(cum)-1]
	return min(sort.Search(len(cum), func(i int) bool { return u < cum[i] }), len(cum)-1)
}

// MixedGreedy is an ε-mixture of the two weak-model greedy priorities:
// with probability eps the next request goes to the degree-greedy
// choice, otherwise to the identity-greedy choice. It probes whether
// any blend of the two signals beats either alone (it does not — the
// equivalence argument kills every mixture).
type MixedGreedy struct {
	eps float64
}

// NewMixedGreedy returns the ε-mixed weak-model greedy searcher;
// eps is clamped to [0, 1].
func NewMixedGreedy(eps float64) *MixedGreedy {
	if eps < 0 {
		eps = 0
	}
	if eps > 1 {
		eps = 1
	}
	return &MixedGreedy{eps: eps}
}

// Name implements Algorithm.
func (m *MixedGreedy) Name() string { return fmt.Sprintf("mixed-greedy(%.2f)", m.eps) }

// Knowledge implements Algorithm.
func (*MixedGreedy) Knowledge() Knowledge { return Weak }

// Search implements Algorithm.
func (m *MixedGreedy) Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error) {
	if err := checkModel(m, o); err != nil {
		return Result{}, err
	}
	return greedyWeak(o, r, maxRequests, degreePriority, labelPriority, m.eps)
}
