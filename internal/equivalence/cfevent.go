package equivalence

import (
	"fmt"
	"math"

	"scalefree/internal/cooperfrieze"
	"scalefree/internal/graph"
	"scalefree/internal/rng"
)

// CheckEventCF reports whether the Theorem-2 equivalence event holds
// for the window (a, b] in a generated Cooper–Frieze graph whose
// generation stopped at vertex b (b = number of vertices). The event
// requires every window vertex v to be untouched apart from its own
// arrival edges into the old part:
//
//  1. v received no incoming edges,
//  2. v was never selected as an Old-step source (its final out-degree
//     equals its arrival out-degree), and
//  3. all of v's out-edges target vertices <= a.
//
// Conditional on this event the window labels are exchangeable: each
// window vertex interacts with the rest of the graph only through an
// i.i.d. arrival-edge profile into [1, a].
func CheckEventCF(res *cooperfrieze.Result, a, b int) (bool, error) {
	g := res.Graph
	if b != g.NumVertices() {
		return false, fmt.Errorf("equivalence: CF event needs b = NumVertices (%d), got %d", g.NumVertices(), b)
	}
	if err := validateWindow(a, b, b); err != nil {
		return false, err
	}
	for v := graph.Vertex(a + 1); int(v) <= b; v++ {
		if g.InDegree(v) != 0 {
			return false, nil
		}
		if g.OutDegree(v) != res.ArrivalOutDeg[v] {
			return false, nil
		}
		for _, h := range g.Incident(v) {
			if h.Out && int(h.Other) > a {
				return false, nil
			}
		}
	}
	return true, nil
}

// MonteCarloEventProbCF estimates the probability of the Theorem-2
// equivalence event for the window (a, cfg.N] by repeated generation.
// It returns the estimate and its standard error. All reps generate
// through one reused scratch, which draws the same graphs as fresh
// generation.
func MonteCarloEventProbCF(r *rng.RNG, cfg cooperfrieze.Config, a, reps int) (estimate, stderr float64, err error) {
	if reps < 1 {
		return 0, 0, fmt.Errorf("equivalence: reps = %d < 1", reps)
	}
	if err := validateWindow(a, cfg.N, cfg.N); err != nil {
		return 0, 0, err
	}
	var scratch cooperfrieze.Scratch
	hits := 0
	for i := 0; i < reps; i++ {
		res, err := cfg.GenerateScratch(r, &scratch)
		if err != nil {
			return 0, 0, err
		}
		ok, err := CheckEventCF(res, a, cfg.N)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			hits++
		}
	}
	ph := float64(hits) / float64(reps)
	return ph, math.Sqrt(ph * (1 - ph) / float64(reps)), nil
}

// Lemma1BoundCF evaluates the Theorem-2 style lower bound |V|·P(E)/2
// for a Cooper–Frieze configuration, using the canonical window ending
// at the youngest vertex and a Monte-Carlo estimate of the event
// probability. It returns the bound together with the window and the
// estimated probability.
func Lemma1BoundCF(r *rng.RNG, cfg cooperfrieze.Config, reps int) (bound float64, a int, prob float64, err error) {
	a, err = WindowEndingAt(cfg.N)
	if err != nil {
		return 0, 0, 0, err
	}
	prob, _, err = MonteCarloEventProbCF(r, cfg, a, reps)
	if err != nil {
		return 0, 0, 0, err
	}
	return float64(cfg.N-a) * prob / 2, a, prob, nil
}
