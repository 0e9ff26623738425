package equivalence

import (
	"math"
	"testing"

	"scalefree/internal/cooperfrieze"
	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
)

func TestCheckEvent(t *testing.T) {
	// Tree: 2→1, 3→1, 4→2, 5→4. Window (2, 4]: fathers of 3, 4 are
	// 1, 2 — both <= 2, so E holds. Window (3, 5]: father of 5 is 4 > 3.
	tree := &mori.Tree{P: 0.5, Fathers: []graph.Vertex{0, 0, 1, 1, 2, 4}}
	ok, err := CheckEvent(tree, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("E_{2,4} should hold")
	}
	ok, err = CheckEvent(tree, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("E_{3,5} should fail (father of 5 is 4)")
	}
}

func TestCheckEventValidation(t *testing.T) {
	tree := &mori.Tree{P: 0.5, Fathers: []graph.Vertex{0, 0, 1}}
	if _, err := CheckEvent(tree, 0, 1); err == nil {
		t.Error("a = 0 accepted")
	}
	if _, err := CheckEvent(tree, 2, 1); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := CheckEvent(tree, 1, 5); err == nil {
		t.Error("window past tree size accepted")
	}
}

func TestExactEventProbAgainstEnumeration(t *testing.T) {
	// Brute-force P(E_{a,b}) by enumerating all trees of size b and
	// summing probabilities of those satisfying the event; compare with
	// the product formula.
	for _, tc := range []struct {
		p    float64
		a, b int
	}{
		{0.5, 2, 5}, {0.5, 3, 6}, {0.3, 2, 6}, {1.0, 3, 7}, {0.8, 1, 5},
	} {
		want := 0.0
		err := mori.EnumerateTrees(tc.b, func(fathers []graph.Vertex) {
			tree := &mori.Tree{P: tc.p, Fathers: fathers}
			ok, err := CheckEvent(tree, tc.a, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				prob, err := mori.TreeProb(fathers, tc.p)
				if err != nil {
					t.Fatal(err)
				}
				want += prob
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExactEventProb(tc.p, tc.a, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("p=%v window (%d,%d]: formula %v, enumeration %v", tc.p, tc.a, tc.b, got, want)
		}
	}
}

func TestExactEventProbMatchesMonteCarlo(t *testing.T) {
	p := 0.5
	a, b := 50, 57 // window of size 7 = isqrt(49)
	exact, err := ExactEventProb(p, a, b)
	if err != nil {
		t.Fatal(err)
	}
	est, se, err := MonteCarloEventProb(rng.New(31), p, a, b, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-exact) > 4*se+0.01 {
		t.Errorf("MC estimate %v ± %v vs exact %v", est, se, exact)
	}
}

func TestLemma3BoundHolds(t *testing.T) {
	// For the canonical window b = a + ⌊√(a-1)⌋, the exact probability
	// must sit above e^{-(1-p)} for every p and a — Lemma 3.
	for _, p := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		floor := Lemma3Bound(p)
		for _, a := range []int{2, 5, 10, 100, 1000, 100000} {
			b := a + isqrt(a-1)
			prob, err := ExactEventProb(p, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if prob < floor-1e-12 {
				t.Errorf("p=%v a=%d: P(E) = %v below Lemma-3 floor %v", p, a, prob, floor)
			}
		}
	}
	if Lemma3Bound(1) != 1 {
		t.Error("Lemma3Bound(1) should be 1 (pure preferential)")
	}
}

func TestWindow(t *testing.T) {
	a, b, err := Window(101)
	if err != nil {
		t.Fatal(err)
	}
	if a != 100 || b != 100+isqrt(99) {
		t.Errorf("Window(101) = (%d, %d)", a, b)
	}
	if _, _, err := Window(2); err == nil {
		t.Error("Window(2) accepted")
	}
}

func TestWindowEndingAt(t *testing.T) {
	a, err := WindowEndingAt(100)
	if err != nil {
		t.Fatal(err)
	}
	if a != 100-isqrt(99) {
		t.Errorf("WindowEndingAt(100) = %d", a)
	}
	if _, err := WindowEndingAt(2); err == nil {
		t.Error("WindowEndingAt(2) accepted")
	}
}

func TestIsqrt(t *testing.T) {
	for x := 0; x <= 10000; x++ {
		r := isqrt(x)
		if r*r > x || (r+1)*(r+1) <= x {
			t.Fatalf("isqrt(%d) = %d", x, r)
		}
	}
	if isqrt(-5) != 0 {
		t.Error("isqrt of negative should be 0")
	}
}

func TestLemma1BoundScalesAsSqrtN(t *testing.T) {
	// |V|·P(E)/2 with |V| = Θ(√n) and P(E) >= e^{-(1-p)} must grow like
	// √n: check the ratio bound(4n)/bound(n) ≈ 2.
	p := 0.5
	b1, err := Lemma1Bound(10000, p)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Lemma1Bound(40000, p)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := b2 / b1; math.Abs(ratio-2) > 0.05 {
		t.Errorf("bound(40000)/bound(10000) = %v, want ≈2", ratio)
	}
	// And the bound itself is at least e^{-(1-p)}·√n/2 up to the floor
	// of the window size.
	if b1 < Lemma3Bound(p)*float64(isqrt(9998))/2-1e-9 {
		t.Errorf("Lemma1Bound(10000) = %v below its analytic floor", b1)
	}
}

// TestMonteCarloValidation pins every input error: the replay must
// reject exactly what the tree-building reference rejects, with the
// same message.
func TestMonteCarloValidation(t *testing.T) {
	for _, tc := range []struct {
		p          float64
		a, b, reps int
	}{
		{0.5, 5, 8, 0},
		{0.5, 5, 8, -3},
		{0.5, 0, 8, 10},
		{0.5, 9, 8, 10},
		{0.5, 1, 1, 10}, // a tree needs two vertices
		{-0.1, 5, 8, 10},
		{1.5, 5, 8, 10},
		{math.NaN(), 5, 8, 10},
		{math.Inf(1), 5, 8, 10},
	} {
		_, _, err := MonteCarloEventProb(rng.New(1), tc.p, tc.a, tc.b, tc.reps)
		_, _, want := referenceMonteCarloEventProb(rng.New(1), tc.p, tc.a, tc.b, tc.reps)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("p=%v a=%d b=%d reps=%d: error %v, reference %v", tc.p, tc.a, tc.b, tc.reps, err, want)
		}
	}
}

func TestCheckEventCF(t *testing.T) {
	cfg := cooperfrieze.Config{N: 400, Alpha: 0.8, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true}
	res, err := cfg.Generate(rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := WindowEndingAt(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	// The event may or may not hold on this draw; just exercise both
	// the checker and its validation.
	if _, err := CheckEventCF(res, a, cfg.N); err != nil {
		t.Fatal(err)
	}
	if _, err := CheckEventCF(res, a, cfg.N-1); err == nil {
		t.Error("b != NumVertices accepted")
	}
}

func TestCFEventProbabilityIsSubstantial(t *testing.T) {
	// Theorem 2 rests on P(E) being bounded away from 0. With mostly
	// uniform attachment and one edge per step the event should occur
	// with clearly positive frequency at moderate n.
	cfg := cooperfrieze.Config{N: 300, Alpha: 0.9, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true}
	a, err := WindowEndingAt(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	est, se, err := MonteCarloEventProbCF(rng.New(7), cfg, a, 400)
	if err != nil {
		t.Fatal(err)
	}
	if est < 0.05 {
		t.Errorf("CF event probability %v ± %v suspiciously small", est, se)
	}
}

func TestLemma1BoundCF(t *testing.T) {
	cfg := cooperfrieze.Config{N: 300, Alpha: 0.9, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true}
	bound, a, prob, err := Lemma1BoundCF(rng.New(11), cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	if a >= cfg.N || prob < 0 || prob > 1 {
		t.Fatalf("bound=%v a=%d prob=%v", bound, a, prob)
	}
	if want := float64(cfg.N-a) * prob / 2; math.Abs(bound-want) > 1e-12 {
		t.Errorf("bound %v inconsistent with |V|P(E)/2 = %v", bound, want)
	}
}
