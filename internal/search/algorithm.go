package search

import (
	"fmt"

	"scalefree/internal/rng"
)

// Result reports one search run.
type Result struct {
	Found    bool
	Requests int
}

// Algorithm is a local search strategy operating through an Oracle.
// Implementations must access the graph exclusively via oracle requests
// in their declared knowledge model.
type Algorithm interface {
	// Name identifies the algorithm in tables and logs.
	Name() string
	// Knowledge is the model the algorithm requires.
	Knowledge() Knowledge
	// Search runs until the target is found or maxRequests requests
	// have been spent (maxRequests <= 0 means unbounded). It returns
	// ErrBudgetExhausted wrapped in no error — budget exhaustion is a
	// normal outcome reported via Result.Found=false — and reserves
	// error returns for oracle protocol violations, which indicate
	// bugs.
	Search(o *Oracle, r *rng.RNG, maxRequests int) (Result, error)
}

// budgetLeft reports whether another request may be spent.
func budgetLeft(o *Oracle, maxRequests int) bool {
	return maxRequests <= 0 || o.Requests() < maxRequests
}

// stepCap bounds the total number of *moves* (including free moves
// along already-resolved edges) for walk-style algorithms, so that a
// walk confined to an exhausted region terminates. At 64× the request
// budget it is generous, but it does bind: on hub-heavy graphs
// self-avoiding-walk and biased-walk trials can spend the whole cap on
// free moves among already-known vertices and stop with budget left.
// Such a trial reports Found=false with fewer requests than the
// budget.
func stepCap(maxRequests int) int {
	if maxRequests <= 0 {
		return 1 << 40
	}
	return 64*maxRequests + 1024
}

// checkModel verifies an algorithm/oracle pairing.
func checkModel(a Algorithm, o *Oracle) error {
	if a.Knowledge() != o.Knowledge() {
		return fmt.Errorf("search: algorithm %q needs the %v model, oracle provides %v",
			a.Name(), a.Knowledge(), o.Knowledge())
	}
	return nil
}

// WeakAlgorithms returns one instance of every weak-model algorithm,
// the set measured by experiments E1 and E3.
func WeakAlgorithms() []Algorithm {
	return []Algorithm{
		NewRandomWalk(),
		NewSelfAvoidingWalk(),
		NewFlood(),
		NewRandomEdge(),
		NewDegreeGreedyWeak(),
		NewIDGreedyWeak(),
		NewMixedGreedy(0.5),
	}
}

// StrongAlgorithms returns one instance of every strong-model
// algorithm, the set measured by experiments E2 and E8.
func StrongAlgorithms() []Algorithm {
	return []Algorithm{
		NewDegreeGreedyStrong(),
		NewIDGreedyStrong(),
		NewRandomWalkStrong(),
		NewTwoPhase(),
		NewBiasedWalk(1),
	}
}
