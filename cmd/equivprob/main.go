// Command equivprob evaluates the equivalence-event probabilities that
// drive the paper's lower bounds: the exact P(E_{a,b}) of Lemma 2's
// event, a Monte-Carlo cross-check, Lemma 3's e^{-(1-p)} floor, and
// the resulting Lemma-1 bound |V|·P(E)/2.
//
// Usage:
//
//	equivprob -n 10000 -p 0.5 [-mc 20000] [-seed 1]
//	equivprob -a 99 -b 108 -p 0.25          # explicit window
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"scalefree/internal/equivalence"
	"scalefree/internal/rng"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "equivprob:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("equivprob", flag.ContinueOnError)
	var (
		n    = fs.Int("n", 10000, "target vertex (canonical window from the Theorem-1 proof)")
		a    = fs.Int("a", 0, "explicit window start (overrides -n together with -b)")
		b    = fs.Int("b", 0, "explicit window end (overrides -n together with -a)")
		p    = fs.Float64("p", 0.5, "Móri preferential mixing parameter")
		mc   = fs.Int("mc", 20000, "Monte-Carlo generations (0 to skip)")
		seed = fs.Uint64("seed", 1, "seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["a"] != set["b"] {
		missing := "-b"
		if set["b"] {
			missing = "-a"
		}
		return fmt.Errorf("an explicit window needs both -a and -b; %s is missing", missing)
	}

	wa, wb := *a, *b
	if !set["a"] {
		var err error
		wa, wb, err = equivalence.Window(*n)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "canonical window for target n=%d: V = [[%d, %d]], |V| = %d\n", *n, wa+1, wb, wb-wa)
	} else {
		fmt.Fprintf(stdout, "explicit window: V = [[%d, %d]], |V| = %d\n", wa+1, wb, wb-wa)
	}

	exact, err := equivalence.ExactEventProb(*p, wa, wb)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "exact P(E)      = %.6f\n", exact)
	fmt.Fprintf(stdout, "Lemma-3 floor   = %.6f (e^{-(1-p)})\n", equivalence.Lemma3Bound(*p))

	if *mc > 0 {
		est, se, err := equivalence.MonteCarloEventProb(rng.New(*seed), *p, wa, wb, *mc)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Monte Carlo     = %.6f ± %.6f (%d generations)\n", est, se, *mc)
	}

	bound := float64(wb-wa) * exact / 2
	fmt.Fprintf(stdout, "Lemma-1 bound   = %.2f expected requests (|V|·P(E)/2)\n", bound)
	return nil
}
