package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"time"

	"scalefree/internal/core"
	"scalefree/internal/engine"
	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
	"scalefree/internal/search"
)

// hubMori is the hub-search graph family: Móri with m=2 and p=0.9, so
// the largest hub has degree about n^0.9 and the search layer's
// per-request cost dominates the trial.
func hubMori(n int) mori.Config { return mori.Config{N: n, M: 2, P: 0.9} }

// hubOutcome is one hub-search trial: one graph, searched by every
// algorithm of the battery from vertex 1 for the youngest vertex n
// under a request budget of n, as core.MeasureOne fixes them.
type hubOutcome struct {
	requests []int   // per algorithm
	found    []bool  // per algorithm
	revealed []int64 // per algorithm: summed degree of the vertices requested
	oracleNs []int64 // per algorithm: search.NewOracleShuffledScratch
	searchNs []int64 // per algorithm: Algorithm.Search
	genNs    int64   // core.GraphGen
	totalNs  int64   // the whole trial
}

// hubTrial runs one hub-search trial on the worker's scratch. The graph
// comes from stream 0 of the trial seed; algorithm i searches with
// stream 2i+1 and shuffles the oracle's slots with stream 2i+2.
func hubTrial(t engine.Trial, n int, algs []search.Algorithm, s *core.Scratch) (hubOutcome, error) {
	out := hubOutcome{
		requests: make([]int, len(algs)),
		found:    make([]bool, len(algs)),
		revealed: make([]int64, len(algs)),
		oracleNs: make([]int64, len(algs)),
		searchNs: make([]int64, len(algs)),
	}
	t0 := time.Now()
	var gr, sr rng.RNG
	gr.Reseed(rng.DeriveSeed(t.Seed, 0))
	g, err := core.MoriGen(hubMori(n))(&gr, s)
	if err != nil {
		return out, fmt.Errorf("generating: %w", err)
	}
	out.genNs = time.Since(t0).Nanoseconds()
	start, target := graph.Vertex(1), graph.Vertex(n)
	for i, alg := range algs {
		sr.Reseed(rng.DeriveSeed(t.Seed, uint64(2*i+1)))
		a := time.Now()
		o, err := search.NewOracleShuffledScratch(g, start, target, alg.Knowledge(),
			rng.DeriveSeed(t.Seed, uint64(2*i+2)), &s.Search)
		if err != nil {
			return out, fmt.Errorf("%s: %w", alg.Name(), err)
		}
		b := time.Now()
		res, err := alg.Search(o, &sr, n)
		c := time.Now()
		if err != nil {
			return out, fmt.Errorf("%s: %w", alg.Name(), err)
		}
		out.oracleNs[i] = b.Sub(a).Nanoseconds()
		out.searchNs[i] = c.Sub(b).Nanoseconds()
		if err := checkSearch(g, o, res, n); err != nil {
			return out, fmt.Errorf("%s: %w", alg.Name(), err)
		}
		out.requests[i] = res.Requests
		out.found[i] = res.Found
		if alg.Knowledge() == search.Strong {
			for _, v := range o.Discovered() {
				out.revealed[i] += int64(g.Degree(v))
			}
		}
	}
	out.totalNs = time.Since(t0).Nanoseconds()
	return out, nil
}

// checkSearch verifies one search against the graph: the reported
// result agrees with the oracle, stays within the budget, and a found
// target comes with a start→target path along real edges.
func checkSearch(g *graph.Graph, o *search.Oracle, res search.Result, budget int) error {
	if res.Requests != o.Requests() || res.Found != o.Found() {
		return fmt.Errorf("result (%d requests, found=%v) disagrees with the oracle (%d, %v)",
			res.Requests, res.Found, o.Requests(), o.Found())
	}
	if res.Requests > budget {
		return fmt.Errorf("%d requests exceed the budget %d", res.Requests, budget)
	}
	if !res.Found {
		return nil
	}
	path, err := o.FoundPath()
	if err != nil {
		return err
	}
	if len(path) == 0 || path[0] != o.Start() || path[len(path)-1] != o.Target() {
		return fmt.Errorf("found path %v does not lead from %d to %d", path, o.Start(), o.Target())
	}
	for k := 1; k < len(path); k++ {
		if !adjacent(g, path[k-1], path[k]) {
			return fmt.Errorf("found path steps from %d to %d along no edge", path[k-1], path[k])
		}
	}
	return nil
}

func adjacent(g *graph.Graph, u, v graph.Vertex) bool {
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	for _, h := range g.Incident(u) {
		if h.Other == v {
			return true
		}
	}
	return false
}

// hubDigest hashes the per-trial request counts and found flags.
func hubDigest(outs []hubOutcome) string {
	h := sha256.New()
	var b [8]byte
	for _, o := range outs {
		for i := range o.requests {
			binary.LittleEndian.PutUint64(b[:], uint64(o.requests[i]))
			h.Write(b[:])
			if o.found[i] {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hubRound runs trials first..first+count-1 of the seed's trial
// sequence on the engine with one pre-warmed scratch per worker. The
// clock's set-up covers the trial list and the scratch warm-up.
func hubRound(ctx context.Context, cfg runConfig, algs []search.Algorithm, first int, clock *roundClock, stats *engineStats) ([]hubOutcome, error) {
	n, count := cfg.params.hubN, cfg.params.hubTrials
	trials := make([]engine.Trial, count)
	for k := range trials {
		trials[k] = engine.Trial{Index: k, Key: fmt.Sprintf("hub/n=%d/rep=%d", n, first+k),
			Seed: rng.DeriveSeed(cfg.seed, uint64(first+k))}
	}
	pool := make(chan *core.Scratch, cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		s := core.NewScratch()
		if err := warmHubScratch(s, n, rng.DeriveSeed(cfg.seed, uint64(1<<40+w))); err != nil {
			return nil, err
		}
		pool <- s
	}
	newScratch := func() *core.Scratch {
		select {
		case s := <-pool:
			return s
		default:
			return core.NewScratch()
		}
	}
	opts := engine.Options{Workers: cfg.workers}
	if stats != nil {
		opts.Progress = stats.begin()
		defer stats.end(cfg.workers)
	}
	clock.dispatched()
	return engine.RunScratch(ctx, trials, opts, newScratch,
		func(_ context.Context, t engine.Trial, _ *rng.RNG, s *core.Scratch) (hubOutcome, error) {
			return hubTrial(t, n, algs, s)
		})
}

// runHubSearch measures the search layer on hub-heavy graphs. Round i
// searches trials i·hubTrials … (i+1)·hubTrials−1 of the seed's trial
// sequence, so every round holds fresh graphs and wall_s, the median
// round, is not set by the few trials whose walks spend their whole
// step cap on free moves through hubs (engine.trial_max_ms shows
// those). After the window, round 0 runs again and must reproduce its
// request counts and found flags exactly.
func runHubSearch(ctx context.Context, cfg runConfig) (*report, error) {
	p := cfg.params
	algs := hubAlgorithms()
	rep := newReport()
	var (
		stats                        engineStats
		searchNs, oracleNs, revealed = make([]int64, len(algs)), make([]int64, len(algs)), make([]int64, len(algs))
		requests                     = make([]int64, len(algs))
		trialNs, genNs, searches     int64
		round0                       []hubOutcome
	)
	rounds, err := repeat(ctx, cfg, func(i int) (round, error) {
		clock := startRound()
		outs, err := hubRound(ctx, cfg, algs, i*p.hubTrials, clock, &stats)
		rd := clock.finish()
		rep.attempted += p.hubTrials
		if err != nil {
			rep.problem(p.hubTrials, "round %d: %v", i, err)
			return rd, nil
		}
		if i == 0 {
			round0 = outs
		}
		for _, o := range outs {
			for a := range algs {
				searchNs[a] += o.searchNs[a]
				oracleNs[a] += o.oracleNs[a]
				revealed[a] += o.revealed[a]
				requests[a] += int64(o.requests[a])
			}
			trialNs += o.totalNs
			genNs += o.genNs
			searches += int64(len(algs))
		}
		return rd, nil
	})
	if err != nil {
		return nil, err
	}
	if len(rounds) == 0 {
		return rep, nil
	}
	rep.setEndToEnd(rounds, p.hubTrials)
	if round0 == nil {
		return rep, nil // round 0 failed; its problem is recorded
	}
	rep.digest = hubDigest(round0)
	again, err := hubRound(ctx, cfg, algs, 0, startRound(), nil)
	rep.attempted += p.hubTrials
	if err != nil {
		rep.problem(p.hubTrials, "repeating round 0: %v", err)
	} else if d := hubDigest(again); d != rep.digest {
		rep.problem(p.hubTrials, "repeating round 0 changed its request counts (digest %s, want %s)", d, rep.digest)
	}

	var total int64
	for a := range algs {
		total += requests[a]
	}
	rep.set("requests_per_s", float64(total)/float64(len(rounds))/rep.metrics["wall_s"])
	var searchSum, oracleSum int64
	for a, alg := range algs {
		name := metricName(alg.Name())
		searchSum += searchNs[a]
		oracleSum += oracleNs[a]
		if alg.Knowledge() == search.Weak {
			if requests[a] > 0 {
				rep.set("search.ns_per_request."+name, float64(searchNs[a])/float64(requests[a]))
			}
		} else if revealed[a] > 0 {
			rep.set("search.ns_per_revealed."+name, float64(searchNs[a])/float64(revealed[a]))
		}
		var reqs, found int
		for _, o := range round0 {
			reqs += o.requests[a]
			if o.found[a] {
				found++
			}
		}
		rep.set("search.requests."+name, float64(reqs))
		rep.set("search.found_ratio."+name, float64(found)/float64(len(round0)))
	}
	rep.set("search.oracle_setup_ns_per_vertex", float64(oracleSum)/float64(searches*int64(p.hubN)))
	rep.set("search.share", float64(searchSum+oracleSum)/float64(trialNs))
	rep.set("generate.share", float64(genNs)/float64(trialNs))
	stats.set(rep, len(rounds))
	return rep, nil
}

// warmHubScratch sizes a worker scratch for n-vertex hub graphs: one
// generation and one oracle of each knowledge model, on a seed no
// timed trial uses.
func warmHubScratch(s *core.Scratch, n int, seed uint64) error {
	var r rng.RNG
	r.Reseed(seed)
	g, err := core.MoriGen(hubMori(n))(&r, s)
	if err != nil {
		return fmt.Errorf("warming a scratch: %w", err)
	}
	for _, k := range []search.Knowledge{search.Weak, search.Strong} {
		if _, err := search.NewOracleShuffledScratch(g, 1, graph.Vertex(n), k, seed, &s.Search); err != nil {
			return fmt.Errorf("warming a scratch: %w", err)
		}
	}
	return nil
}
