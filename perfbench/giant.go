package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"time"

	"scalefree/internal/buf"
	"scalefree/internal/cooperfrieze"
	"scalefree/internal/core"
	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
)

// giantModel is one graph family of the giant-graph pipeline.
type giantModel struct {
	name string // metric suffix
	gen  core.GraphGen
}

func giantModels(n int) []giantModel {
	return []giantModel{
		{"mori", core.MoriGen(mori.Config{N: n, M: 2, P: 0.5})},
		{"cf", core.CooperFriezeGen(cooperfrieze.Config{N: n, Alpha: 0.8, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true})},
	}
}

// giantTimes are the per-stage timings of one pipeline pass.
type giantTimes struct {
	generate, freeze, write, open, validate, bfsSerial, bfsParallel, components time.Duration
	edges, snapshotBytes                                                        int64
}

func (t *giantTimes) add(o giantTimes) {
	t.generate += o.generate
	t.freeze += o.freeze
	t.write += o.write
	t.open += o.open
	t.validate += o.validate
	t.bfsSerial += o.bfsSerial
	t.bfsParallel += o.bfsParallel
	t.components += o.components
	t.edges += o.edges
	t.snapshotBytes += o.snapshotBytes
}

// giantBuffers are reused across rounds and models.
type giantBuffers struct {
	gen     core.Scratch
	builder graph.Builder
	frozen  graph.Graph
	dist    []int32
	dist2   []int32
	queue   []graph.Vertex
	labels  []int32
	par     graph.BFSScratch
}

// giantPass runs the pipeline on one model: generate, re-freeze the
// edges through Builder.FreezeInto, write the snapshot, mmap-open it,
// Validate, BFS from vertex 1 serially on the frozen graph and with
// BFSParallelInto on the snapshot (the distances must agree), then
// label components on the snapshot. The BFS distances and component
// labels go into h.
func giantPass(m giantModel, seed uint64, path string, workers int, b *giantBuffers, h hash.Hash) (giantTimes, error) {
	var t giantTimes
	var r rng.RNG
	r.Reseed(seed)
	t0 := time.Now()
	g, err := m.gen(&r, &b.gen)
	if err != nil {
		return t, fmt.Errorf("generating: %w", err)
	}
	t.generate = time.Since(t0)
	n, edges := g.NumVertices(), g.NumEdges()
	t.edges = int64(edges)

	b.builder.Reset(n, edges)
	b.builder.AddVertices(n)
	for e := graph.EdgeID(0); int(e) < edges; e++ {
		b.builder.AddEdge(g.Endpoints(e))
	}
	t0 = time.Now()
	frozen := b.builder.FreezeInto(&b.frozen)
	t.freeze = time.Since(t0)

	t0 = time.Now()
	if err := graph.WriteSnapshotFile(path, frozen); err != nil {
		return t, err
	}
	t.write = time.Since(t0)
	info, err := os.Stat(path)
	if err != nil {
		return t, err
	}
	t.snapshotBytes = info.Size()

	t0 = time.Now()
	snap, err := graph.OpenSnapshot(path)
	if err != nil {
		return t, err
	}
	defer snap.Close()
	t.open = time.Since(t0)
	t0 = time.Now()
	if err := snap.Validate(); err != nil {
		return t, err
	}
	t.validate = time.Since(t0)
	sg := snap.Graph()
	if sg.NumVertices() != n || sg.NumEdges() != edges {
		return t, fmt.Errorf("snapshot holds %d vertices and %d edges, want %d and %d", sg.NumVertices(), sg.NumEdges(), n, edges)
	}

	b.dist = buf.Grow(b.dist, n+1)
	b.dist2 = buf.Grow(b.dist2, n+1)
	b.queue = buf.Grow(b.queue, n)[:0]
	b.labels = buf.Grow(b.labels, n+1)
	t0 = time.Now()
	graph.BFSInto(frozen, 1, b.dist, b.queue)
	t.bfsSerial = time.Since(t0)
	t0 = time.Now()
	graph.BFSParallelInto(sg, 1, b.dist2, workers, &b.par)
	t.bfsParallel = time.Since(t0)
	for v := range b.dist {
		if b.dist[v] != b.dist2[v] {
			return t, fmt.Errorf("parallel BFS on the snapshot gives vertex %d distance %d, serial BFS %d", v, b.dist2[v], b.dist[v])
		}
	}
	t0 = time.Now()
	count := graph.ComponentsParallelInto(sg, b.labels, workers, &b.par)
	t.components = time.Since(t0)

	hashGiantOutputs(h, m.name, count, b.dist, b.labels)
	return t, nil
}

// hashGiantOutputs writes one pass's outputs into the digest: the
// component count, the BFS distances and the component labels.
func hashGiantOutputs(h hash.Hash, model string, components int, dist, labels []int32) {
	fmt.Fprintf(h, "%s n=%d components=%d\n", model, len(dist)-1, components)
	writeInt32s(h, dist[1:])
	writeInt32s(h, labels[1:])
}

func writeInt32s(h hash.Hash, xs []int32) {
	var chunk [4096]byte
	for len(xs) > 0 {
		k := min(len(xs), len(chunk)/4)
		for i, x := range xs[:k] {
			binary.LittleEndian.PutUint32(chunk[4*i:], uint32(x))
		}
		h.Write(chunk[:4*k])
		xs = xs[k:]
	}
}

// runGiantGraph measures the graph layer on Móri (m=2, p=0.5) and
// Cooper–Frieze graphs at params.giantN. Each round runs the pipeline
// of giantPass on both models with the same seeds; set-up is the
// round's snapshot directory. No search runs here.
func runGiantGraph(ctx context.Context, cfg runConfig) (*report, error) {
	models := giantModels(cfg.params.giantN)
	rep := newReport()
	var (
		b        giantBuffers
		sum      giantTimes
		gen      = make([]time.Duration, len(models))
		genEdges = make([]int64, len(models))
		first    giantTimes
		rounds   int
	)
	measured, err := repeat(ctx, cfg, func(i int) (round, error) {
		clock := startRound()
		dir, err := os.MkdirTemp(cfg.tmp, "giant-")
		if err != nil {
			return round{}, err
		}
		defer os.RemoveAll(dir)
		h := sha256.New()
		var rt giantTimes
		clock.dispatched()
		for k, m := range models {
			t, err := giantPass(m, rng.DeriveSeed(cfg.seed, uint64(k)), filepath.Join(dir, m.name+".csr"), cfg.workers, &b, h)
			rep.attempted++
			if err != nil {
				rep.problem(1, "round %d: %s: %v", i, m.name, err)
				continue
			}
			cfg.logf("round %d %s: generate %.3fs freeze %.3fs write %.3fs open %.4fs validate %.3fs bfs %.3fs/%.3fs components %.3fs",
				i, m.name, t.generate.Seconds(), t.freeze.Seconds(), t.write.Seconds(), t.open.Seconds(), t.validate.Seconds(),
				t.bfsSerial.Seconds(), t.bfsParallel.Seconds(), t.components.Seconds())
			rt.add(t)
			gen[k] += t.generate
			genEdges[k] += t.edges
		}
		d := hex.EncodeToString(h.Sum(nil))
		rd := clock.finish()
		if i == 0 {
			rep.digest, first = d, rt
		} else if d != rep.digest || rt.snapshotBytes != first.snapshotBytes {
			rep.problem(len(models), "round %d: outputs differ from round 0 (digest %s, want %s)", i, d, rep.digest)
		}
		sum.add(rt)
		rounds++
		return rd, nil
	})
	if err != nil {
		return nil, err
	}
	if rounds == 0 {
		return rep, nil
	}
	rep.setEndToEnd(measured, len(models))
	rep.set("edges_per_s", float64(first.edges)/rep.metrics["wall_s"])
	perEdge := func(d time.Duration) float64 { return float64(d) / float64(sum.edges) }
	for k, m := range models {
		rep.set("generate.ns_per_edge."+m.name, float64(gen[k])/float64(genEdges[k]))
	}
	per := float64(rounds)
	rep.set("graph.freeze_ns_per_edge", perEdge(sum.freeze))
	rep.set("graph.snapshot_write_s", sum.write.Seconds()/per)
	rep.set("graph.snapshot_open_s", sum.open.Seconds()/per)
	rep.set("graph.validate_ns_per_edge", perEdge(sum.validate))
	rep.set("graph.bfs_ns_per_edge.serial", perEdge(sum.bfsSerial))
	rep.set("graph.bfs_ns_per_edge.parallel", perEdge(sum.bfsParallel))
	rep.set("graph.components_ns_per_edge", perEdge(sum.components))
	rep.set("graph.snapshot_bytes", float64(first.snapshotBytes))
	return rep, nil
}
