package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"scalefree/internal/engine"
	"scalefree/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric catalog")

// tinyParams runs every workload in well under a second per round.
var tinyParams = params{hubN: 1 << 8, hubTrials: 4, scale: 0.02, giantN: 1 << 10, minRounds: 2}

func tinyConfig(t *testing.T, trace bool) runConfig {
	return runConfig{
		seed:    7,
		window:  time.Millisecond,
		trace:   trace,
		workers: 2,
		tmp:     t.TempDir(),
		params:  tinyParams,
		logf:    t.Logf,
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specJSON `json:"end_to_end"`
	PerLayer []specJSON `json:"per_layer"`
}

type specJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func toJSON(specs []metricSpec) []specJSON {
	out := make([]specJSON, len(specs))
	for i, s := range specs {
		out[i] = specJSON{Name: s.Name, Unit: s.Unit, Better: s.Better}
		if s.EndToEnd {
			b := s.Bound
			out[i].Bound = &b
		}
	}
	return out
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json in step with the
// metric catalog and the workload table; -update rewrites its metric
// and workload lists.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b := readBenchmarkFile(t)
	if *update {
		b.Workloads = b.Workloads[:0]
		for _, name := range workloadNames() {
			b.Workloads = append(b.Workloads, struct {
				Name string `json:"name"`
				Why  string `json:"why"`
			}{name, workloadWhy[name]})
		}
		b.EndToEnd, b.PerLayer = toJSON(endToEndMetrics), toJSON(perLayerMetrics())
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("..", "BENCHMARK.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, toJSON(endToEndMetrics)) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the catalog; run go test -run TestBenchmarkJSON -update")
	}
	if !reflect.DeepEqual(b.PerLayer, toJSON(perLayerMetrics())) {
		t.Errorf("per_layer in BENCHMARK.json differs from the catalog; run go test -run TestBenchmarkJSON -update")
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %q in BENCHMARK.json does not match the benchmark", w.Name)
		}
	}
	seen := map[string]bool{}
	for _, s := range append(b.EndToEnd, b.PerLayer...) {
		if seen[s.Name] || len(s.Name) > 64 || s.Name != metricName(s.Name) {
			t.Errorf("metric name %q is repeated or outside the allowed alphabet", s.Name)
		}
		seen[s.Name] = true
	}
}

// runTiny runs a workload at tinyParams and parses its result line.
func runTiny(t *testing.T, name string, trace bool) (resultLine, *report) {
	t.Helper()
	rep, err := workloads[name](context.Background(), tinyConfig(t, trace))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rep.check(name, 7, nil, t.Logf)
	line, err := rep.resultLine(trace)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out resultLine
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatalf("%s: result line %s: %v", name, line, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d, problems %q", name, out.Correct, out.Attempted, out.Failed, rep.problems)
	}
	return out, rep
}

// TestEveryMetricIsEmitted runs each workload untraced and traced and
// checks that every metric of BENCHMARK.json is printed with its unit,
// and that the workloads separate the layers as designed.
func TestEveryMetricIsEmitted(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				out, _ := runTiny(t, name, trace)
				want := b.EndToEnd
				if trace {
					want = b.PerLayer
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics printed, BENCHMARK.json lists %d", trace, len(out.Metrics), len(want))
				}
				for _, s := range want {
					m, ok := out.Metrics[s.Name]
					if !ok || m.Unit != s.Unit {
						t.Errorf("trace=%v: metric %s printed as %+v (present=%v), want unit %s", trace, s.Name, m, ok, s.Unit)
					}
					if s.Bound != nil && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", s.Name, m.Value)
					}
				}
				if trace {
					checkLayerSeparation(t, name, out.Metrics)
				}
			}
		})
	}
}

func checkLayerSeparation(t *testing.T, name string, m map[string]metricValue) {
	t.Helper()
	v := func(k string) float64 { return m[k].Value }
	searchWork := 0.0
	for k, mv := range m {
		if strings.HasPrefix(k, "search.requests.") {
			searchWork += mv.Value
		}
	}
	switch name {
	case "hub-search":
		if searchWork == 0 || v("search.share") <= 0.5 || v("generate.share") >= 0.5 {
			t.Errorf("hub-search: requests %v, search.share %v, generate.share %v", searchWork, v("search.share"), v("generate.share"))
		}
	case "giant-graph":
		if searchWork != 0 || v("graph.snapshot_bytes") <= 0 || v("edges_per_s") <= 0 {
			t.Errorf("giant-graph: search requests %v, snapshot bytes %v", searchWork, v("graph.snapshot_bytes"))
		}
	case "paper-sweep":
		if v("trace.dropped") != 0 || v("phase.search_s") <= 0 || v("experiment.wall_s.E1") <= 0 {
			t.Errorf("paper-sweep: dropped %v, phase.search_s %v", v("trace.dropped"), v("phase.search_s"))
		}
	case "fleet-sweep":
		if v("sweep.leases_granted") <= 0 || v("sweep.useful_lease_ratio") != 1 || v("sweep.wire_bytes_per_trial") <= 0 {
			t.Errorf("fleet-sweep: leases %v, useful %v, wire %v", v("sweep.leases_granted"), v("sweep.useful_lease_ratio"), v("sweep.wire_bytes_per_trial"))
		}
	}
}

// TestPerturbedOutputTripsDigest changes one output of each kind the
// digests cover and checks that the digest moves and that a recorded
// digest then fails every trial of the run.
func TestPerturbedOutputTripsDigest(t *testing.T) {
	cfg := tinyConfig(t, false)
	outs, err := hubRound(context.Background(), cfg, hubAlgorithms(), 0, startRound(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := hubDigest(outs)
	outs[1].requests[3]++
	if hubDigest(outs) == want {
		t.Error("a changed request count left the hub-search digest unchanged")
	}
	outs[1].requests[3]--
	outs[0].found[0] = !outs[0].found[0]
	if hubDigest(outs) == want {
		t.Error("a flipped found flag left the hub-search digest unchanged")
	}

	tables := []experiment.Table{{Title: "T", Columns: []string{"n", "requests"}, Rows: [][]string{{"64", "12.5"}}}}
	d1, _ := tablesDigest("E1", tables)
	tables[0].Rows[0][1] = "12.6"
	if d2, _ := tablesDigest("E1", tables); d1 == d2 {
		t.Error("a changed table cell left the table digest unchanged")
	}

	rep := newReport()
	rep.attempted, rep.digest = 5, want
	recorded := map[string]map[string]string{"hub-search": {"7": want}}
	rep.check("hub-search", 7, recorded, t.Logf)
	if len(rep.problems) != 0 {
		t.Fatalf("the recorded digest was rejected: %q", rep.problems)
	}
	rep.digest = hubDigest(outs) // the perturbed outputs
	rep.check("hub-search", 7, recorded, t.Logf)
	line, err := rep.resultLine(false)
	if err == nil || rep.failed != rep.attempted {
		t.Errorf("perturbed digest: failed %d of %d, want all (line %s)", rep.failed, rep.attempted, line)
	}
}

// TestGiantDigestCoversOutputs checks that the giant-graph digest
// moves with one BFS distance or one component label.
func TestGiantDigestCoversOutputs(t *testing.T) {
	cfg := tinyConfig(t, false)
	var b giantBuffers
	h := sha256.New()
	m := giantModels(cfg.params.giantN)[0]
	if _, err := giantPass(m, 1, filepath.Join(cfg.tmp, "g.csr"), 2, &b, h); err != nil {
		t.Fatal(err)
	}
	want := hex.EncodeToString(h.Sum(nil))
	count := int(b.labels[len(b.labels)-1]) + 1 // Móri graphs are connected
	digest := func() string {
		h := sha256.New()
		hashGiantOutputs(h, m.name, count, b.dist, b.labels)
		return hex.EncodeToString(h.Sum(nil))
	}
	if digest() != want {
		t.Fatal("rehashing the pass's outputs does not reproduce its digest")
	}
	b.dist[len(b.dist)-1]++
	if digest() == want {
		t.Error("a changed BFS distance left the giant-graph digest unchanged")
	}
	b.dist[len(b.dist)-1]--
	b.labels[1]++
	if digest() == want {
		t.Error("a changed component label left the giant-graph digest unchanged")
	}
}

// TestComposedSweepMatchesRunContext checks the benchmark-composed
// paper-sweep against Experiment.RunContext, experiment by experiment,
// and the coordinated E1 of fleet-sweep against the composed E1.
func TestComposedSweepMatchesRunContext(t *testing.T) {
	cfg := tinyConfig(t, false)
	exps := experiment.Registry()
	ecfg := sweepConfig(cfg, 0)
	plans, run, err := planSweep(exps, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := execSweep(context.Background(), exps, plans, &run, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	for i, e := range exps {
		tables, err := e.RunContext(context.Background(), ecfg, engine.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		d, err := tablesDigest(e.ID, tables)
		if err != nil {
			t.Fatal(err)
		}
		if d != run.digests[i] {
			t.Errorf("%s: composed tables differ from RunContext", e.ID)
		}
	}
	_, fleet := runTiny(t, "fleet-sweep", false)
	if fleet.digest != run.digests[0] {
		t.Errorf("fleet-sweep E1 digest %s, paper-sweep E1 digest %s", fleet.digest, run.digests[0])
	}
}

func TestMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"mixed-greedy(0.50)": "mixed-greedy",
		"biased-walk(+1.0)":  "biased-walk",
		"random-walk":        "random-walk",
		"a b/c":              "a_b_c",
	} {
		if got := metricName(in); got != want {
			t.Errorf("metricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseOptions(t *testing.T) {
	var sink strings.Builder
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "hub-search", "--trace", "2"},
		{"--workload", "hub-search", "--seconds", "0"},
		{"--workload", "hub-search", "extra"},
	} {
		if _, err := parseOptions(args, &sink); err == nil {
			t.Errorf("parseOptions(%q) accepted bad flags", args)
		}
	}
	o, err := parseOptions([]string{"--workload", "giant-graph", "--seed", "3", "--seconds", "5", "--trace", "1"}, &sink)
	if err != nil || o.workload != "giant-graph" || o.seed != 3 || o.seconds != 5 || !o.trace {
		t.Errorf("parseOptions: %+v, %v", o, err)
	}
}
