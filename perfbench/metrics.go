package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"scalefree/internal/experiment"
	"scalefree/internal/search"
)

// metricSpec is one metric of the catalog: the single source of the
// names, units and directions that BENCHMARK.json and METRICS.md list.
type metricSpec struct {
	Name     string
	Unit     string
	Better   string  // "lower" or "higher"
	Bound    float64 // end-to-end only: allowed worsening, as a share of the median
	EndToEnd bool
}

// endToEndMetrics are what a user of the reproduction sees: how long a
// run takes, how much CPU and memory it needs, and its throughput.
var endToEndMetrics = []metricSpec{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, EndToEnd: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, EndToEnd: true},
	{Name: "trials_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, EndToEnd: true},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, EndToEnd: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, EndToEnd: true},
}

// metricName maps a program label onto the metric-name alphabet
// (letters, digits, '_', '.', '-'): a parenthesised parameter suffix
// is cut, so "mixed-greedy(0.50)" becomes "mixed-greedy" and
// "biased-walk(+1.0)" becomes "biased-walk"; any other character
// becomes '_'.
func metricName(label string) string {
	if i := strings.IndexByte(label, '('); i >= 0 {
		label = label[:i]
	}
	b := []byte(label)
	for i, c := range b {
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '.' || c == '-'
		if !ok {
			b[i] = '_'
		}
	}
	return strings.Trim(string(b), "_.-")
}

// hubAlgorithms is the hub-search battery: the seven weak algorithms
// of E1/E3 followed by the five strong ones of E2/E8.
func hubAlgorithms() []search.Algorithm {
	return append(search.WeakAlgorithms(), search.StrongAlgorithms()...)
}

// perLayerMetrics lists the per-layer metrics in report order.
func perLayerMetrics() []metricSpec {
	var out []metricSpec
	add := func(name, unit, better string) {
		out = append(out, metricSpec{Name: name, Unit: unit, Better: better})
	}
	add("requests_per_s", "1/s", "higher")
	add("edges_per_s", "1/s", "higher")
	add("failed_ratio", "ratio", "lower")
	for _, a := range hubAlgorithms() {
		if a.Knowledge() == search.Weak {
			add("search.ns_per_request."+metricName(a.Name()), "ns", "lower")
		} else {
			add("search.ns_per_revealed."+metricName(a.Name()), "ns", "lower")
		}
	}
	for _, a := range hubAlgorithms() {
		add("search.requests."+metricName(a.Name()), "count", "lower")
	}
	for _, a := range hubAlgorithms() {
		add("search.found_ratio."+metricName(a.Name()), "ratio", "higher")
	}
	add("search.oracle_setup_ns_per_vertex", "ns", "lower")
	add("search.share", "ratio", "lower")
	add("generate.ns_per_edge.mori", "ns", "lower")
	add("generate.ns_per_edge.cf", "ns", "lower")
	add("generate.share", "ratio", "lower")
	add("graph.freeze_ns_per_edge", "ns", "lower")
	add("graph.snapshot_write_s", "s", "lower")
	add("graph.snapshot_open_s", "s", "lower")
	add("graph.validate_ns_per_edge", "ns", "lower")
	add("graph.bfs_ns_per_edge.serial", "ns", "lower")
	add("graph.bfs_ns_per_edge.parallel", "ns", "lower")
	add("graph.components_ns_per_edge", "ns", "lower")
	add("graph.snapshot_bytes", "bytes", "lower")
	add("engine.trial_p50_ms", "ms", "lower")
	add("engine.trial_p99_ms", "ms", "lower")
	add("engine.trial_max_ms", "ms", "lower")
	add("engine.busy_ratio", "ratio", "higher")
	add("engine.drain_tail_s", "s", "lower")
	add("experiment.plan_s", "s", "lower")
	add("experiment.reduce_s", "s", "lower")
	for _, e := range experiment.Registry() {
		add("experiment.wall_s."+e.ID, "s", "lower")
	}
	add("phase.generate_s", "s", "lower")
	add("phase.freeze_s", "s", "lower")
	add("phase.search_s", "s", "lower")
	add("phase.reduce_s", "s", "lower")
	add("trace.overhead_ratio", "ratio", "lower")
	add("trace.dropped", "count", "lower")
	add("sweep.leases_granted", "count", "lower")
	add("sweep.useful_lease_ratio", "ratio", "higher")
	add("sweep.lease_p50_ms", "ms", "lower")
	add("sweep.lease_p99_ms", "ms", "lower")
	add("sweep.wire_bytes_per_trial", "bytes", "lower")
	add("sweep.codec_bytes_per_trial", "bytes", "lower")
	add("sweep.codec_encode_ns", "ns", "lower")
	add("sweep.codec_decode_ns", "ns", "lower")
	add("sweep.cache_bytes_per_trial", "bytes", "lower")
	add("sweep.worker_busy_ratio", "ratio", "higher")
	return out
}

// report is one workload run's outcome: the metrics it measured, the
// digest of its outputs, and every correctness check that failed.
type report struct {
	attempted int
	failed    int
	metrics   map[string]float64
	// digest identifies the workload's outputs; every round of a run
	// must reproduce it, and recorded seeds must match digests.json.
	digest   string
	problems []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// set records a metric value; its unit comes from the catalog.
func (r *report) set(name string, v float64) { r.metrics[name] = v }

// problem records a failed correctness check that fails n trials.
func (r *report) problem(n int, format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
	r.failed += n
	if r.failed > r.attempted {
		r.failed = r.attempted
	}
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps workload → seed → output digest, for the seeds
// the benchmark was proven on.
func recordedDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// check compares the run's digest with the one recorded for its seed,
// if any (recorded maps workload → seed → digest); a mismatch fails
// every trial of the run. It also sets failed_ratio.
func (r *report) check(workload string, seed uint64, recorded map[string]map[string]string, logf func(string, ...any)) {
	logf("%s seed=%d digest=%s", workload, seed, r.digest)
	if want, ok := recorded[workload][strconv.FormatUint(seed, 10)]; ok && want != r.digest {
		r.problem(r.attempted, "digest %s does not match the digest %s recorded for seed %d", r.digest, want, seed)
	}
	for _, p := range r.problems {
		logf("check failed: %s", p)
	}
	if r.attempted > 0 {
		r.set("failed_ratio", float64(r.failed)/float64(r.attempted))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the final JSON line: every end-to-end metric, or
// with trace every per-layer metric. A per-layer metric the workload
// does not exercise reads 0 (for example search.requests.* on
// giant-graph, where search does no work); a missing end-to-end metric
// is a benchmark bug.
func (r *report) resultLine(trace bool) ([]byte, error) {
	specs := endToEndMetrics
	if trace {
		specs = perLayerMetrics()
	}
	out := resultLine{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("no trial was attempted")
	}
	for _, s := range specs {
		v, ok := r.metrics[s.Name]
		if !ok && s.EndToEnd {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", s.Name)
		}
		out.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return json.Marshal(out)
}
