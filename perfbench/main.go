// Command perfbench is the repository's benchmark. It builds the
// dataset store and its servers in-process, drives one of four
// workloads over real loopback sockets, checks every answer it can
// against an independent reference, and prints the end-to-end metrics
// (untraced) or the per-layer metrics (traced) as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload reload --seed 42 --seconds 7 --trace 0
//	bash perfbench/run.sh --workload all          # every workload, untraced and traced
//
// Workloads:
//
//	reload        cold build, then a chain of full-rebuild advances into an
//	              on-disk archive, then warm starts from that archive
//	serve-read    one generation, a closed loop of 2 connections over cold keys
//	fleet-read    2 shards and a router, a closed loop over hot keys
//	serve-reload  incremental advances back to back beside an open-loop
//	              reader (run on request; BENCHMARK.json does not list it)
//
// Every workload builds the paper-default seed-42 world at scale 0.5;
// --seed drives the request streams and the churn history.
// Results and traces land under .bench_build/ in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"net/http"
)

// procStart is the earliest instant the benchmark can observe: set-up
// time is measured from here.
var procStart = time.Now()

// worldSeed and worldScale set the world every workload builds: the
// paper-default seed at half the default size.
const (
	worldSeed  = 42
	worldScale = 0.5
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an operator sees, reported by untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"advance_s", "s"},
	{"warm_start_s", "s"},
	{"req_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics, reported by traced runs. A
// metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"world.generate_ms", "ms"},
	{"churn.replay_ms", "ms"},
	{"churn.evolve_calls", "count"},
	{"pipeline.wall_ms", "ms"},
	{"pipeline.busy_ms", "ms"},
	{"pipeline.parallelism", "ratio"},
	{"pipeline.cti_ms", "ms"},
	{"pipeline.topology_ms", "ms"},
	{"pipeline.geo_ms", "ms"},
	{"pipeline.docs_ms", "ms"},
	{"pipeline.stage1_ms", "ms"},
	{"pipeline.stage2_ms", "ms"},
	{"graph.build_ms", "ms"},
	{"serve.index_build_ms", "ms"},
	{"snapshot.gate_swap_ms", "ms"},
	{"snapshot.nodes_reused_frac", "ratio"},
	{"snapshot.nodes_total", "count"},
	{"durable.commit_ms", "ms"},
	{"durable.fsyncs_per_commit", "count"},
	{"durable.bytes_per_commit", "bytes"},
	{"durable.open_ms", "ms"},
	{"snapshot.adopt_ms", "ms"},
	{"runtime.alloc_mb_per_advance", "MB"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"net.asn_p50_us", "us"},
	{"net.country_p50_us", "us"},
	{"net.search_p50_us", "us"},
	{"net.graph_cone_p50_us", "us"},
	{"net.org_p50_us", "us"},
	{"serve.handler_p50_us", "us"},
	{"net.transport_self_us", "us"},
	{"serve.index_lookup_ns", "ns"},
	{"graph.query_ns", "ns"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_lookups", "count"},
	{"serve.bytes_per_resp", "bytes"},
	{"serve.alloc_bytes_per_req", "bytes"},
	{"serve.shed_frac", "ratio"},
	{"serve.deadline_exceeded", "count"},
	{"serve.p99_during_build_us", "us"},
	{"serve.p99_between_builds_us", "us"},
	{"loadgen.lag_ms", "ms"},
	{"fleet.legs_per_req", "ratio"},
	{"fleet.fanout_frac", "ratio"},
	{"fleet.hedges_per_req", "ratio"},
	{"fleet.leg_failure_frac", "ratio"},
	{"fleet.partial_frac", "ratio"},
	{"fleet.router_self_us", "us"},
	{"failed_frac", "ratio"},
}

// workloads maps each workload BENCHMARK.json lists to its driver.
var workloads = map[string]func(*run) error{
	"reload":     reloadWorkload,
	"serve-read": serveReadWorkload,
	"fleet-read": fleetReadWorkload,
}

// ungated are workloads the benchmark runs on request but does not
// list, because their figures are too unsteady to judge a change by.
// serve-reload's latency, measured while a rebuild holds both cores of
// a 2-core host, is set by the Go scheduler's time slices and moves by
// a third or more from run to run.
var ungated = map[string]func(*run) error{
	"serve-reload": serveReloadWorkload,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"reload", "serve-read", "serve-reload", "fleet-read"}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: reload, serve-read, serve-reload, fleet-read, or all")
	flag.Uint64Var(&cfg.seed, "seed", 42, "seed for the request streams and the churn history")
	flag.IntVar(&cfg.seconds, "seconds", 7, "length of each measured closed-loop load, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.workload == "all" {
		os.Exit(runAll(cfg))
	}
	drive, ok := workloads[cfg.workload]
	if !ok {
		drive, ok = ungated[cfg.workload]
	}
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: want --workload reload|serve-read|fleet-read|serve-reload|all, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	os.Exit(runOne(cfg, drive))
}

// runOne runs one workload and prints its report. The exit status is 0
// only when the run completed and every correctness check passed.
func runOne(cfg config, drive func(*run) error) int {
	r, err := newRun(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer removeAll(r.work)
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res, failed := r.report()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if failed {
		return 1
	}
	return 0
}

// report prints the human-readable report and writes the result and
// trace files, and returns the result line. failed is true when any
// check failed.
func (r *run) report() (result, bool) {
	meta := collectMeta(r.cfg)
	for _, d := range endToEnd {
		if v := r.e2e[d.name]; v <= 0 || math.IsNaN(v) {
			r.fail("end-to-end metric %s was not measured (%v)", d.name, v)
		}
	}
	if r.tr != nil {
		r.finalizeBuilds()
	}
	r.reduceSamples()
	if r.attempted > 0 {
		r.layer["failed_frac"] = float64(r.failed) / float64(r.attempted)
	}
	e2e := map[string]metric{}
	for _, d := range endToEnd {
		e2e[d.name] = metric{r.e2e[d.name], d.unit}
	}
	layers := map[string]metric{}
	for _, d := range perLayer {
		layers[d.name] = metric{r.layer[d.name], d.unit}
	}

	mb, _ := json.Marshal(meta)
	fmt.Printf("meta %s\n", mb)
	fmt.Printf("workload %s: %s\n", r.cfg.workload, whyOf(r.cfg.workload))
	for _, d := range endToEnd {
		line := fmt.Sprintf("%-18s %14.6g %s", d.name, r.e2e[d.name], d.unit)
		if s, ok := r.summaries[d.name]; ok {
			line += "   (" + s.String() + ")"
		}
		fmt.Println(line)
	}
	fmt.Printf("%-18s %14.6g ratio   (%d failed of %d attempted)\n", "failed_frac",
		r.layer["failed_frac"], r.failed, r.attempted)
	if r.cfg.trace {
		for _, d := range perLayer {
			fmt.Printf("  %-30s %14.6g %s\n", d.name, layers[d.name].Value, d.unit)
		}
		r.printAccounting()
	}
	for _, p := range r.problems {
		fmt.Println("FAILED CHECK:", p)
	}

	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: e2e}
	if r.cfg.trace {
		res.Metrics = layers
		spans := r.tr.snapshot()
		linkByRequest(spans)
		path := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.json", r.cfg.workload, r.cfg.seed))
		if err := writeTrace(path, meta, e2e, spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		} else {
			printSelfTimes(spans)
			fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
		}
	}
	saved := savedResult{Meta: meta, Workload: r.cfg.workload, Trace: r.cfg.trace, Result: res,
		EndToEnd: e2e, Summaries: r.summaries}
	if err := saveResult(saved); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
	}
	return res, r.failed > 0
}

// printAccounting sets the medians of a rebuild's parts against the
// median advance: world, churn, pipeline, graph, index, archive and the
// store's own gate and swap should add up to it, give or take the
// tracing overhead and the difference between a sum of medians and a
// median of sums.
func (r *run) printAccounting() {
	parts := []string{"world.generate_ms", "churn.replay_ms", "pipeline.wall_ms", "graph.build_ms",
		"serve.index_build_ms", "durable.commit_ms", "snapshot.gate_swap_ms"}
	if len(r.samples["snapshot.gate_swap_ms"]) == 0 {
		return
	}
	sum := 0.0
	line := "advance accounting (medians):"
	for i, p := range parts {
		sum += r.layer[p]
		if i > 0 {
			line += " +"
		}
		line += fmt.Sprintf(" %s %.1f", p, r.layer[p])
	}
	fmt.Printf("%s = %.1f ms; advance_s %.1f ms\n", line, sum, r.e2e["advance_s"]*1000)
}

// printSelfTimes prints each layer's self time over the whole trace.
func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	var layers []string
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Println("layer self time over the traced run:")
	for _, l := range layers {
		fmt.Printf("  %-10s %12.3f ms\n", l, float64(self[l])/float64(time.Millisecond))
	}
}

// outDir holds everything the benchmark builds and writes, relative to
// the checkout it runs in.
const outDir = ".bench_build"

// savedResult is one run's record under .bench_build/results.
type savedResult struct {
	Meta      runMeta            `json:"meta"`
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Result    result             `json:"result"`
	EndToEnd  map[string]metric  `json:"end_to_end"`
	Summaries map[string]summary `json:"summaries,omitempty"`
}

func resultPath(workload string, seed uint64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t))
}

func saveResult(s savedResult) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	path := resultPath(s.Workload, s.Meta.Seed, s.Trace)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// whyOf is each workload's one-sentence reason for being in the
// benchmark (BENCHMARK.json carries the same sentences).
func whyOf(workload string) string {
	return map[string]string{
		"reload":       "Build layers do all the work and serving none: a cold build, 10 full-rebuild advances archived to disk, then warm starts; churn replay grows with the generation number.",
		"serve-read":   "Handlers, index and graph lookups and encoding do the work over keys that far outnumber the cache, and the build does none.",
		"fleet-read":   "The only workload through internal/fleet: router, shard legs and merge over hot keys, with shard handler work near zero.",
		"serve-reload": "Incremental rebuilds compete with an open-loop reader for the 2 cores, and every swap empties the response cache.",
	}[workload]
}

// run is one benchmark run's state: configuration, counters, samples
// and (when traced) the tracer and layer observers.
type run struct {
	cfg    config
	work   string
	client *http.Client

	tr    *tracer
	nodes *nodeLog
	fs    *fsLog
	ids   atomic.Int64

	builds []*buildObs

	// Layer probes run by the traced mode once the measuring is over:
	// world.Generate's time and each churn step's (stepMS[g] for the
	// step into generation g).
	worldGenMS float64
	stepMS     []float64

	e2e       map[string]float64
	layer     map[string]float64
	samples   map[string][]float64 // per-layer samples, reduced by median
	summaries map[string]summary

	attempted int64
	failed    int64
	problems  []string
}

func newRun(cfg config) (*run, error) {
	if err := os.MkdirAll(filepath.Join(outDir, "work"), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(outDir, "work"), cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	r := &run{
		cfg: cfg, work: work, client: newClient(2),
		e2e: map[string]float64{}, layer: map[string]float64{},
		samples: map[string][]float64{}, summaries: map[string]summary{},
	}
	if cfg.trace {
		r.tr = newTracer()
		r.fs = &fsLog{}
	}
	return r, nil
}

// fail counts one failed operation or check.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// sample appends one per-layer observation.
func (r *run) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// reduceSamples sets each sampled per-layer metric to its median.
func (r *run) reduceSamples() {
	for name, xs := range r.samples {
		r.layer[name] = median(xs)
	}
}

// churnSeed derives the store's churn-schedule seed from --seed
// (non-zero: the store treats 0 as "derive from the world seed").
func (r *run) churnSeed() uint64 {
	z := r.cfg.seed + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// timing records a timing metric's samples: their median becomes the
// end-to-end value, and the summary is kept for the report.
func (r *run) timing(name string, xs []float64) {
	s := summarize(xs)
	r.summaries[name] = s
	r.e2e[name] = s.Median
}

// runMeta identifies what was measured, where.
type runMeta struct {
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	WorldSeed  int     `json:"world_seed"`
	Seconds    int     `json:"seconds"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Host       string  `json:"host"`
	Time       string  `json:"time"`
}

func collectMeta(cfg config) runMeta {
	host, _ := os.Hostname()
	return runMeta{
		Seed: cfg.seed, Scale: worldScale, WorldSeed: worldSeed, Seconds: cfg.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commitOf("."), Host: host,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}

// commitOf resolves the checkout's git commit by reading .git directly,
// or reports "unknown" outside a git repository.
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
