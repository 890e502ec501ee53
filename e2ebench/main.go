// Command e2ebench is the end-to-end kNNTA serving benchmark: it launches
// tarserve for a workload, drives it closed-loop over loopback HTTP, checks
// every answer against the brute-force scan, and prints each metric with
// its unit. The last line of standard output is a JSON summary.
//
//	e2ebench --workload query-paper --seed 1 --seconds 24 --trace 0
//	e2ebench --workload all --seed 1            # every workload in turn
//	e2ebench --workload query-hot --repeat 5    # medians, quartiles, spread
//
// With --trace 1 the run is the traced one: it records a span per request
// and per in-process layer call, scrapes /metrics around the timed phase,
// and reports the per-layer ledger instead of the end-to-end metrics. See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one traffic mix against one deployment shape.
type workload struct {
	name   string
	mix    string // "paper" or "hot": the query stream's generator
	conns  int    // query connections
	ingest bool   // durable server plus one ingest connection
	shards int    // >0: a coordinator over this many shard processes
}

var workloads = []*workload{
	{name: "query-paper", mix: "paper", conns: 2},
	{name: "query-hot", mix: "hot", conns: 2},
	{name: "ingest-mixed", mix: "hot", conns: 1, ingest: true},
	{name: "sharded-4", mix: "paper", conns: 1, shards: 4},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

// The metrics the summary line carries: the end-to-end set on untraced
// runs, the per-layer ledger on traced ones. Every workload reports each.
var (
	endToEndMetrics = []string{"setup_s", "query_qps", "query_p50_us", "query_p99_us", "rss_mb"}
	perLayerMetrics = []string{
		"tarserve.rtt_p50_us", "tarserve.overhead_frac", "tarserve.resp_bytes",
		"tarserve.alloc_bytes_per_query", "tarserve.gc_cycles_per_1k",
		"core.query_p50_us", "core.query_p99_us", "core.allocs_per_query", "core.bytes_per_query",
		"core.rtree_accesses_per_query", "core.tia_reads_per_query", "core.scored_per_query", "core.pops_per_query",
		"core.components_ns", "tia.aggregate_ns", "tia.mirror_ns",
		"pagestore.tia_hit_ratio", "pagestore.tia_physical_per_query",
		"aggcache.hit_ratio", "aggcache.evictions_per_query", "aggcache.invalidations_per_ingest", "core.query_hit_us",
		"wal.ingest_p50_us", "wal.ingest_p99_us", "wal.records_per_fsync", "wal.fsync_p50_us",
		"wal.bytes_per_checkin", "wal.flush_ms", "wal.checkpoint_ms",
		"shard.query_p50_us", "shard.rounds_per_query", "shard.candidates_per_query",
		"shard.bound_pushes_per_query", "shard.node_access_ratio",
		"lbsn.generate_s", "core.build_s", "core.freeze_ms", "core.index_bytes",
		"trace.overhead_frac",
	}
)

// An untraced run deploys setups times and reports the median set-up time;
// each deployment gets warmup of untimed load and an equal share of the
// timed phase.
const (
	setups = 3
	warmup = 2 * time.Second
)

type config struct {
	tarserve string
	work     string // scratch space for WAL directories, shard maps, spans
	seconds  float64
	warmup   time.Duration
	setups   int
	trace    bool
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run: query-paper, query-hot, ingest-mixed, sharded-4, or all")
		seed     = flag.Int64("seed", 1, "seed for every generated request")
		seconds  = flag.Float64("seconds", 24, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer ledger")
		repeat   = flag.Int("repeat", 0, "run the workload this many times with seeds seed, seed+1, ... and print each metric's median, quartiles and spread")
		tarserve = flag.String("tarserve", ".bench_build/tarserve", "tarserve binary")
		work     = flag.String("work", ".bench_build", "directory for run state and span files")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	cfg := &config{tarserve: *tarserve, work: *work, seconds: *seconds, warmup: warmup, setups: setups, trace: *trace == 1}
	if cfg.trace {
		cfg.setups = 1 // setup_s is an end-to-end metric; the traced run deploys once
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive")
		return 2
	}
	if _, err := os.Stat(cfg.tarserve); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: tarserve binary: %v\n", err)
		return 1
	}
	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	logf("generating %s at scale %g", datasetName, datasetScale)
	ds, err := loadDataset()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if *repeat > 0 {
		if len(ws) != 1 {
			fmt.Fprintln(os.Stderr, "e2ebench: --repeat takes one workload")
			return 2
		}
		return repeatRuns(ctx, cfg, ds, ws[0], *seed, *repeat)
	}
	var results []*result
	for _, w := range ws {
		res, err := runWorkload(ctx, cfg, ds, w, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			return 1
		}
		res.print(os.Stdout)
		results = append(results, res)
	}
	line, ok := summaryLine(results, cfg.trace)
	fmt.Println(line)
	if !ok {
		return 1
	}
	return 0
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

// metric is one measured value. note says what it was computed from.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type result struct {
	workload  string
	seed      int64
	trace     bool
	hashes    []string
	attempted int
	failed    int
	firstErr  error
	metrics   []metric
}

func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

func (r *result) fail(n int, err error) {
	r.failed += n
	if r.firstErr == nil && err != nil {
		r.firstErr = err
	}
}

func (r *result) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

func (r *result) print(f *os.File) {
	mode := "untraced"
	if r.trace {
		mode = "traced"
	}
	fmt.Fprintf(f, "== %s seed=%d %s inputs %s\n", r.workload, r.seed, mode, strings.Join(r.hashes, " "))
	for _, m := range r.metrics {
		fmt.Fprintf(f, "%-14s %-34s %16.6g %-6s %s\n", r.workload, m.name, m.value, m.unit, m.note)
	}
	errFrac := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(f, "%-14s %-34s %16.6g %-6s %d failed of %d attempted\n", r.workload, "error_frac", errFrac, "ratio", r.failed, r.attempted)
	if r.firstErr != nil {
		fmt.Fprintf(f, "%-14s first failure: %v\n", r.workload, r.firstErr)
	}
}

// summaryLine is the machine-readable last line. A single workload reports
// its metrics by name; several report them as workload/name.
func summaryLine(results []*result, traced bool) (string, bool) {
	names := endToEndMetrics
	if traced {
		names = perLayerMetrics
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]val)}
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, n := range names {
			m, ok := r.get(n)
			if !ok {
				m = metric{name: n, unit: "missing"}
				out.Correct = false
			}
			key := n
			if len(results) > 1 {
				key = r.workload + "/" + n
			}
			out.Metrics[key] = val{m.value, m.unit}
		}
	}
	if out.Failed > 0 {
		out.Correct = false
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "error": %q}`, err.Error()), false
	}
	return string(b), out.Correct
}

// repeatRuns runs one workload n times with consecutive seeds and prints
// each metric's median, quartiles and relative spread: the tool for
// proving the benchmark steady and for setting its bounds.
func repeatRuns(ctx context.Context, cfg *config, ds *dataset, w *workload, seed int64, n int) int {
	values := make(map[string][]float64)
	units := make(map[string]string)
	var order []string
	failed, attempted := 0, 0
	for i := 0; i < n; i++ {
		res, err := runWorkload(ctx, cfg, ds, w, seed+int64(i))
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %v\n", w.name, seed+int64(i), err)
			return 1
		}
		res.print(os.Stdout)
		failed += res.failed
		attempted += res.attempted
		for _, m := range res.metrics {
			if _, ok := units[m.name]; !ok {
				order = append(order, m.name)
				units[m.name] = m.unit
			}
			values[m.name] = append(values[m.name], m.value)
		}
	}
	fmt.Printf("== %s: %d runs, seeds %d..%d, %d failed of %d attempted\n", w.name, n, seed, seed+int64(n)-1, failed, attempted)
	fmt.Printf("%-34s %-6s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "iqr/med")
	for _, name := range order {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-34s %-6s %14.6g %14.6g %14.6g %8.4f\n", name, units[name], q1, med, q3, spread)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// default exclusive method, so spreads printed here are the ones the
// benchmark's bounds are judged by. One value is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if len(v) == 1 {
		return v[0], v[0], v[0]
	}
	q := func(i int) float64 {
		ld, m := len(v), len(v)+1
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// percentile is the nearest-rank percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p+0.999999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(sorted []time.Duration) time.Duration { return percentile(sorted, 0.5) }

func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spanFile is where a traced run writes its spans.
func spanFile(cfg *config, w *workload, seed int64) string {
	return filepath.Join(cfg.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
}
