package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"tartree/internal/core"
)

// loadGCPercent is the benchmark's GOGC while it generates load.
const loadGCPercent = 400

// measured is what one deployment's load left behind.
type measured struct {
	logs    []*workerLog // warm-up and timed
	window  time.Duration
	windows []int // timed query completions per whole second
	rssMB   float64
}

// runWorkload deploys, warms up, measures and checks one workload. An
// untraced run deploys setups times and gives each deployment an equal
// share of the timed phase, so one run averages over several server
// processes rather than resting on one.
func runWorkload(ctx context.Context, cfg *config, ds *dataset, w *workload, seed int64) (*result, error) {
	res := &result{workload: w.name, seed: seed, trace: cfg.trace}
	var ql *queryList
	if w.mix == "paper" {
		ql = paperQueryList(ds, seed)
	} else {
		ql = hotQueryList(ds, seed)
	}
	res.hashes = append(res.hashes, "query="+hashQueries(ql))
	var ing *ingestStream
	if w.ingest {
		ing = newIngestStream(ds, seed, ingestBatches)
		res.hashes = append(res.hashes, "ingest="+hashIngest(ds, ing))
	}
	logf("%s seed %d inputs %v", w.name, seed, res.hashes)

	workDir := filepath.Join(cfg.work, "run", fmt.Sprintf("%s-%d-%d", w.name, seed, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	// The load generator shares the CPUs with the servers; fewer of its own
	// garbage collections during the load keep it from adding to their tail.
	defer debug.SetGCPercent(debug.SetGCPercent(loadGCPercent))

	// The query stream continues across deployments, so each answers
	// fresh requests; each deployment gets a fresh WAL and so replays the
	// ingest stream from its start.
	queries := &stream{name: "query", conns: w.conns, n: ql.len()}
	queries.build = func(i int) *request {
		k := ql.key(i)
		return &request{method: http.MethodGet, path: ql.urls[k], key: k}
	}
	var (
		setups []time.Duration
		parts  []measured
		tr     *tracer
	)
	if cfg.trace {
		tr = newTracer()
	}
	share := time.Duration(cfg.seconds * float64(time.Second) / float64(cfg.setups))
	for i := 0; i < cfg.setups; i++ {
		dep, err := deploy(ctx, cfg, w, ds, workDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, dep.setup)
		logf("%s setup %d: %v", w.name, i+1, dep.setup.Round(time.Millisecond))
		m, err := loadDeployment(ctx, cfg, res, tr, ds, w, ql, ing, queries, dep, share, workDir, seed)
		dep.stop()
		if err != nil {
			return nil, err
		}
		parts = append(parts, m)
	}
	if queries.wrapped.Load() {
		logf("%s: the query stream outran its %d-request list and wrapped", w.name, queries.n)
	}

	// Tally every reply; then check each distinct query's first answer
	// against the oracle (outside the timed phase).
	var (
		qLat, iLat   []time.Duration
		ackedTimed   int
		perKey       = make(map[int]int)
		perSecond    []int
		window       time.Duration
		rss          []float64
		firsts       = make(map[int][]byte)
		inconsistent = make(map[int]bool)
	)
	for _, m := range parts {
		window += m.window
		perSecond = append(perSecond, m.windows...)
		rss = append(rss, m.rssMB)
		for _, wl := range m.logs {
			for _, rp := range wl.replies {
				res.attempted++
				if !rp.ok {
					res.fail(1, fmt.Errorf("%s request failed (transport error, non-2xx, or malformed body)", wl.stream))
				} else if rp.differs {
					res.fail(1, fmt.Errorf("query %d answered differently on repeat", rp.key))
				}
				if wl.stream == "ingest" {
					if rp.timed {
						iLat = append(iLat, rp.latency)
						if rp.ok {
							ackedTimed++
						}
					}
					continue
				}
				perKey[rp.key]++
				if rp.timed {
					qLat = append(qLat, rp.latency)
				}
			}
			for k, region := range wl.first {
				if prev, ok := firsts[k]; ok && string(prev) != string(region) {
					inconsistent[k] = true
					continue
				}
				firsts[k] = region
			}
		}
	}
	for k := range inconsistent {
		res.fail(perKey[k], fmt.Errorf("query %d answered differently on two connections or deployments", k))
	}
	if len(qLat) == 0 {
		return nil, fmt.Errorf("no query completed in the timed phase")
	}
	logf("%s: checking %d distinct answers against the brute-force scan", w.name, len(firsts))
	qByKey := make(map[int]core.Query, len(firsts))
	for k := range firsts {
		qByKey[k] = ql.distinct[k]
	}
	wrong, werr := checkAll(newOracle(ds, nil), qByKey, firsts)
	for k := range wrong {
		res.fail(perKey[k], werr)
	}

	sortDurations(qLat)
	// Throughput is the median of whole one-second windows, so a burst of
	// outside interference moves it less than it moves the overall mean.
	qps := float64(len(qLat)) / window.Seconds()
	if len(perSecond) > 0 {
		sort.Ints(perSecond)
		n := len(perSecond)
		qps = float64(perSecond[(n-1)/2]+perSecond[n/2]) / 2
	}
	if cfg.trace {
		res.add("trace.query_qps", qps, "1/s", "median of one-second windows over traced and untraced halves")
		return res, writeSpans(cfg, w, seed, tr)
	}
	sortDurations(setups)
	sort.Float64s(rss)
	res.add("setup_s", median(setups).Seconds(), "s", fmt.Sprintf("median of %d deployments", len(setups)))
	res.add("query_qps", qps, "1/s", fmt.Sprintf("median of %d one-second windows over %d deployments; %d queries in %.3fs over %d conns", len(perSecond), len(parts), len(qLat), window.Seconds(), w.conns))
	res.add("query_p50_us", us(median(qLat)), "us", fmt.Sprintf("n=%d", len(qLat)))
	res.add("query_p99_us", us(percentile(qLat, 0.99)), "us", fmt.Sprintf("n=%d, %d beyond", len(qLat), len(qLat)/100))
	res.add("rss_mb", rss[(len(rss)-1)/2], "MB", fmt.Sprintf("median over %d deployments of VmHWM summed over %d processes", len(rss), w.shards+1))
	if ing != nil {
		sortDurations(iLat)
		res.add("ingest_cps", float64(ackedTimed*ingestBatch)/window.Seconds(), "1/s", fmt.Sprintf("%d acknowledged batches of %d, paced at %d/s", ackedTimed, ingestBatch, ingestRate))
		res.add("ingest_p50_ms", us(median(iLat))/1000, "ms", fmt.Sprintf("from when due, n=%d", len(iLat)))
		res.add("ingest_p99_ms", us(percentile(iLat, 0.99))/1000, "ms", fmt.Sprintf("n=%d, %d beyond", len(iLat), len(iLat)/100))
	}
	return res, nil
}

// loadDeployment warms one deployment up, runs its share of the timed
// phase, and checks its final state. A traced run also scrapes /metrics
// around the timed phase and runs the in-process layer probes while the
// deployment is still up.
func loadDeployment(ctx context.Context, cfg *config, res *result, tr *tracer, ds *dataset, w *workload, ql *queryList, ing *ingestStream, queries *stream, dep *deployment, share time.Duration, workDir string, seed int64) (measured, error) {
	var m measured
	streams := []*stream{queries}
	if ing != nil {
		ingests := &stream{name: "ingest", conns: 1, n: ingestBatches, pace: time.Second / ingestRate}
		ingests.build = func(b int) *request {
			return &request{method: http.MethodPost, path: "/v1/ingest", body: ing.body(ds, b), key: b}
		}
		streams = append(streams, ingests)
	}
	base := dep.front.url()
	m.logs = phase(ctx, base, streams, time.Now().Add(cfg.warmup), false, nil, nil)

	var (
		traceOn *atomic.Bool
		before  map[string]float64
		err     error
	)
	stopToggle := make(chan struct{})
	if cfg.trace {
		if before, err = scrape(ctx, dep.all()); err != nil {
			return m, err
		}
		// The traced run alternates traced and untraced half-seconds, so
		// the tracing overhead is measured on the same server and inputs.
		traceOn = new(atomic.Bool)
		go func() {
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopToggle:
					return
				case <-tick.C:
					traceOn.Store(!traceOn.Load())
				}
			}
		}()
	}
	timedStart := time.Now()
	timed := phase(ctx, base, streams, timedStart.Add(share), true, tr, traceOn)
	m.window = time.Since(timedStart)
	close(stopToggle)
	m.logs = append(m.logs, timed...)
	if err := ctx.Err(); err != nil {
		return m, err
	}
	if m.rssMB, err = dep.peakRSSMB(); err != nil {
		return m, err
	}
	m.windows = make([]int, int(m.window/time.Second))
	var (
		acked               []int
		ackedTimed, queryN  int
		tracedLat, plainLat time.Duration
		tracedN, plainN     int
	)
	for _, wl := range m.logs {
		for _, rp := range wl.replies {
			switch {
			case wl.stream == "ingest":
				if rp.ok {
					acked = append(acked, rp.key)
					if rp.timed {
						ackedTimed++
					}
				}
			case rp.timed:
				queryN++
				if i := int(rp.done.Sub(timedStart) / time.Second); i < len(m.windows) {
					m.windows[i]++
				}
				if rp.traced {
					tracedLat += rp.latency
					tracedN++
				} else {
					plainLat += rp.latency
					plainN++
				}
			}
		}
	}
	if ing != nil {
		if err := checkFinalState(ctx, res, ds, ql, ing, dep, acked, seed); err != nil {
			return m, err
		}
	}
	if !cfg.trace {
		return m, nil
	}

	after, err := scrape(ctx, dep.all())
	if err != nil {
		return m, err
	}
	if tracedN > 0 && plainN > 0 {
		res.add("trace.overhead_frac", (float64(tracedLat)/float64(tracedN))/(float64(plainLat)/float64(plainN))-1, "ratio",
			fmt.Sprintf("mean latency traced (n=%d) vs untraced (n=%d) half-seconds", tracedN, plainN))
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	perQuery := func(v float64) float64 { return v / float64(max(queryN, 1)) }
	res.add("tarserve.alloc_bytes_per_query", perQuery(delta("go_heap_allocs_bytes_total")), "B", "/metrics delta over the timed phase, all processes")
	res.add("tarserve.gc_cycles_per_1k", perQuery(delta("go_gc_cycles_total"))*1000, "count", "/metrics delta, all processes")
	hits, misses := delta("tartree_aggcache_hits_total"), delta("tartree_aggcache_misses_total")
	res.add("aggcache.hit_ratio", hits/max(hits+misses, 1), "ratio", fmt.Sprintf("%.0f hits, %.0f misses", hits, misses))
	res.add("aggcache.evictions_per_query", perQuery(delta("tartree_aggcache_evictions_total")), "count", "/metrics delta")
	if ing != nil {
		fsyncs := delta("tartree_wal_fsyncs_total")
		res.add("tarserve.wal_records_per_fsync", delta("tartree_wal_records_total")/max(fsyncs, 1), "count", "server /metrics delta")
		res.add("tarserve.aggcache_invalidated_per_ingest", delta("tartree_aggcache_invalidated_total")/float64(max(ackedTimed, 1)), "count", "server /metrics delta per acknowledged batch")
	}
	return m, layerProbes(ctx, res, tr, ds, w, ql, dep, workDir, seed)
}

// writeSpans prints the traced run's span summary and writes every span
// out as JSON lines.
func writeSpans(cfg *config, w *workload, seed int64, tr *tracer) error {
	logf("%s: %d spans recorded", w.name, tr.len())
	for _, s := range tr.summary() {
		fmt.Fprintf(os.Stdout, "%-14s span %-30s n=%-7d total=%-12v self=%v\n", w.name, s.name, s.count, s.total.Round(time.Microsecond), s.self.Round(time.Microsecond))
	}
	path := spanFile(cfg, w, seed)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	logf("%s: spans written to %s", w.name, path)
	return nil
}

// checkFinalState is the ingest workload's end-state check: once the
// server has flushed every epoch the acknowledged check-ins closed, a
// sample of queries must match the scan rebuilt with those check-ins.
func checkFinalState(ctx context.Context, res *result, ds *dataset, ql *queryList, ing *ingestStream, dep *deployment, acked []int, seed int64) error {
	var clock int64
	for _, b := range acked {
		clock = max(clock, ing.at((b+1)*ingestBatch-1))
	}
	if clock == 0 {
		return fmt.Errorf("no ingest batch was acknowledged")
	}
	// FlushEpochs(clock) folds every epoch ending at or before the clock;
	// the rest stays pending and invisible.
	closed := ds.epochEnd(clock) - epochLength
	extra := make(map[int32][]int64)
	var pending int64
	for _, b := range acked {
		for j := b * ingestBatch; j < (b+1)*ingestBatch; j++ {
			if t := ing.at(j); t < closed {
				extra[ing.pois[j]] = append(extra[ing.pois[j]], t)
			} else {
				pending++
			}
		}
	}
	for _, ts := range extra {
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	}
	client := &http.Client{Timeout: 10 * time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		body, err := get(ctx, client, dep.front.url()+"/healthz")
		if err != nil {
			return err
		}
		var h struct {
			WAL struct {
				Pending int64 `json:"pending_checkins"`
			} `json:"wal"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			return fmt.Errorf("decoding /healthz: %w", err)
		}
		if h.WAL.Pending == pending {
			break
		}
		if time.Now().After(deadline) {
			res.fail(1, fmt.Errorf("server holds %d pending check-ins after the final flush, acknowledged batches leave %d", h.WAL.Pending, pending))
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	qs := finalStateQueries(ds, ql, clock, seed)
	sc := newOracle(ds, extra)
	for i, q := range qs {
		res.attempted++
		body, err := get(ctx, client, dep.front.url()+queryPath(q))
		if err == nil {
			region, ok := resultsRegion(body)
			if !ok {
				err = fmt.Errorf("malformed query response")
			} else {
				err = checkOne(sc, q, region)
			}
		}
		if err != nil {
			res.fail(1, fmt.Errorf("final-state query %d %s: %w", i, queryPath(q), err))
		}
	}
	logf("final state: %d acknowledged batches, %d check-ins visible, %d pending, %d queries checked", len(acked), len(acked)*ingestBatch-int(pending), pending, len(qs))
	return nil
}
