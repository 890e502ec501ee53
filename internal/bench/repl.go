package bench

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/repl"
	"tartree/internal/wal"
)

// Replication experiment defaults. The corpus is split so the snapshot
// bootstrap and the streaming tail each carry a substantial share, and the
// check-ins land inside the query window so the convergence gate actually
// depends on every replicated record.
const (
	replBootRecords = 400
	replTailRecords = 600
	replBenchToken  = "bench-repl-token"
)

// ReplExp measures the replication pipeline end to end over loopback HTTP:
// a leader ingests the first part of a deterministic check-in stream, a
// follower bootstraps from its snapshot, the leader ingests the rest, and
// the follower tails it through a single WAL stream. The convergence gate
// rides along: after the tail, the follower must hold the leader's durable
// LSN exactly and answer the full query battery exactly as the leader does
// — same ordered results, same node, leaf and TIA-read totals — because
// the snapshot-v3 bootstrap carries the leader's index layout.
//
// The exported counters depend only on the workload shape — record counts,
// LSNs, query work — never on timing, so benchdiff can gate on them:
//
//	bench_repl_bootstrap_lsn_total
//	bench_repl_tail_records_total
//	bench_repl_records_applied_total
//	bench_repl_stream_requests_total
//	bench_repl_queries_total
//	bench_repl_follower_node_accesses_total
func ReplExp(cfg Config) ([]Table, error) {
	name := "GS"
	scale := cfg.Scale
	if scale == 0 {
		scale = 0.05
	}
	spec, err := lbsn.SpecByName(name)
	if err != nil {
		return nil, err
	}
	d, err := lbsn.Generate(spec.Scaled(scale))
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp("", "tartree-repl-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	lfs, err := wal.NewDirFS(mustMkdir(root, "leader"))
	if err != nil {
		return nil, err
	}
	lstore, err := wal.OpenStore(lfs, func() (*core.Tree, error) {
		return d.Build(lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: defaultNodeSize})
	}, wal.StoreOptions{NoSync: true})
	if err != nil {
		return nil, err
	}
	defer lstore.Close()

	// Deterministic live stream over indexed POIs, timestamps ascending to
	// the data set's end so the replicated records sit inside the query
	// window the battery below covers.
	var pois []int64
	for _, p := range d.POIs {
		if _, ok := lstore.Tree().Lookup(p.ID); ok {
			pois = append(pois, p.ID)
		}
	}
	if len(pois) == 0 {
		return nil, fmt.Errorf("repl: no indexed POIs at scale %.2f", scale)
	}
	total := replBootRecords + replTailRecords
	mk := func(i int) wal.CheckIn {
		return wal.CheckIn{POI: pois[i%len(pois)], At: d.Spec.End - int64(total) + int64(i)}
	}
	corpus := make([]wal.CheckIn, total)
	for i := range corpus {
		corpus[i] = mk(i)
	}
	if _, err := lstore.Ingest(corpus[:replBootRecords]); err != nil {
		return nil, err
	}

	lreg := obs.NewRegistry()
	lm := repl.NewMetrics(lreg)
	ld := &repl.Leader{
		Store:   lstore,
		Token:   replBenchToken,
		Metrics: lm,
		// One connection carries the whole tail; the idle poll outlives the
		// run so the stream-request count stays deterministic.
		PollTimeout: time.Hour,
	}
	mux := http.NewServeMux()
	ld.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Phase 1: snapshot bootstrap into an empty follower directory.
	ffs, err := wal.NewDirFS(mustMkdir(root, "follower"))
	if err != nil {
		return nil, err
	}
	freg := obs.NewRegistry()
	fm := repl.NewMetrics(freg)
	wm := repl.NewWatermark()
	fopts := repl.FollowerOptions{
		LeaderURL: srv.URL,
		Token:     replBenchToken,
		Metrics:   fm,
		Watermark: wm,
	}
	bootStart := time.Now()
	bootLSN, downloaded, err := repl.Bootstrap(context.Background(), ffs, fopts)
	if err != nil {
		return nil, err
	}
	bootElapsed := time.Since(bootStart)
	if !downloaded || bootLSN != replBootRecords {
		return nil, fmt.Errorf("repl: bootstrap lsn=%d downloaded=%v, want %d/true", bootLSN, downloaded, replBootRecords)
	}
	fstore, err := wal.OpenStore(ffs, func() (*core.Tree, error) {
		return nil, fmt.Errorf("follower base builder must not run")
	}, wal.StoreOptions{NoSync: true})
	if err != nil {
		return nil, err
	}
	defer fstore.Close()
	blob, _, err := lstore.EncodeSnapshot()
	if err != nil {
		return nil, err
	}

	// Phase 2: the leader ingests the rest; the follower tails it all over
	// one stream and is cancelled once the watermark reports convergence.
	if _, err := lstore.Ingest(corpus[replBootRecords:]); err != nil {
		return nil, err
	}
	f := &repl.Follower{Store: fstore, Opts: fopts}
	runCtx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	tailStart := time.Now()
	go func() { done <- f.Run(runCtx) }()
	waitCtx, waitCancel := context.WithTimeout(context.Background(), time.Minute)
	werr := wm.Wait(waitCtx, uint64(total))
	waitCancel()
	tailElapsed := time.Since(tailStart)
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("repl: follower run: %w", err)
	}
	if werr != nil {
		return nil, fmt.Errorf("repl: follower never reached LSN %d (applied %d)", total, fstore.AppliedLSN())
	}

	// Convergence gate: exact LSN identity, then identical ordered answers
	// and identical query work on the battery.
	if got, want := fstore.AppliedLSN(), lstore.DurableLSN(); got != want {
		return nil, fmt.Errorf("repl: follower applied %d, leader durable %d", got, want)
	}
	horizon := d.Spec.End + 1
	if err := lstore.FlushEpochs(horizon); err != nil {
		return nil, err
	}
	if err := fstore.FlushEpochs(horizon); err != nil {
		return nil, err
	}
	queries := d.Queries(cfg.queries(), defaultK, defaultAlpha, cfg.Seed+41)
	lwork, lres, err := runStartupBatch(lstore.Tree(), queries)
	if err != nil {
		return nil, err
	}
	fwork, fres, err := runStartupBatch(fstore.Tree(), queries)
	if err != nil {
		return nil, err
	}
	for i := range queries {
		if err := sameResults(lres[i], fres[i]); err != nil {
			return nil, fmt.Errorf("repl: query %d: follower vs leader: %w", i, err)
		}
	}
	if fwork != lwork {
		return nil, fmt.Errorf("repl: follower query work %+v != leader's %+v", fwork, lwork)
	}

	if cfg.Metrics != nil {
		cfg.Metrics.Counter("bench_repl_bootstrap_lsn_total").Add(int64(bootLSN))
		cfg.Metrics.Counter("bench_repl_tail_records_total").Add(replTailRecords)
		cfg.Metrics.Counter("bench_repl_records_applied_total").Add(int64(fm.AppliedLSN() - bootLSN))
		cfg.Metrics.Counter("bench_repl_stream_requests_total").Add(lm.StreamRequests.Value())
		cfg.Metrics.Counter("bench_repl_queries_total").Add(int64(len(queries)))
		cfg.Metrics.Counter("bench_repl_follower_node_accesses_total").Add(fwork.nodeAccesses)
	}

	t := Table{
		Title: fmt.Sprintf("Replication: snapshot bootstrap + WAL tail over loopback HTTP (%s ×%.2f, %d+%d records)",
			name, scale, replBootRecords, replTailRecords),
		Header: []string{"phase", "records", "snapshot KB", "streams", "elapsed (ms)", "records/s"},
		Rows: [][]string{
			{
				"bootstrap",
				fmt.Sprintf("%d", bootLSN),
				fmt.Sprintf("%.1f", float64(len(blob))/1024),
				"1",
				fmt.Sprintf("%.1f", bootElapsed.Seconds()*1000),
				"-",
			},
			{
				"tail",
				fmt.Sprintf("%d", replTailRecords),
				"-",
				fmt.Sprintf("%d", lm.StreamRequests.Value()),
				fmt.Sprintf("%.1f", tailElapsed.Seconds()*1000),
				fmt.Sprintf("%.0f", replTailRecords/tailElapsed.Seconds()),
			},
			{
				"converged",
				fmt.Sprintf("%d", fstore.AppliedLSN()),
				"-",
				"-",
				"-",
				fmt.Sprintf("%d queries agree", len(queries)),
			},
		},
	}
	return []Table{t}, nil
}

// mustMkdir creates a named subdirectory under root; failures surface later
// as FS-open errors, which keeps the call sites linear.
func mustMkdir(root, name string) string {
	dir := root + string(os.PathSeparator) + name
	os.Mkdir(dir, 0o755)
	return dir
}

func init() {
	Experiments["repl"] = ReplExp
}
