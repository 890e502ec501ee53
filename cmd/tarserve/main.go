// Command tarserve builds a TAR-tree over a synthetic LBSN data set and
// serves kNNTA queries over HTTP, with the full observability surface:
//
//	GET  /v1/query?x=50&y=50&k=10&alpha=0.3[&days=128][&trace=1][&timeout_ms=500][&nocache=1]
//	POST /v1/ingest     durable live check-ins (requires -wal-dir)
//	GET  /v1/traces     recent and slowest query records with I/O breakdowns
//	GET  /metrics       Prometheus text exposition of the obs registry
//	GET  /healthz       readiness: 200 "ready" once the index is recovered,
//	                    503 "recovering" while it is still loading
//	GET  /debug/pprof/  standard Go profiling endpoints
//
// The legacy unversioned routes (/query, /ingest, /debug/traces) answer 308
// Permanent Redirect to their /v1 successors. timeout_ms maps to a context
// deadline: a query that exceeds it stops promptly and answers 504.
//
// Queries are served through a shared epoch-versioned cache (-cache-bytes,
// default 64 MiB, 0 disables) that memoizes TIA aggregates and whole result
// sets; every ingest apply or epoch flush invalidates it, so cached answers
// are always identical to uncached ones. Hit/miss/eviction/bytes gauges are
// exported as tartree_aggcache_* on /metrics, and every query response
// reports its own cache_hits/cache_misses.
//
// With -wal-dir the server ingests live check-ins durably: POST /ingest
// appends to a group-committed write-ahead log and answers 200 only after
// the batch is fsynced and applied. On startup the index is recovered from
// the newest checkpoint in the WAL directory plus a log replay; the listener
// comes up first so /healthz reports "recovering" until the replay is done.
// Background loops fold elapsed epochs (-flush-every) and write checkpoints
// (-checkpoint-every) that let the log drop obsolete segments.
//
//	POST /ingest {"poi": 17, "ts": 1234567890}
//	POST /ingest {"checkins": [{"poi": 17, "ts": 100}, {"poi": 9, "ts": 105}]}
//
// Per-request structured access logs go to stderr (slog). Queries slower
// than -slow-query are additionally logged at warn level.
//
// Queries execute concurrently, bounded by the -max-concurrent admission
// semaphore (default GOMAXPROCS); requests beyond the limit queue and are
// visible in the tarserve_query_queue_depth gauge.
//
// # Replication
//
// With -repl-token a durable server becomes a replication leader: it
// exposes GET /v1/repl/snapshot (tree snapshot at the applied LSN) and
// GET /v1/repl/wal?from=<lsn> (CRC32C frame stream with long-poll tail),
// both requiring the token as an Authorization bearer. A follower runs
// with -follow <leader-url> -repl-token <secret> -wal-dir <dir>: it
// bootstraps from the leader's snapshot, tails the WAL through the same
// apply path local ingest uses (keeping its own durable WAL copy, so a
// restart recovers locally and resumes), answers queries, and rejects
// POST /v1/ingest with 403 plus a Location header naming the leader.
// Read-your-writes across the pair: echo the leader's ingest ack LSN as
// /v1/query?min_lsn=<lsn> on the follower — the query waits until that
// LSN is applied (504 past the deadline). /healthz reports the role and
// replication lag on both sides; the follower additionally exports
// tartree_repl_{applied_lsn,lag_records,lag_seconds}.
//
// # Sharding
//
// A fleet of servers can split the POI set spatially: datagen -shard-map
// writes an STR-style partition map, each shard runs with
// -shard-of i/N -shard-map map.json (indexing only its slice, over the
// full world so scores stay bit-identical), and one coordinator runs with
// -coordinator url0,url1,... and no local index. The coordinator serves
// /v1/query by scatter-gather: it fans the query to every shard, streams
// candidate batches back, and pushes the merged global k-th score to
// in-flight shards so each prunes against the global bound. Answers are
// exactly identical to single-node execution; a failed shard turns the
// whole query into a 503 naming the shard, never a silently partial
// top-k. /healthz reports the role and the shard's key range;
// tartree_shard_* metrics cover fan-out, rounds, bound pushes and
// straggler latency.
//
// On SIGINT/SIGTERM the server drains in-flight requests, stops the
// replication tail and background loops, flushes observed epochs and
// closes the WAL cleanly before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tartree/internal/aggcache"
	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/repl"
	"tartree/internal/shard"
	"tartree/internal/wal"
)

// drainTimeout bounds how long shutdown waits for in-flight requests.
const drainTimeout = 10 * time.Second

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		name    = flag.String("dataset", "GS", "data set name (NYC, LA, GW, GS)")
		scale   = flag.Float64("scale", 0.1, "data set scale in (0,1]")
		group   = flag.String("grouping", "tar", "entry grouping: tar, spa, agg")
		logJSON = flag.Bool("logjson", false, "emit access logs as JSON instead of text")
		nTraces = flag.Int("traces", 64, "query records kept for /debug/traces (0 disables capture)")
		slowQ   = flag.Duration("slow-query", 250*time.Millisecond, "log queries slower than this at warn level")
		maxConc = flag.Int("max-concurrent", 0, "admission limit: queries executing at once (0 = GOMAXPROCS); excess requests queue")
		walDir  = flag.String("wal-dir", "", "enable durable ingestion: write-ahead log and checkpoints live here")
		ckEvery = flag.Duration("checkpoint-every", 5*time.Minute, "background checkpoint interval (requires -wal-dir)")
		flEvery = flag.Duration("flush-every", 30*time.Second, "background epoch-flush interval (requires -wal-dir)")
		replay  = flag.String("replay", "", "seed a fresh WAL with this check-in stream (written by datagen -checkins) through the ingest path; skipped if the WAL already holds data")
		noSync  = flag.Bool("wal-nosync", false, "skip WAL fsyncs (throughput experiments only: crash durability is lost)")
		cacheB  = flag.Int64("cache-bytes", 64<<20, "shared aggregate/result cache size in bytes (0 disables)")
		trcOut  = flag.String("trace-out", "", "append finished span traces to this file as Chrome trace_event JSON")
		sloSpec = flag.String("slo", "", `latency/error objectives, e.g. "query:p99<50ms,ingest:p99<100ms" (burn rates on /metrics)`)
		snapV3  = flag.Bool("snapshot-v3", true, "write checkpoints in the flat snapshot-v3 format (section reads at startup, no rebuild); recovery reads either format")
		follow  = flag.String("follow", "", "run as a replication follower of this leader base URL (requires -wal-dir and -repl-token)")
		replTok = flag.String("repl-token", "", "shared replication secret: enables the leader's /v1/repl endpoints, authenticates a follower; empty disables replication")
		shardOf = flag.String("shard-of", "", `serve spatial shard "i/N" of the data set (requires -shard-map); only POIs the map assigns to shard i are indexed`)
		mapFile = flag.String("shard-map", "", "shard map JSON file (written by datagen -shard-map); required with -shard-of")
		coord   = flag.String("coordinator", "", "comma-separated shard base URLs: run /v1/query as a scatter-gather coordinator over them (no local index)")
	)
	flag.Parse()
	var (
		shardIdx, shardN int
		shardMap         *shard.Map
	)
	if *shardOf != "" {
		switch {
		case *coord != "":
			fatal(errors.New("-shard-of and -coordinator are mutually exclusive roles"))
		case *follow != "":
			fatal(errors.New("-shard-of cannot be combined with -follow: a shard owns its own slice of the base data"))
		case *replTok != "":
			fatal(errors.New("-shard-of cannot be combined with -repl-token"))
		case *mapFile == "":
			fatal(errors.New("-shard-of requires -shard-map"))
		}
		if n, err := fmt.Sscanf(*shardOf, "%d/%d", &shardIdx, &shardN); err != nil || n != 2 {
			fatal(fmt.Errorf("-shard-of must look like \"0/4\", got %q", *shardOf))
		}
		if shardN < 1 || shardIdx < 0 || shardIdx >= shardN {
			fatal(fmt.Errorf("-shard-of index %d out of range for %d shards", shardIdx, shardN))
		}
		m, err := shard.LoadMap(*mapFile)
		if err != nil {
			fatal(err)
		}
		if m.N != shardN {
			fatal(fmt.Errorf("-shard-of names %d shards but map %s holds %d", shardN, *mapFile, m.N))
		}
		shardMap = m
	}
	if *coord != "" {
		switch {
		case *follow != "":
			fatal(errors.New("-coordinator cannot be combined with -follow"))
		case *replTok != "":
			fatal(errors.New("-coordinator cannot be combined with -repl-token: the coordinator holds no WAL to replicate"))
		case *walDir != "":
			fatal(errors.New("-coordinator cannot be combined with -wal-dir: ingest goes to the shards, not the coordinator"))
		}
	}
	if *follow != "" {
		switch {
		case *walDir == "":
			fatal(errors.New("-follow requires -wal-dir for the follower's own WAL copy"))
		case *replTok == "":
			fatal(errors.New("-follow requires -repl-token"))
		case *replay != "":
			fatal(errors.New("-replay cannot be combined with -follow: a follower's history comes from the leader"))
		}
	}

	// Shutdown: first signal starts the drain, a second one kills the
	// process the default way (stop() reinstalls default handling).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var h slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		h = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(h)

	var g core.Grouping
	switch *group {
	case "tar":
		g = core.TAR3D
	case "spa":
		g = core.IndSpa
	case "agg":
		g = core.IndAgg
	default:
		fatal(fmt.Errorf("unknown grouping %q", *group))
	}

	spec, err := lbsn.SpecByName(*name)
	if err != nil {
		fatal(err)
	}
	spec = spec.Scaled(*scale)
	// Neither a follower nor a coordinator builds a local base: the
	// follower's tree comes from the leader's snapshot, the coordinator
	// delegates every query to its shards. Both need only the spec (the
	// default query interval), so the expensive generation is skipped.
	var d *lbsn.Dataset
	if *follow == "" && *coord == "" {
		log.Info("generating data set", "dataset", spec.Name, "scale", *scale)
		if d, err = lbsn.Generate(spec); err != nil {
			fatal(err)
		}
	}
	// A shard indexes only the POIs the map assigns to it; Locate is the
	// membership oracle so every process sharing the map agrees exactly.
	var keep func(p core.POI) bool
	if shardMap != nil {
		if d.World != shardMap.World {
			fatal(fmt.Errorf("shard map %s was built for world %v, data set has %v — regenerate it with datagen -shard-map at the same -dataset/-scale", *mapFile, shardMap.World, d.World))
		}
		keep = func(p core.POI) bool { return shardMap.Locate(p.X, p.Y) == shardIdx }
	}

	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	var ring *obs.TraceRing
	if *nTraces > 0 {
		ring = obs.NewTraceRing(*nTraces)
		ring.SetSlowLog(log, *slowQ)
	}
	cache := aggcache.New(*cacheB) // nil when disabled

	objectives, err := obs.ParseSLOs(*sloSpec)
	if err != nil {
		fatal(err)
	}

	// The listener comes up before the index: /healthz answers 503
	// "recovering" (and /metrics works) until finishStartup below.
	srv := newPendingServer(reg, ring, log, *maxConc)
	srv.slo = obs.NewSLOTracker(objectives)
	srv.slo.Register(reg)
	if *trcOut != "" {
		f, err := os.OpenFile(*trcOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		srv.spanSink = obs.MultiTraceSink(srv.spans, obs.NewFileTraceSink(f))
		log.Info("span traces exported", "file", *trcOut)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	log.Info("listening", "addr", ln.Addr().String(), "max_concurrent", cap(srv.admission))
	httpServer := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	// waitAndDrain blocks until a shutdown signal (or listener failure),
	// drains in-flight requests, then runs cleanup — flushing and closing
	// whatever durable state the mode holds.
	waitAndDrain := func(cleanup func()) {
		select {
		case <-ctx.Done():
			log.Info("shutdown signal received, draining", "timeout", drainTimeout)
		case err := <-serveErr:
			fatal(err)
		}
		drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := httpServer.Shutdown(drainCtx); err != nil {
			log.Warn("drain incomplete", "err", err)
		}
		if cleanup != nil {
			cleanup()
		}
		log.Info("shutdown complete")
	}

	// Coordinator: no local index at all. /v1/query scatter-gathers across
	// the shard fleet; everything else (metrics, traces, healthz) works as
	// usual over the nil tree.
	if *coord != "" {
		urls := strings.Split(*coord, ",")
		for i := range urls {
			urls[i] = strings.TrimRight(strings.TrimSpace(urls[i]), "/")
			if urls[i] == "" {
				fatal(fmt.Errorf("-coordinator has an empty shard URL in %q", *coord))
			}
		}
		srv.setCoordinator(&shard.Coordinator{
			Shards:  urls,
			Metrics: shard.NewMetrics(reg),
		}, shardMap)
		srv.finishStartup(nil, nil, spec.Start, spec.End)
		log.Info("coordinator ready", "shards", len(urls))
		waitAndDrain(nil)
		return
	}

	buildStart := time.Now()
	if *walDir == "" {
		tr, err := d.Build(lbsn.BuildOptions{Grouping: g, Metrics: reg, Traces: ring, Cache: cache, Keep: keep})
		if err != nil {
			fatal(err)
		}
		if shardMap != nil {
			srv.enableShard(&shard.Server{
				Data:    shard.TreeViewer{Tree: tr},
				Index:   shardIdx,
				N:       shardN,
				Region:  shardMap.Region(shardIdx),
				Metrics: shard.NewMetrics(reg),
			}, shardMap)
			log.Info("shard enabled", "shard", shardIdx, "of", shardN)
		}
		logIndex(log, tr, buildStart)
		srv.finishStartup(tr, nil, d.Spec.Start, d.Spec.End)
		waitAndDrain(nil)
		return
	}

	// Durable mode: recover from the newest checkpoint plus a WAL replay.
	// The base tree — used only when the directory holds no checkpoint —
	// bulk-loads the historical data set, or starts empty when a -replay
	// stream will provide the history through the ingest path. A follower
	// never builds one: Bootstrap below installs the leader's snapshot as
	// the local checkpoint before the store opens.
	fs, err := wal.NewDirFS(*walDir)
	if err != nil {
		fatal(err)
	}
	var (
		wm    *repl.Watermark
		rm    *repl.Metrics
		fopts repl.FollowerOptions
	)
	if *follow != "" {
		wm = repl.NewWatermark()
		rm = repl.NewMetrics(reg)
		fopts = repl.FollowerOptions{
			LeaderURL: strings.TrimRight(*follow, "/"),
			Token:     *replTok,
			Watermark: wm,
			Metrics:   rm,
			Logf: func(format string, args ...any) {
				log.Warn(fmt.Sprintf(format, args...))
			},
		}
		lsn, downloaded, err := repl.Bootstrap(ctx, fs, fopts)
		if err != nil {
			fatal(fmt.Errorf("bootstrapping from %s: %w", fopts.LeaderURL, err))
		}
		if downloaded {
			log.Info("bootstrapped from leader snapshot", "leader", fopts.LeaderURL, "lsn", lsn)
		} else {
			log.Info("local WAL state found, skipping snapshot bootstrap", "dir", *walDir)
		}
	}
	base := func() (*core.Tree, error) {
		if *follow != "" {
			return nil, errors.New("follower WAL directory holds no snapshot; bootstrap should have installed one")
		}
		if *replay != "" {
			return d.BuildEmpty(lbsn.BuildOptions{Grouping: g, Metrics: reg, Traces: ring, Cache: cache, Keep: keep})
		}
		return d.Build(lbsn.BuildOptions{Grouping: g, Metrics: reg, Traces: ring, Cache: cache, Keep: keep})
	}
	store, err := wal.OpenStore(fs, base, wal.StoreOptions{
		Metrics:    reg,
		Traces:     ring,
		NoSync:     *noSync,
		Cache:      cache,
		TraceSink:  srv.spanSink,
		SnapshotV3: *snapV3,
	})
	if err != nil {
		fatal(err)
	}
	rec := store.Recovery()
	log.Info("wal recovered",
		"dir", *walDir,
		"checkpoint_loaded", rec.CheckpointLoaded,
		"checkpoint_lsn", rec.CheckpointLSN,
		"replayed", rec.Replay.Records,
		"truncated_bytes", rec.Replay.TruncatedBytes,
		"durable_lsn", store.DurableLSN(),
	)

	if *replay != "" {
		if rec.CheckpointLoaded || store.DurableLSN() > 0 {
			log.Info("replay skipped: WAL already holds data", "file", *replay)
		} else if err := seedFromStream(store, *replay, log); err != nil {
			fatal(err)
		}
	}

	switch {
	case *follow != "":
		srv.setFollower(fopts.LeaderURL, wm, rm)
		rm.ObserveApplied(store.AppliedLSN(), store.AppliedLSN())
	case *replTok != "":
		srv.enableReplLeader(&repl.Leader{Store: store, Token: *replTok, Metrics: repl.NewMetrics(reg)})
		log.Info("replication leader enabled", "endpoints", "/v1/repl/snapshot /v1/repl/wal")
	}
	if shardMap != nil {
		// The store is the shard's Viewer: each scatter-gather round runs
		// under its read lock, and live ingest between rounds bumps the tree
		// version so in-flight sessions restart instead of answering stale.
		srv.enableShard(&shard.Server{
			Data:    store,
			Index:   shardIdx,
			N:       shardN,
			Region:  shardMap.Region(shardIdx),
			Metrics: shard.NewMetrics(reg),
		}, shardMap)
		log.Info("shard enabled", "shard", shardIdx, "of", shardN)
	}
	logIndex(log, store.Tree(), buildStart)
	srv.finishStartup(store.Tree(), store, spec.Start, spec.End)

	if *flEvery > 0 {
		go func() {
			tick := time.NewTicker(*flEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := store.FlushObserved(); err != nil && !errors.Is(err, wal.ErrClosed) {
						log.Error("epoch flush failed", "err", err)
					}
				}
			}
		}()
	}
	if *ckEvery > 0 {
		go func() {
			tick := time.NewTicker(*ckEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					lsn, err := store.Checkpoint()
					if err != nil {
						if !errors.Is(err, wal.ErrClosed) {
							log.Error("checkpoint failed", "err", err)
						}
						continue
					}
					log.Info("checkpoint written", "lsn", lsn)
				}
			}
		}()
	}

	// The follower's tail loop runs until shutdown or a fatal replication
	// error (leader truncated our LSN, bad token, divergence) — the latter
	// triggers the same drain path as a signal and exits nonzero rather
	// than serving ever-staler data silently.
	var (
		replDone  chan error
		replFatal bool
	)
	if *follow != "" {
		replDone = make(chan error, 1)
		go func() {
			err := (&repl.Follower{Store: store, Opts: fopts}).Run(ctx)
			replDone <- err
			if err != nil && ctx.Err() == nil {
				log.Error("replication tail failed, shutting down", "err", err)
				stop()
			}
		}()
	}

	waitAndDrain(func() {
		if replDone != nil {
			// The canceled context already stopped the tail; wait for the
			// last apply to finish before closing the store under it.
			if err := <-replDone; err != nil && !errors.Is(err, context.Canceled) {
				replFatal = true
			}
		}
		if err := store.FlushObserved(); err != nil {
			log.Error("final epoch flush failed", "err", err)
		}
		if err := store.Close(); err != nil {
			log.Error("closing store", "err", err)
		}
	})
	if replFatal {
		os.Exit(1)
	}
}

// seedFromStream feeds a datagen -checkins stream through the durable ingest
// path in batches, skipping check-ins for POIs the index does not carry
// (below the effectiveness threshold).
func seedFromStream(store *wal.Store, path string, log *slog.Logger) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	cs, err := lbsn.ReadCheckInStream(f)
	f.Close()
	if err != nil {
		return err
	}
	begin := time.Now()
	tree := store.Tree()
	batch := make([]wal.CheckIn, 0, 256)
	var applied, skipped int64
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if _, err := store.Ingest(batch); err != nil {
			return err
		}
		applied += int64(len(batch))
		batch = batch[:0]
		return nil
	}
	for _, c := range cs {
		if _, ok := tree.Lookup(c.POI); !ok {
			skipped++
			continue
		}
		batch = append(batch, wal.CheckIn{POI: c.POI, At: c.At})
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	log.Info("replayed check-in stream through ingest path",
		"file", path,
		"applied", applied,
		"skipped", skipped,
		"elapsed", time.Since(begin).Round(time.Millisecond),
	)
	return nil
}

func logIndex(log *slog.Logger, tr *core.Tree, buildStart time.Time) {
	leaves, internals := tr.NodeCount()
	log.Info("index ready",
		"grouping", tr.Grouping().String(),
		"pois", tr.Len(),
		"leaves", leaves,
		"internals", internals,
		"height", tr.Height(),
		"elapsed", time.Since(buildStart).Round(time.Millisecond),
	)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tarserve: %v\n", err)
	os.Exit(1)
}
