package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tartree/internal/aggcache"
	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/obs"
	"tartree/internal/pagestore"
	"tartree/internal/rstar"
	"tartree/internal/shard"
	"tartree/internal/wal"
)

// Probe sizes of the traced run's in-process layer calls.
const (
	probeQueries      = 200  // core, tarserve round trip
	probeShardQueries = 100  // coordinator scatter-gather
	probeScoreQueries = 50   // Components / Aggregate per query
	probeEntries      = 64   // leaf entries scored per query
	probeIngest       = 1000 // WAL batches, from probeWriters writers
	probeWriters      = 2
	serverCacheBytes  = 64 << 20 // tarserve's default -cache-bytes
)

// layerProbes is the traced run's in-process half: it calls each layer's
// public functions on the workload's queries, one span per call, and adds
// the per-layer ledger to res. Answers seen on the way are checked too.
func layerProbes(ctx context.Context, res *result, tr *tracer, ds *dataset, w *workload, ql *queryList, dep *deployment, workDir string, seed int64) error {
	res.add("lbsn.generate_s", ds.generateS, "s", "lbsn.Generate at benchmark start")
	cache := aggcache.New(serverCacheBytes)
	sp := tr.start("lbsn.Dataset.Build", 0)
	tree, err := ds.d.Build(lbsn.BuildOptions{Grouping: core.TAR3D, Cache: cache})
	if err != nil {
		return err
	}
	res.add("core.build_s", sp.end().Seconds(), "s", "Dataset.Build, TAR3D, B+-tree TIAs")
	sp = tr.start("core.Tree.Freeze", 0)
	tree.Freeze()
	res.add("core.freeze_ms", us(sp.end())/1000, "ms", "")
	_, flat := tree.IndexBytes()
	res.add("core.index_bytes", float64(flat), "B", "frozen layout")

	sample := ql.distinct[:min(probeQueries, len(ql.distinct))]
	single, err := coreProbes(ctx, res, tr, tree, sample)
	if err != nil {
		return err
	}
	if err := rttProbe(ctx, res, tr, dep.front.url(), sample, single); err != nil {
		return err
	}
	if err := shardProbe(ctx, res, tr, ds, w, dep, sample[:min(probeShardQueries, len(sample))], single); err != nil {
		return err
	}
	// Last: the WAL probe appends to the tree.
	return walProbe(ctx, res, tr, ds, tree, cache, filepath.Join(workDir, "walprobe"), seed)
}

// singleNode is the in-process tree's answer and work for one query.
type singleNode struct {
	results []core.Result
	stats   core.QueryStats
}

func coreProbes(ctx context.Context, res *result, tr *tracer, tree *core.Tree, sample []core.Query) ([]singleNode, error) {
	noCache := &core.QueryOpts{NoCache: true}
	for _, q := range sample { // warm the TIA page buffers
		if _, _, err := tree.QueryCtx(ctx, q, noCache); err != nil {
			return nil, err
		}
	}
	parent := tr.start("probe.core", 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, q := range sample {
		sp := tr.start("core.Tree.QueryCtx", parent.id)
		if _, _, err := tree.QueryCtx(ctx, q, noCache); err != nil {
			return nil, err
		}
		sp.end()
	}
	runtime.ReadMemStats(&after)
	parent.end()
	n := float64(len(sample))
	lat := sortDurations(tr.durations("core.Tree.QueryCtx"))
	res.add("core.query_p50_us", us(median(lat)), "us", fmt.Sprintf("QueryCtx NoCache, n=%d", len(lat)))
	res.add("core.query_p99_us", us(percentile(lat, 0.99)), "us", fmt.Sprintf("n=%d", len(lat)))
	res.add("core.allocs_per_query", float64(after.Mallocs-before.Mallocs)/n, "count", "MemStats delta")
	res.add("core.bytes_per_query", float64(after.TotalAlloc-before.TotalAlloc)/n, "B", "MemStats delta")

	// Work counters: a second pass with EXPLAIN attached (exact counts;
	// its own cost stays out of the timings above).
	out := make([]singleNode, len(sample))
	var rtree, tiaReads, scored, pops int64
	var tiaCell pagestore.IOCell
	for i, q := range sample {
		exp := core.NewExplain()
		results, stats, err := tree.QueryCtx(ctx, q, &core.QueryOpts{NoCache: true, Explain: exp})
		if err != nil {
			return nil, err
		}
		out[i] = singleNode{results, stats}
		rtree += int64(stats.RTreeAccesses())
		tiaReads += stats.TIAAccesses
		scored += int64(stats.Scored)
		pops += int64(exp.Pops)
		c := stats.IO.Component(pagestore.CompTIABTree)
		tiaCell.Hits += c.Hits
		tiaCell.Misses += c.Misses
	}
	res.add("core.rtree_accesses_per_query", float64(rtree)/n, "count", "QueryStats")
	res.add("core.tia_reads_per_query", float64(tiaReads)/n, "count", "QueryStats")
	res.add("core.scored_per_query", float64(scored)/n, "count", "QueryStats")
	res.add("core.pops_per_query", float64(pops)/n, "count", "Explain")
	res.add("pagestore.tia_hit_ratio", float64(tiaCell.Hits)/float64(max(tiaCell.Hits+tiaCell.Misses, 1)), "ratio", "TIA B+-tree cells of QueryStats.IO")
	res.add("pagestore.tia_physical_per_query", float64(tiaCell.Misses)/n, "count", "TIA B+-tree page misses")

	// A whole-result cache hit: the second identical query.
	parent = tr.start("probe.result_cache", 0)
	for i, q := range sample {
		if _, _, err := tree.QueryCtx(ctx, q, nil); err != nil {
			return nil, err
		}
		sp := tr.start("core.Tree.QueryCtx.hit", parent.id)
		results, stats, err := tree.QueryCtx(ctx, q, nil)
		sp.end()
		if err != nil {
			return nil, err
		}
		res.attempted++
		if !stats.ResultCacheHit || !sameResults(results, out[i].results) {
			res.fail(1, fmt.Errorf("in-process repeat of query %d was not an identical result-cache hit", i))
		}
	}
	parent.end()
	res.add("core.query_hit_us", us(median(sortDurations(tr.durations("core.Tree.QueryCtx.hit")))), "us", "p50 of whole-result cache hits")

	// Scorer.Components on a fixed spread of leaf entries, and the TIA
	// aggregate each query's answer POIs need, from disk and from memory.
	var leaves []rstar.Entry
	var walk func(n *rstar.Node)
	walk = func(n *rstar.Node) {
		for _, e := range n.Entries {
			if e.Child == nil {
				leaves = append(leaves, e)
			} else {
				walk(e.Child)
			}
		}
	}
	walk(tree.Root())
	parent = tr.start("probe.score", 0)
	for i, q := range sample[:min(probeScoreQueries, len(sample))] {
		sc, err := tree.NewScorer(q, nil, nil)
		if err != nil {
			return nil, err
		}
		for j := 0; j < probeEntries; j++ {
			e := leaves[(i*probeEntries+j)*7919%len(leaves)]
			sp := tr.start("core.Scorer.Components", parent.id)
			_, _, err := sc.Components(e)
			sp.end()
			if err != nil {
				return nil, err
			}
		}
		for _, r := range out[i].results {
			sp := tr.start("core.Tree.Aggregate", parent.id)
			_, err := tree.Aggregate(r.POI.ID, q.Iq)
			sp.end()
			if err != nil {
				return nil, err
			}
			sp = tr.start("core.Tree.AggregateMirror", parent.id)
			_, err = tree.AggregateMirror(r.POI.ID, q.Iq)
			sp.end()
			if err != nil {
				return nil, err
			}
		}
	}
	parent.end()
	res.add("core.components_ns", meanNS(tr.durations("core.Scorer.Components")), "ns", "mean per call")
	res.add("tia.aggregate_ns", meanNS(tr.durations("core.Tree.Aggregate")), "ns", "B+-tree TIA, mean per call")
	res.add("tia.mirror_ns", meanNS(tr.durations("core.Tree.AggregateMirror")), "ns", "in-memory mirror, mean per call")
	return out, nil
}

// rttProbe sends the core probe's queries over one keep-alive connection
// with nocache=1, so the round trip does the same search work as the
// in-process call, and attributes the difference to the serving layer.
func rttProbe(ctx context.Context, res *result, tr *tracer, base string, sample []core.Query, single []singleNode) error {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	parent := tr.start("probe.tarserve", 0)
	var bytes int
	for i, q := range sample {
		sp := tr.start("tarserve.query.nocache", parent.id)
		body, err := get(ctx, client, base+queryPath(q)+"&nocache=1")
		sp.end()
		res.attempted++
		if err != nil {
			res.fail(1, err)
			continue
		}
		bytes += len(body)
		region, ok := resultsRegion(body)
		if !ok {
			res.fail(1, errors.New("malformed query response"))
			continue
		}
		got, err := decodeResults(region)
		if err == nil {
			err = compareAnswer(got, single[i].results)
		}
		if err != nil {
			res.fail(1, fmt.Errorf("served answer differs from the in-process tree: %w", err))
		}
	}
	parent.end()
	rtt := median(sortDurations(tr.durations("tarserve.query.nocache")))
	inProc, _ := res.get("core.query_p50_us")
	res.add("tarserve.rtt_p50_us", us(rtt), "us", fmt.Sprintf("one connection, nocache=1, n=%d", len(sample)))
	res.add("tarserve.overhead_frac", 1-inProc.value/us(rtt), "ratio", "1 - core.query_p50_us / tarserve.rtt_p50_us")
	res.add("tarserve.resp_bytes", float64(bytes)/float64(len(sample)), "B", "mean response body")
	return nil
}

// shardProbe runs the coordinator in process: against the workload's shard
// processes when it has them, else against four in-process shard servers
// built from the same partition.
func shardProbe(ctx context.Context, res *result, tr *tracer, ds *dataset, w *workload, dep *deployment, sample []core.Query, single []singleNode) error {
	var urls []string
	if len(dep.shards) > 0 {
		for _, s := range dep.shards {
			urls = append(urls, s.url())
		}
	} else {
		var stop func()
		var err error
		if urls, stop, err = inProcessShards(tr, ds, 4); err != nil {
			return err
		}
		defer stop()
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: len(urls)}, Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	coord := &shard.Coordinator{Shards: urls, Client: client}
	parent := tr.start("probe.shard", 0)
	var rounds, cands, pushes, shardNodes, singleNodes int64
	for i, q := range sample {
		sp := tr.start("shard.Coordinator.Query", parent.id)
		results, _, rows, err := coord.Query(ctx, q)
		sp.end()
		if err != nil {
			return fmt.Errorf("coordinator query: %w", err)
		}
		res.attempted++
		if !sameResults(results, single[i].results) {
			res.fail(1, fmt.Errorf("coordinator answer to probe query %d differs from the single-node tree", i))
		}
		var r int
		for _, row := range rows {
			r = max(r, row.Rounds)
			cands += int64(row.Results)
			pushes += int64(row.BoundPushes)
			shardNodes += row.NodeAccesses
		}
		rounds += int64(r)
		singleNodes += int64(single[i].stats.RTreeAccesses())
	}
	parent.end()
	n := float64(len(sample))
	where := "in-process shard servers"
	if w.shards > 0 {
		where = "the shard processes"
	}
	res.add("shard.query_p50_us", us(median(sortDurations(tr.durations("shard.Coordinator.Query")))), "us", fmt.Sprintf("in-process coordinator over %s, n=%d", where, len(sample)))
	res.add("shard.rounds_per_query", float64(rounds)/n, "count", "barrier rounds")
	res.add("shard.candidates_per_query", float64(cands)/n, "count", "candidates streamed, all shards")
	res.add("shard.bound_pushes_per_query", float64(pushes)/n, "count", "all shards")
	res.add("shard.node_access_ratio", float64(shardNodes)/float64(max(singleNodes, 1)), "ratio", "R-tree node accesses, all shards / single node")
	return nil
}

// inProcessShards serves n shard slices of the data set from this process
// on loopback listeners, partitioned exactly as the sharded workload is.
func inProcessShards(tr *tracer, ds *dataset, n int) ([]string, func(), error) {
	m, err := shard.Partition(ds.effective, n, ds.d.World)
	if err != nil {
		return nil, nil, err
	}
	var (
		urls    []string
		servers []*http.Server
	)
	stop := func() {
		for _, s := range servers {
			_ = s.Close()
		}
	}
	for i := 0; i < n; i++ {
		i := i
		sp := tr.start("lbsn.Dataset.Build.shard", 0)
		t, err := ds.d.Build(lbsn.BuildOptions{Grouping: core.TAR3D, Keep: func(p core.POI) bool { return m.Locate(p.X, p.Y) == i }})
		sp.end()
		if err != nil {
			stop()
			return nil, nil, err
		}
		t.Freeze()
		mux := http.NewServeMux()
		(&shard.Server{Data: shard.TreeViewer{Tree: t}, Index: i, N: n, Region: m.Region(i)}).Register(mux)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		hs := &http.Server{Handler: mux}
		servers = append(servers, hs)
		go func() { _ = hs.Serve(ln) }()
		urls = append(urls, "http://"+ln.Addr().String())
	}
	return urls, stop, nil
}

// walProbe opens a durable store over the in-process tree in a fresh
// directory and drives the ingest, epoch-flush and checkpoint paths.
func walProbe(ctx context.Context, res *result, tr *tracer, ds *dataset, tree *core.Tree, cache *aggcache.Cache, dir string, seed int64) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	fs, err := wal.NewDirFS(dir)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	store, err := wal.OpenStore(fs, func() (*core.Tree, error) { return tree, nil }, wal.StoreOptions{Metrics: reg, Cache: cache, SnapshotV3: true})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer store.Close()
	ing := newIngestStream(ds, seed, probeIngest)
	version := cache.Version()
	parent := tr.start("probe.wal", 0)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for wr := 0; wr < probeWriters; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			batch := make([]wal.CheckIn, ingestBatch)
			for b := wr; b < ing.batches(); b += probeWriters {
				for j := range batch {
					k := b*ingestBatch + j
					batch[j] = wal.CheckIn{POI: ds.effective[ing.pois[k]].ID, At: ing.at(k)}
				}
				sp := tr.start("wal.Store.IngestCtx", parent.id)
				_, err := store.IngestCtx(ctx, batch)
				sp.end()
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}(wr)
	}
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("wal probe ingest: %w", firstErr)
	}
	walBytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	sp := tr.start("wal.Store.FlushEpochs", parent.id)
	err = store.FlushEpochs(ing.at(len(ing.pois) - 1))
	flush := sp.end()
	if err != nil {
		return err
	}
	sp = tr.start("wal.Store.Checkpoint", parent.id)
	_, err = store.Checkpoint()
	checkpoint := sp.end()
	if err != nil {
		return err
	}
	parent.end()
	lat := sortDurations(tr.durations("wal.Store.IngestCtx"))
	records := reg.Counter("tartree_wal_records_total").Value()
	fsyncs := reg.Counter("tartree_wal_fsyncs_total").Value()
	res.add("wal.ingest_p50_us", us(median(lat)), "us", fmt.Sprintf("IngestCtx of %d check-ins, %d writers, DirFS with fsync, n=%d", ingestBatch, probeWriters, len(lat)))
	res.add("wal.ingest_p99_us", us(percentile(lat, 0.99)), "us", fmt.Sprintf("n=%d", len(lat)))
	res.add("wal.records_per_fsync", float64(records)/float64(max(fsyncs, 1)), "count", "group commit")
	res.add("wal.fsync_p50_us", reg.Histogram("tartree_wal_fsync_latency_seconds", nil).Quantile(0.5)*1e6, "us", "tartree_wal_fsync_latency_seconds")
	res.add("wal.bytes_per_checkin", float64(walBytes)/float64(max(records, 1)), "B", "WAL directory size / records")
	res.add("wal.flush_ms", us(flush)/1000, "ms", "FlushEpochs over the probe's epochs")
	res.add("wal.checkpoint_ms", us(checkpoint)/1000, "ms", "snapshot-v3 checkpoint")
	res.add("aggcache.invalidations_per_ingest", float64(cache.Version()-version)/float64(ing.batches()), "count", "cache version bumps per acknowledged batch")
	return nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

func sameResults(a, b []core.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].POI.ID != b[i].POI.ID || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

func meanNS(d []time.Duration) float64 {
	var sum time.Duration
	for _, v := range d {
		sum += v
	}
	return float64(sum) / float64(max(len(d), 1))
}
