// Command tarquery builds a TAR-tree over one of the synthetic LBSN data
// sets and answers a kNNTA query from the command line, printing the top-k
// POIs with their score components and the work counters. It demonstrates
// the whole public API: data generation, index construction, querying and
// the minimum weight adjustment.
//
// With -server it instead queries a running tarserve over HTTP — a
// standalone server, a replication follower, or a shard coordinator, the
// client cannot tell. -explain and -io work remotely too: the server's
// plan tree (or, on a coordinator, the per-shard attribution) and I/O
// breakdown ride back in the response. Adding -min-lsn holds the query
// until that server has applied the given LSN, which is how a client
// reads its own writes from a replication follower.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"tartree"
	"tartree/internal/client"
	"tartree/internal/httpapi"
	"tartree/internal/lbsn"
	"tartree/internal/mwa"
	"tartree/internal/obs"
	"tartree/internal/pagestore"
	"tartree/internal/planner"
)

func main() {
	var (
		name     = flag.String("dataset", "GS", "data set name (NYC, LA, GW, GS)")
		scale    = flag.Float64("scale", 0.2, "data set scale in (0,1]")
		pois     = flag.String("pois", "", "load POIs from this CSV (written by datagen) instead of generating")
		checkins = flag.String("checkins", "", "load check-ins from this CSV (requires -pois)")
		x        = flag.Float64("x", 50, "query point x (world is 0..100)")
		y        = flag.Float64("y", 50, "query point y")
		k        = flag.Int("k", 10, "number of results")
		alpha    = flag.Float64("alpha", 0.3, "weight of the spatial distance")
		days     = flag.Int64("days", 128, "query interval length in days (ending at the data set's end)")
		adj      = flag.Bool("mwa", false, "also compute the minimum weight adjustment")
		plan     = flag.Bool("plan", false, "consult the cost-model planner before answering")
		explain  = flag.Bool("explain", false, "print the query's EXPLAIN/ANALYZE: plan estimates, best-first pop log, f(pk) convergence and the pruned frontier")
		group    = flag.String("grouping", "tar", "entry grouping: tar, spa, agg")
		showIO   = flag.Bool("io", false, "print the per-component I/O breakdown of the query")
		showTr   = flag.Bool("trace", false, "print a duration-annotated span tree of the query")
		replay   = flag.String("replay", "", "build an empty index and feed this check-in stream (written by datagen -checkins) through the live ingest path instead of bulk-loading histories")
		cacheB   = flag.Int64("cache-bytes", 64<<20, "shared aggregate/result cache size in bytes (0 disables)")
		server   = flag.String("server", "", "query a running tarserve at this base URL instead of building a local index")
		minLSN   = flag.Uint64("min-lsn", 0, "with -server: hold the query until the server has applied this LSN (read-your-writes against a replication follower)")
	)
	flag.Parse()

	if *minLSN > 0 && *server == "" {
		fatal(fmt.Errorf("-min-lsn requires -server"))
	}
	if *server != "" {
		remoteQuery(*server, *x, *y, *k, *alpha, *days, *minLSN, *explain, *showIO)
		return
	}

	spec, err := lbsn.SpecByName(*name)
	if err != nil {
		fatal(err)
	}
	var d *lbsn.Dataset
	if *pois != "" {
		if *checkins == "" {
			fatal(fmt.Errorf("-pois requires -checkins"))
		}
		d, err = lbsn.LoadCSV(spec, *pois, *checkins)
	} else {
		d, err = lbsn.Generate(spec.Scaled(*scale))
	}
	if err != nil {
		fatal(err)
	}
	var g tartree.Grouping
	switch *group {
	case "tar":
		g = tartree.TAR3D
	case "spa":
		g = tartree.IndSpa
	case "agg":
		g = tartree.IndAgg
	default:
		fatal(fmt.Errorf("unknown grouping %q", *group))
	}
	cache := tartree.NewCache(*cacheB) // nil when disabled
	buildStart := time.Now()
	var tr *tartree.Tree
	if *replay != "" {
		tr, err = d.BuildEmpty(lbsn.BuildOptions{Grouping: g, Cache: cache})
		if err != nil {
			fatal(err)
		}
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		cs, err := lbsn.ReadCheckInStream(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		applied, skipped, err := lbsn.ReplayStream(tr, cs)
		if err != nil {
			fatal(err)
		}
		if err := tr.FlushAll(); err != nil {
			fatal(err)
		}
		fmt.Printf("replayed %d check-ins through the ingest path (%d for non-indexed POIs skipped)\n",
			applied, skipped)
	} else {
		tr, err = d.Build(lbsn.BuildOptions{Grouping: g, Cache: cache})
		if err != nil {
			fatal(err)
		}
	}
	leaves, internals := tr.NodeCount()
	fmt.Printf("built %s over %s: %d effective POIs, %d leaf + %d internal nodes, height %d (%v)\n",
		g, spec.Name, tr.Len(), leaves, internals, tr.Height(), time.Since(buildStart).Round(time.Millisecond))

	end := d.Spec.End
	q := tartree.Query{
		X: *x, Y: *y,
		Iq:     tartree.Interval{Start: end - *days*lbsn.Day, End: end},
		K:      *k,
		Alpha0: *alpha,
	}
	if *plan {
		pl, err := planner.New(tr)
		if err != nil {
			fatal(err)
		}
		p, err := pl.Plan(q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nplanner: %v (index cost %.1f vs scan cost %.1f, estimated f(pk) %.3f)\n",
			p.Engine, p.IndexCost, p.ScanCost, p.EstimatedFk)
	}

	// With -trace the query runs under a root span: the stages (cache
	// probe, best-first search, cache store) land in the span tree printed
	// after the results.
	opts := &tartree.QueryOpts{}
	var spans *tartree.TraceBuffer
	var root *tartree.Span
	if *showTr {
		spans = tartree.NewTraceBuffer(1)
		root = tartree.StartTrace("tarquery", tartree.SpanContext{}, spans)
		opts.Span = root
	}
	var exp *tartree.Explain
	if *explain {
		exp = tartree.NewExplain()
		opts.Explain = exp
		// The estimate-only planner supplies the Section-6 side of the
		// explain without materializing a scan engine. A plan failure just
		// leaves the estimates out.
		if p, err := tartree.NewPlanEstimator(tr).Plan(q); err == nil {
			exp.Plan = p.Explain()
		}
	}
	start := time.Now()
	results, stats, err := tr.QueryCtx(context.Background(), q, opts)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	if root != nil {
		root.SetAttr("results", len(results))
		root.Finish()
	}

	fmt.Printf("\nkNNTA query at (%.1f, %.1f), last %d days, k=%d, alpha0=%.2f\n\n",
		*x, *y, *days, *k, *alpha)
	fmt.Printf("%4s  %6s  %8s  %8s  %8s  %8s  %6s\n", "rank", "poi", "score", "s0", "s1", "x/y", "agg")
	for i, r := range results {
		fmt.Printf("%4d  %6d  %8.4f  %8.4f  %8.4f  %4.1f/%-4.1f %6d\n",
			i+1, r.POI.ID, r.Score, r.S0, r.S1, r.POI.X, r.POI.Y, r.Agg)
	}
	fmt.Printf("\n%d node accesses (%d internal, %d leaf), %d TIA page reads, %v\n",
		stats.RTreeAccesses(), stats.InternalAccesses, stats.LeafAccesses, stats.TIAAccesses, elapsed.Round(time.Microsecond))

	if *showIO {
		printIOBreakdown(stats)
	}

	if exp != nil {
		printExplain(exp)
	}

	if spans != nil {
		fmt.Println()
		for _, ft := range spans.Traces() {
			ft.WriteTree(os.Stdout)
		}
	}

	if *adj {
		_, a, _, err := mwa.Pruning(tr, q)
		if err != nil {
			fatal(err)
		}
		fmt.Println("\nminimum weight adjustment:")
		if a.HasLower {
			fmt.Printf("  lower alpha0 below %.4f to change the top-%d\n", a.Lower, *k)
		}
		if a.HasUpper {
			fmt.Printf("  raise alpha0 above %.4f to change the top-%d\n", a.Upper, *k)
		}
		if !a.HasLower && !a.HasUpper {
			fmt.Println("  no adjustment changes the result set")
		}
	}
}

// remoteQuery answers the query over HTTP against a running tarserve
// instead of building a local index, through the same client.Remote
// Querier the batch runner and the shard coordinator tests use. With
// minLSN > 0 the server holds the query until its applied LSN reaches
// that watermark, which gives read-your-writes semantics against a
// replication follower: ingest on the leader, note the acknowledged LSN,
// query the follower with it.
func remoteQuery(server string, x, y float64, k int, alpha float64, days int64, minLSN uint64, explain, showIO bool) {
	rem := &client.Remote{
		BaseURL: strings.TrimRight(server, "/"),
		MinLSN:  minLSN,
		Days:    days,
	}
	q := tartree.Query{X: x, Y: y, K: k, Alpha0: alpha}
	opts := &tartree.QueryOpts{}
	var exp *tartree.Explain
	if explain {
		exp = tartree.NewExplain()
		opts.Explain = exp
	}
	start := time.Now()
	resp, err := rem.Do(context.Background(), q, opts)
	if err != nil {
		var herr *httpapi.Error
		if errors.As(err, &herr) && herr.Status == http.StatusGatewayTimeout && minLSN > 0 {
			fatal(fmt.Errorf("server has not applied LSN %d within its deadline: %s", minLSN, herr.Message))
		}
		fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("kNNTA query at (%.1f, %.1f), last %d days, k=%d, alpha0=%.2f via %s\n",
		x, y, days, k, alpha, server)
	if minLSN > 0 {
		fmt.Printf("answered at or after applied LSN %d\n", minLSN)
	}
	fmt.Printf("\n%4s  %6s  %8s  %8s  %8s  %8s  %6s\n", "rank", "poi", "score", "s0", "s1", "x/y", "agg")
	for i, r := range resp.Results {
		fmt.Printf("%4d  %6d  %8.4f  %8.4f  %8.4f  %4.1f/%-4.1f %6d\n",
			i+1, r.POI.ID, r.Score, r.S0, r.S1, r.POI.X, r.POI.Y, r.Agg)
	}
	cached := ""
	if resp.Stats.ResultCacheHit {
		cached = " (whole result from the server's cache)"
	}
	fmt.Printf("\n%d node accesses (%d internal, %d leaf), %d TIA page reads, server %v, round trip %v%s\n",
		resp.Stats.InternalAccesses+resp.Stats.LeafAccesses, resp.Stats.InternalAccesses, resp.Stats.LeafAccesses,
		resp.Stats.TIAAccesses, time.Duration(resp.ElapsedMicros)*time.Microsecond, elapsed.Round(time.Microsecond), cached)

	if showIO {
		printRemoteIO(resp.IO, resp.Stats)
	}
	if exp != nil {
		printExplain(exp)
	}
}

// printRemoteIO renders the per-component I/O attribution a remote query
// reports (the flattened io lines of the /v1/query response).
func printRemoteIO(lines []obs.IOLine, stats tartree.QueryStats) {
	fmt.Printf("\nI/O breakdown (level 0 = leaf; shard rows: level = shard index):\n")
	fmt.Printf("%-16s %5s  %8s  %8s  %9s\n", "component", "level", "hits", "misses", "evictions")
	var hits, misses, evictions int64
	for _, l := range lines {
		fmt.Printf("%-16s %5d  %8d  %8d  %9d\n", l.Component, l.Level, l.Hits, l.Misses, l.Evictions)
		hits += l.Hits
		misses += l.Misses
		evictions += l.Evictions
	}
	fmt.Printf("%-16s %5s  %8d  %8d  %9d\n", "total", "", hits, misses, evictions)
	fmt.Printf("cache: %d hits, %d misses", stats.CacheHits, stats.CacheMisses)
	if stats.ResultCacheHit {
		fmt.Printf(" (whole result served from cache)")
	}
	fmt.Println()
}

// printIOBreakdown renders the attributed page traffic of one query as a
// table, one row per (component, level) pair that saw traffic. Level 0 is
// the leaf level of the owning structure.
func printIOBreakdown(stats tartree.QueryStats) {
	fmt.Printf("\nI/O breakdown (level 0 = leaf):\n")
	fmt.Printf("%-16s %5s  %8s  %8s  %9s\n", "component", "level", "hits", "misses", "evictions")
	var total pagestore.IOCell
	stats.IO.Each(func(c pagestore.Component, level int, cell pagestore.IOCell) {
		fmt.Printf("%-16s %5d  %8d  %8d  %9d\n", c, level, cell.Hits, cell.Misses, cell.Evictions)
		total.Hits += cell.Hits
		total.Misses += cell.Misses
		total.Evictions += cell.Evictions
	})
	fmt.Printf("%-16s %5s  %8d  %8d  %9d\n", "total", "", total.Hits, total.Misses, total.Evictions)
	fmt.Printf("cache: %d hits, %d misses", stats.CacheHits, stats.CacheMisses)
	if stats.ResultCacheHit {
		fmt.Printf(" (whole result served from cache)")
	}
	fmt.Println()
}

// printExplain renders the EXPLAIN/ANALYZE recorder as an annotated text
// tree: the plan estimates (when a planner ran), the search actuals, a
// bounded slice of the pop-by-pop log, the f(pk) convergence timeline and
// the pruned frontier.
func printExplain(e *tartree.Explain) {
	const maxShown = 12
	fmt.Println("\nEXPLAIN")
	if p := e.Plan; p != nil {
		units := "page units"
		if p.Calibrated {
			units = "µs"
		}
		fmt.Printf("├─ plan: engine=%s  est f(pk)=%.4f  est node accesses=%.1f (leaf %.1f)\n",
			p.Engine, p.EstimatedFk, p.EstimatedNodeAccesses, p.EstimatedLeafAccesses)
		fmt.Printf("│       index cost %.1f vs scan cost %.1f [%s], %d cost-model bands\n",
			p.IndexCost, p.ScanCost, units, len(p.Bands))
		if actual := e.NodeAccesses(); actual > 0 {
			fmt.Printf("│       node-access error: %+.1f%% (estimated %.1f, actual %d)\n",
				100*(p.EstimatedNodeAccesses-float64(actual))/float64(actual),
				p.EstimatedNodeAccesses, actual)
		}
	}
	fmt.Printf("├─ search: %d pops, heap high-water %d, %d node accesses (by level, leaf first: %v)\n",
		e.Pops, e.HeapMax, e.NodeAccesses(), e.NodeAccessesByLevel)
	fmt.Printf("├─ probes: %d TIA page reads (%d physical), cache %d hits / %d misses",
		e.TIAReads, e.TIAPhysical, e.CacheHits, e.CacheMisses)
	if e.ResultCacheHit {
		fmt.Printf(" (whole result from cache)")
	}
	fmt.Println()
	if len(e.Shards) > 0 {
		fmt.Printf("├─ shards (scatter-gather):\n")
		for _, s := range e.Shards {
			extra := ""
			if s.Pruned {
				extra = ", pruned by global bound"
			}
			if s.Restarts > 0 {
				extra += fmt.Sprintf(", %d restart(s)", s.Restarts)
			}
			fmt.Printf("│    shard %d %s: %d candidates over %d rounds (%d bound pushes), %d node accesses, %d TIA reads, %v%s\n",
				s.Shard, s.URL, s.Results, s.Rounds, s.BoundPushes, s.NodeAccesses, s.TIAReads,
				time.Duration(s.ElapsedMicros)*time.Microsecond, extra)
		}
	}
	if len(e.PopLog) > 0 {
		shown := len(e.PopLog)
		if shown > maxShown {
			shown = maxShown
		}
		fmt.Printf("├─ pop log (%d of %d):\n", shown, e.Pops)
		for _, p := range e.PopLog[:shown] {
			kind := fmt.Sprintf("node L%d", p.Level)
			if p.Level < 0 {
				kind = fmt.Sprintf("POI %d → result", p.POI)
			}
			fmt.Printf("│    #%-4d bound=%.4f (s0=%.4f s1=%.4f)  %-18s heap=%d\n",
				p.Seq, p.Bound, p.S0, p.S1, kind, p.HeapLen)
		}
		if e.LogTruncated || shown < len(e.PopLog) {
			fmt.Printf("│    … %d more pops\n", e.Pops-shown)
		}
	}
	if len(e.Convergence) > 0 {
		fmt.Printf("├─ f(pk) convergence:")
		for _, c := range e.Convergence {
			fmt.Printf("  r%d=%.4f@pop%d", c.Rank, c.Score, c.Pop)
		}
		fmt.Println()
	}
	fmt.Printf("└─ frontier: %d pruned element(s) left in the queue", e.FrontierSize)
	if len(e.Frontier) > 0 {
		fmt.Printf(", best bound %.4f", e.Frontier[0].Bound)
		shown := len(e.Frontier)
		if shown > maxShown {
			shown = maxShown
		}
		fmt.Println()
		for i, f := range e.Frontier[:shown] {
			glyph := "├─"
			if i == shown-1 && !e.FrontierTruncated {
				glyph = "└─"
			}
			kind := fmt.Sprintf("node L%d", f.Level)
			if f.Level < 0 {
				kind = fmt.Sprintf("POI %d", f.POI)
			}
			fmt.Printf("     %s bound=%.4f  %s\n", glyph, f.Bound, kind)
		}
		if e.FrontierTruncated || shown < len(e.Frontier) {
			fmt.Printf("     └─ … %d more\n", e.FrontierSize-shown)
		}
	} else {
		fmt.Println(" (exhausted)")
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tarquery: %v\n", err)
	os.Exit(1)
}
