package core

import (
	"context"
	"errors"
	"math"
	"time"

	"tartree/internal/aggcache"
	"tartree/internal/obs"
)

// ErrInvalid is wrapped by every query-validation failure; errors.Is lets
// callers (HTTP handlers, CLIs) map bad input to a client error without
// matching strings.
var ErrInvalid = errors.New("core: invalid query")

// ErrCanceled is wrapped by searches aborted by their context, whether
// canceled or past the deadline. The stats returned alongside it are valid
// partial counts of the work done up to the abort.
var ErrCanceled = errors.New("core: query canceled")

// QueryOpts tunes one QueryCtx call. The zero value (or a nil pointer) is
// the default behavior: cache enabled (when the tree has one), no trace.
type QueryOpts struct {
	// Trace, when non-nil, records timed spans of the search (gmax read,
	// queue pops, node expansions, TIA probes) into it.
	Trace *obs.Trace
	// Span, when non-nil, is the caller's request span: the query stages
	// (cache probe, best-first search, cache store) are recorded as its
	// children in the structured span tree. Orthogonal to Trace, which
	// aggregates per-operation timings rather than building a tree.
	Span *obs.Span
	// NoCache bypasses the tree's shared epoch-versioned cache for this
	// query: no result-cache lookup, no aggregate-cache lookups, no stores.
	NoCache bool
	// Explain, when non-nil, records the query's EXPLAIN/ANALYZE forensics:
	// the best-first pop log, heap high-water mark, per-level node accesses,
	// probe attribution, f(pk) convergence and the leftover frontier.
	// QueryCtx finishes the recorder on every path — including errors and
	// cancellation, where it carries the partial counts — and folds its
	// compact summary into the trace-ring record. A nil recorder costs one
	// pointer test per instrumented site and allocates nothing.
	Explain *Explain
}

// resultKey identifies a whole ranked result set in the shared cache. It
// embeds the tree identity so one cache can serve several trees.
type resultKey struct {
	tree   uint64
	x, y   float64
	start  int64
	end    int64
	k      int
	alpha0 float64
}

// resultBytes estimates the budget charge of one cached Result (the struct
// plus its share of the slice).
const resultBytes = 72

// QueryCtx answers a kNNTA query with best-first search: the one entry
// point behind Query and QueryTraced. The context is polled on every
// best-first pop; once canceled or past its deadline the search stops
// promptly and the error wraps ErrCanceled, with the stats holding valid
// partial counts. Validation failures wrap ErrInvalid. On a tree with a
// cache (Options.Cache) the whole ranked result is served from — and
// stored into — the cache unless opts.NoCache is set; a result-cache hit
// sets stats.ResultCacheHit and does no tree traversal at all. On an
// instrumented tree (Options.Metrics) the query feeds the registry; with a
// trace ring (Options.Traces) it is recorded there too.
func (t *Tree) QueryCtx(ctx context.Context, q Query, opts *QueryOpts) ([]Result, QueryStats, error) {
	var o QueryOpts
	if opts != nil {
		o = *opts
	}
	var begin time.Time
	if t.instr != nil || t.traces != nil {
		begin = time.Now()
	}
	res, stats, err := t.runQueryCtx(ctx, q, &o)
	o.Explain.Finish(res, &stats, err)
	if t.instr != nil {
		t.instr.record(stats, len(res), time.Since(begin), err)
	}
	if t.traces != nil {
		rec := obs.TraceRecord{
			Query:   describeQuery(q),
			Start:   begin,
			Elapsed: time.Since(begin),
			Results: len(res),
			Spans:   o.Trace.Spans(),
			IO:      IOLines(&stats.IO),
			Explain: o.Explain.Summary(),
		}
		if err != nil {
			rec.Err = err.Error()
		}
		t.traces.Record(rec)
	}
	return res, stats, err
}

func (t *Tree) runQueryCtx(ctx context.Context, q Query, o *QueryOpts) ([]Result, QueryStats, error) {
	// I/O attribution is query-local: the scorer's IOAcct points at
	// stats.IO and rides the IOTag of every TIA page access (including
	// evictions and write-backs that access forces), so nothing here diffs
	// shared factory counters and concurrent queries cannot bleed traffic
	// into each other's stats.
	var stats QueryStats
	if err := q.Validate(); err != nil {
		return nil, stats, err
	}
	cache := t.opts.Cache
	if o.NoCache {
		cache = nil
	}
	var rkey resultKey
	var rhash uint64
	if cache != nil {
		ps := o.Span.StartChild("cache_probe")
		rkey = resultKey{
			tree: t.id, x: q.X, y: q.Y,
			start: q.Iq.Start, end: q.Iq.End,
			k: q.K, alpha0: q.Alpha0,
		}
		rhash = hashResultKey(rkey)
		v, ok := cache.Get(rhash, rkey)
		stats.IO.AddRead(resultCacheTag, ok)
		o.Explain.recordResultCacheProbe(ok)
		ps.SetAttr("hit", ok)
		ps.End()
		if ok {
			stats.ResultCacheHit = true
			stats.CacheHits++
			cached := v.([]Result)
			return append([]Result(nil), cached...), stats, nil
		}
		stats.CacheMisses++
	}
	ss := o.Span.StartChild("search")
	res, err := t.searchTopKCtx(ctx, q, o, &stats)
	if ss != nil {
		ss.SetAttr("results", len(res))
		ss.SetAttr("node_accesses", stats.NodeAccesses())
		ss.End()
	}
	if err != nil {
		return res, stats, err
	}
	if cache != nil {
		cs := o.Span.StartChild("cache_store")
		cache.Put(rhash, rkey, append([]Result(nil), res...), int64(len(res)+1)*resultBytes)
		cs.End()
	}
	return res, stats, nil
}

func (t *Tree) searchTopKCtx(ctx context.Context, q Query, o *QueryOpts, stats *QueryStats) ([]Result, error) {
	s, err := t.NewSearchWith(q, SearchOptions{
		Stats:   stats,
		Trace:   o.Trace,
		NoCache: o.NoCache,
		Explain: o.Explain,
		Ctx:     ctx,
	})
	if err != nil {
		return nil, err
	}
	// Deferred so a canceled search still snapshots what the bound had
	// pruned up to the abort: explain of a canceled query reports the
	// partial frontier rather than nothing.
	defer o.Explain.captureFrontier(s)
	results := make([]Result, 0, q.K)
	for len(results) < q.K {
		r, err := s.Next()
		if err != nil {
			return nil, err
		}
		if r == nil {
			break
		}
		results = append(results, *r)
		o.Explain.recordResult(len(results), r.Score)
	}
	return results, nil
}

func hashResultKey(k resultKey) uint64 {
	h := aggcache.Mix(aggcache.Seed, k.tree)
	h = aggcache.Mix(h, math.Float64bits(k.x))
	h = aggcache.Mix(h, math.Float64bits(k.y))
	h = aggcache.Mix(h, uint64(k.start))
	h = aggcache.Mix(h, uint64(k.end))
	h = aggcache.Mix(h, uint64(k.k))
	return aggcache.Mix(h, math.Float64bits(k.alpha0))
}
