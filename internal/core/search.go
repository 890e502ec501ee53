package core

import (
	"container/heap"
	"context"
	"fmt"
	"time"

	"tartree/internal/aggcache"
	"tartree/internal/geo"
	"tartree/internal/obs"
	"tartree/internal/pagestore"
	"tartree/internal/rstar"
	"tartree/internal/tia"
)

// QueryStats counts the work done by a query (or a batch of queries). Node
// accesses are the paper's primary, machine-independent cost metric.
type QueryStats struct {
	// InternalAccesses and LeafAccesses count R-tree node reads.
	InternalAccesses int
	LeafAccesses     int
	// TIAAccesses counts logical TIA page reads (buffer hits included);
	// TIAPhysical counts the reads that reached the disk, which is what
	// the buffering experiment of Section 8.4 varies.
	TIAAccesses int64
	TIAPhysical int64
	// Scored counts entry score computations (TIA aggregate lookups before
	// caching).
	Scored int
	// IO attributes the query's page traffic by (component, level): R-tree
	// node reads (always buffer hits — the R-tree is in memory) and TIA
	// page traffic per backend. The scorer threads a query-local
	// pagestore.IOAcct pointing here through every TIA probe, so the TIA
	// cells reconcile exactly with the traffic this query caused — with no
	// global counter diffing, the accounting stays exact while any number
	// of queries run concurrently. The R-tree cells reconcile with
	// InternalAccesses/LeafAccesses.
	IO pagestore.IOBreakdown
	// CacheHits and CacheMisses count probes of the shared epoch-versioned
	// cache (Options.Cache): a hit answered a TIA aggregate probe — or the
	// whole query — from the cache instead of the backend, a miss fell
	// through. The same probes appear in IO under the agg-cache component
	// (level 0 = aggregate probes, level 1 = whole-result lookups), so the
	// conservation audit extends to cached queries: TIA cells still
	// reconcile exactly with backend traffic, and cache cells account for
	// the reads the cache absorbed. Both stay zero without a cache.
	CacheHits, CacheMisses int64
	// ResultCacheHit reports that the entire ranked result was served from
	// the cache: no tree traversal, no TIA probes.
	ResultCacheHit bool
}

// NodeAccesses returns R-tree plus logical TIA accesses, the total the
// experiment figures report.
func (s QueryStats) NodeAccesses() int64 {
	return int64(s.InternalAccesses+s.LeafAccesses) + s.TIAAccesses
}

// RTreeAccesses returns only the R-tree node accesses.
func (s QueryStats) RTreeAccesses() int { return s.InternalAccesses + s.LeafAccesses }

// Merge accumulates another query's counters (and I/O breakdown) into s,
// for batch executors that report one aggregate QueryStats.
func (s *QueryStats) Merge(o *QueryStats) {
	s.InternalAccesses += o.InternalAccesses
	s.LeafAccesses += o.LeafAccesses
	s.TIAAccesses += o.TIAAccesses
	s.TIAPhysical += o.TIAPhysical
	s.Scored += o.Scored
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.ResultCacheHit = s.ResultCacheHit || o.ResultCacheHit
	s.IO.Add(&o.IO)
}

// aggKey identifies a cached TIA aggregate.
type aggKey struct {
	idx tia.Index
	iv  tia.Interval
}

// AggCache memoizes TIA aggregates per (index, interval). The collective
// processing scheme of Section 7.2 shares one cache among the queries of a
// batch that have the same query time interval.
type AggCache map[aggKey]int64

// sharedAggKey identifies a memoized TIA aggregate in the shared
// epoch-versioned cache. It embeds the matching semantics and aggregate
// function so trees with different options can share one cache.
type sharedAggKey struct {
	tia uint64 // process-unique aggData identity
	iv  tia.Interval
	sem tia.Semantics
	fn  tia.Func
}

// aggCacheProbeTag and resultCacheTag attribute shared-cache lookups in the
// per-query I/O breakdown: level 0 is an aggregate probe, level 1 a
// whole-result lookup.
var (
	aggCacheProbeTag = pagestore.NewIOTag(pagestore.CompAggCache, 0)
	resultCacheTag   = pagestore.NewIOTag(pagestore.CompAggCache, 1)
)

// aggValueBytes is the budget charge for one cached aggregate: the boxed
// int64 plus the key struct.
const aggValueBytes = 48

// sharedAggHash routes k to its cache shard.
func sharedAggHash(k sharedAggKey) uint64 {
	h := aggcache.Mix(aggcache.Seed, k.tia)
	h = aggcache.Mix(h, uint64(k.iv.Start))
	h = aggcache.Mix(h, uint64(k.iv.End))
	h = aggcache.Mix(h, uint64(k.sem))
	return aggcache.Mix(h, uint64(k.fn))
}

// Scorer computes query-dependent ranking scores of tree entries. A Scorer
// is bound to one query (point, interval, weights) and one stats sink.
type Scorer struct {
	t     *Tree
	q     Query
	qv    geo.Vector // scaled query point
	gmax  float64    // aggregate normalizer (per-query constant)
	stats *QueryStats
	// acct is the query-local I/O accounting context threaded through
	// every TIA probe. Its breakdown pointer aims at stats.IO, so the
	// buffer layer writes the query's attributed traffic directly into
	// the caller's QueryStats without touching shared counters.
	acct  pagestore.IOAcct
	cache AggCache
	// shared is the tree's epoch-versioned cross-query cache, consulted
	// after the query-local memo and before the TIA backend. Nil when the
	// tree has no cache or the search opted out.
	shared *aggcache.Cache
	trace  *obs.Trace // nil when tracing is off
	// explain, when non-nil, receives the scorer's probe attribution (TIA
	// reads, cache hits/misses) for EXPLAIN/ANALYZE. Nil costs one pointer
	// test per probe.
	explain *Explain
}

// sharedGet probes the cross-query cache for d's aggregate over the query
// interval, recording the probe in the stats (hit/miss counters and the
// agg-cache I/O cell).
func (sc *Scorer) sharedGet(d *aggData) (int64, bool) {
	if sc.shared == nil {
		return 0, false
	}
	k := sharedAggKey{tia: d.id, iv: sc.q.Iq, sem: sc.t.opts.Semantics, fn: sc.t.opts.AggFunc}
	v, ok := sc.shared.Get(sharedAggHash(k), k)
	sc.explain.recordCacheProbe(ok)
	if sc.stats != nil {
		sc.stats.IO.AddRead(aggCacheProbeTag, ok)
		if ok {
			sc.stats.CacheHits++
		} else {
			sc.stats.CacheMisses++
		}
	}
	if !ok {
		return 0, false
	}
	return v.(int64), true
}

// sharedPut stores a freshly computed aggregate in the cross-query cache.
func (sc *Scorer) sharedPut(d *aggData, a int64) {
	if sc.shared == nil {
		return
	}
	k := sharedAggKey{tia: d.id, iv: sc.q.Iq, sem: sc.t.opts.Semantics, fn: sc.t.opts.AggFunc}
	sc.shared.Put(sharedAggHash(k), k, a, aggValueBytes)
}

// acctPtr returns the scorer's accounting context, or nil when the scorer
// collects no stats (probes then run unattributed).
func (sc *Scorer) acctPtr() *pagestore.IOAcct {
	if sc.stats == nil {
		return nil
	}
	return &sc.acct
}

// NewScorer prepares a scorer for q, reading the per-query aggregate
// normalizer from the tree's global per-epoch-maximum TIA.
func (t *Tree) NewScorer(q Query, stats *QueryStats, cache AggCache) (*Scorer, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return t.newScorer(q, SearchOptions{Stats: stats, Cache: cache})
}

// newScorer is the one Scorer constructor. It takes the stats sink, the
// query-local memo (a fresh one when nil), the trace and explain recorders
// and the shared-cache opt-out from o, and uses o.Gmax as the normalizer
// when set, otherwise reads it (counting the read into the stats). It does
// not validate q.
func (t *Tree) newScorer(q Query, o SearchOptions) (*Scorer, error) {
	if o.Cache == nil {
		o.Cache = make(AggCache)
	}
	sc := &Scorer{
		t:       t,
		q:       q,
		qv:      t.scaled(q.X, q.Y),
		stats:   o.Stats,
		cache:   o.Cache,
		trace:   o.Trace,
		explain: o.Explain,
	}
	if !o.NoCache {
		sc.shared = t.opts.Cache
	}
	if o.Stats != nil {
		sc.acct.IO = &o.Stats.IO
	}
	if o.Gmax != nil {
		sc.gmax = *o.Gmax
		return sc, nil
	}
	gmax, err := sc.maxAggregate()
	if err != nil {
		return nil, err
	}
	sc.gmax = float64(gmax)
	return sc, nil
}

// maxAggregate reads the normalization range of g(p, Iq) from the tree's
// global per-epoch-maximum TIA: the sum of the global epoch maxima over the
// interval, an upper bound on every POI's aggregate that is independent of
// the grouping strategy (so all index variants rank identically). The read
// counts toward the query's TIA accesses.
func (sc *Scorer) maxAggregate() (int64, error) {
	g := sc.t.global
	key := aggKey{idx: g.disk, iv: sc.q.Iq}
	if v, ok := sc.cache[key]; ok {
		return v, nil
	}
	if v, ok := sc.sharedGet(g); ok {
		sc.cache[key] = v
		return v, nil
	}
	if sc.trace != nil {
		defer sc.trace.StartSpan("gmax")()
	}
	before := sc.acct.Stats
	a, err := g.disk.AggregateAcct(sc.q.Iq, sc.t.opts.Semantics, sc.t.opts.AggFunc, sc.acctPtr())
	if err != nil {
		return 0, err
	}
	if sc.stats != nil {
		delta := sc.acct.Stats.Sub(before)
		sc.stats.TIAAccesses += delta.LogicalReads
		sc.stats.TIAPhysical += delta.PhysicalReads
		sc.explain.recordProbe(delta.LogicalReads, delta.PhysicalReads)
	}
	sc.cache[key] = a
	sc.sharedPut(g, a)
	return a, nil
}

// Query returns the query the scorer is bound to.
func (sc *Scorer) Query() Query { return sc.q }

// Gmax returns the per-query aggregate normalizer (0 when no check-in falls
// inside the interval anywhere).
func (sc *Scorer) Gmax() float64 { return sc.gmax }

// aggregate reads (and caches) the entry's TIA aggregate over the query
// interval, counting physical TIA page reads.
func (sc *Scorer) aggregate(e rstar.Entry) (int64, error) {
	d := e.Data.(*aggData)
	key := aggKey{idx: d.disk, iv: sc.q.Iq}
	if v, ok := sc.cache[key]; ok {
		return v, nil
	}
	if v, ok := sc.sharedGet(d); ok {
		sc.cache[key] = v
		return v, nil
	}
	var begin time.Time
	if sc.trace != nil {
		begin = time.Now()
	}
	before := sc.acct.Stats
	a, err := d.disk.AggregateAcct(sc.q.Iq, sc.t.opts.Semantics, sc.t.opts.AggFunc, sc.acctPtr())
	if err != nil {
		return 0, err
	}
	if sc.trace != nil {
		sc.trace.Observe("tia_probe", time.Since(begin))
	}
	if sc.stats != nil {
		delta := sc.acct.Stats.Sub(before)
		sc.stats.TIAAccesses += delta.LogicalReads
		sc.stats.TIAPhysical += delta.PhysicalReads
		sc.stats.Scored++
		sc.explain.recordProbe(delta.LogicalReads, delta.PhysicalReads)
	}
	sc.cache[key] = a
	sc.sharedPut(d, a)
	return a, nil
}

// Components returns the two score components of an entry: the normalized
// spatial distance lower bound s0 and the aggregate term lower bound s1 =
// 1 − g/Gmax. For leaf entries both are exact. Property 1 guarantees
// α0·s0 + α1·s1 never exceeds the score of anything in the subtree.
func (sc *Scorer) Components(e rstar.Entry) (s0, s1 float64, err error) {
	s0 = geo.MinDist(sc.qv, e.Rect, 2) / sc.t.maxDistScaled
	a, err := sc.aggregate(e)
	if err != nil {
		return 0, 0, err
	}
	if sc.gmax > 0 {
		s1 = 1 - float64(a)/sc.gmax
	} else {
		s1 = 1
	}
	return s0, s1, nil
}

// Score combines the components with the query weights.
func (sc *Scorer) Score(s0, s1 float64) float64 {
	return sc.q.Alpha0*s0 + (1-sc.q.Alpha0)*s1
}

// resultOf builds a Result for a popped leaf entry.
func (sc *Scorer) resultOf(e rstar.Entry, s0, s1 float64) Result {
	st := sc.t.pois[int64(e.Item)]
	var agg int64
	if sc.gmax > 0 {
		agg = int64((1-s1)*sc.gmax + 0.5)
	}
	return Result{
		POI:   st.poi,
		Score: sc.Score(s0, s1),
		S0:    s0,
		S1:    s1,
		Agg:   agg,
	}
}

// Elem is one element of the best-first priority queue: an entry with its
// (lower-bound) score and components.
type Elem struct {
	Entry      rstar.Entry
	Score      float64
	S0, S1     float64
	childLevel int   // level of the child node; -1 for leaf entries
	child      int32 // child node id in the flat layout; -1 for leaf entries
}

// IsPOI reports whether the element is a leaf entry (an actual POI).
func (el *Elem) IsPOI() bool { return el.child < 0 }

// Child returns the flat-layout id and level of an internal element's child
// node (id -1 for POIs). Searches started on the same tree state share one
// layout, so the collective scheme compares ids across them to detect
// shared front entries.
func (el *Elem) Child() (id int32, level int) { return el.child, el.childLevel }

type elemHeap []*Elem

func (h elemHeap) Len() int           { return len(h) }
func (h elemHeap) Less(i, j int) bool { return h[i].Score < h[j].Score }
func (h elemHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *elemHeap) Push(x any)        { *h = append(*h, x.(*Elem)) }
func (h *elemHeap) Pop() any          { o := *h; n := len(o); x := o[n-1]; *h = o[:n-1]; return x }

// Search is an incremental best-first search over the TAR-tree (Section
// 4.3, after Hjaltason & Samet). Pop returns queue elements in ascending
// score order; the caller decides whether to Expand internal elements,
// which lets the weight-adjustment and skyline algorithms prune subtrees.
//
// The search walks the tree's flat layout (Tree.Freeze), compiled on demand
// and fixed when the search starts: expansion reads int32 offsets into
// contiguous slabs instead of chasing node pointers.
type Search struct {
	sc            *Scorer
	queue         elemHeap
	stats         *QueryStats
	ft            *rstar.FlatTree
	trace         *obs.Trace
	explain       *Explain        // nil when EXPLAIN is off
	ctx           context.Context // nil = never canceled
	countAccesses bool
}

// SearchOptions tunes NewSearchWith.
type SearchOptions struct {
	Stats *QueryStats
	Cache AggCache
	// Gmax supplies a precomputed aggregate normalizer; nil computes it
	// with a branch-and-bound descent. The collective scheme computes it
	// once per query-interval group.
	Gmax *float64
	// SkipAccessCounting suppresses node-access counting in Expand and on
	// the root read; batch processors that share node accesses across
	// queries account for them externally.
	SkipAccessCounting bool
	// Trace, when non-nil, records timed spans of the search: the gmax
	// normalizer read, queue pops, node expansions and TIA probes. A nil
	// trace costs one pointer test per instrumented site.
	Trace *obs.Trace
	// NoCache bypasses the tree's shared epoch-versioned cache
	// (Options.Cache) for this search: no lookups, no stores.
	NoCache bool
	// Explain, when non-nil, records the search forensics (pops, node
	// accesses by level, heap high-water mark, probe attribution) into the
	// recorder. A nil recorder costs one pointer test per site.
	Explain *Explain
	// Ctx, when non-nil, is polled on every best-first pop; once canceled
	// or past its deadline, Next returns an error wrapping ErrCanceled and
	// the stats collected so far remain valid partial counts.
	Ctx context.Context
}

// NewSearch starts a best-first search for q. Reading the root node counts
// as one internal node access.
func (t *Tree) NewSearch(q Query, stats *QueryStats, cache AggCache) (*Search, error) {
	return t.NewSearchWith(q, SearchOptions{Stats: stats, Cache: cache})
}

// NewSearchWith starts a best-first search with explicit options.
func (t *Tree) NewSearchWith(q Query, o SearchOptions) (*Search, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	sc, err := t.newScorer(q, o)
	if err != nil {
		return nil, err
	}
	s := &Search{sc: sc, stats: o.Stats, ft: t.flat(), trace: o.Trace, explain: o.Explain, ctx: o.Ctx, countAccesses: !o.SkipAccessCounting}
	if err := s.open(0); err != nil {
		return nil, err
	}
	return s, nil
}

// countNodeAccess records one R-tree node read at the given level into the
// query stats (unless access counting is off) and the explain recorder.
func (s *Search) countNodeAccess(level int) {
	if s.countAccesses && s.stats != nil {
		if level == 0 {
			s.stats.LeafAccesses++
			s.stats.IO.AddRead(pagestore.NewIOTag(pagestore.CompRTreeLeaf, 0), true)
		} else {
			s.stats.InternalAccesses++
			s.stats.IO.AddRead(pagestore.NewIOTag(pagestore.CompRTreeInternal, level), true)
		}
	}
	s.explain.recordNodeAccess(level)
}

// MaxAggregate reads the normalization range for iv (the sum of the global
// per-epoch maxima over the interval), counting its accesses into stats.
// The collective scheme calls it once per query-interval group.
func (t *Tree) MaxAggregate(iv tia.Interval, stats *QueryStats, cache AggCache) (int64, error) {
	// Only Iq matters for aggregation; other fields are placeholders.
	sc, err := t.newScorer(Query{Iq: iv, K: 1, Alpha0: 0.5}, SearchOptions{Stats: stats, Cache: cache})
	if err != nil {
		return 0, err
	}
	// Exact: the normalizer is a check-in count, far below 2^53.
	return int64(sc.gmax), nil
}

// Scorer returns the search's scorer.
func (s *Search) Scorer() *Scorer { return s.sc }

// open reads flat node id — one node access — and scores and enqueues each
// of its entries, a contiguous run of the slabs.
func (s *Search) open(id int32) error {
	n := s.ft.Nodes[id]
	s.countNodeAccess(int(n.Level))
	for eid := n.Start; eid < n.Start+n.Count; eid++ {
		if err := s.push(eid); err != nil {
			return err
		}
	}
	return nil
}

// push scores and enqueues entry eid of the flat layout.
func (s *Search) push(eid int32) error {
	e := s.ft.EntryAt(eid)
	s0, s1, err := s.sc.Components(e)
	if err != nil {
		return err
	}
	el := &Elem{Entry: e, S0: s0, S1: s1, Score: s.sc.Score(s0, s1), childLevel: -1, child: s.ft.Children[eid]}
	if el.child >= 0 {
		el.childLevel = int(s.ft.Nodes[el.child].Level)
	}
	heap.Push(&s.queue, el)
	s.explain.recordPush(len(s.queue))
	return nil
}

// Peek returns the least-score element without removing it, or nil when
// the queue is empty.
func (s *Search) Peek() *Elem {
	if len(s.queue) == 0 {
		return nil
	}
	return s.queue[0]
}

// Pop removes and returns the least-score element, or nil when exhausted.
func (s *Search) Pop() *Elem {
	if len(s.queue) == 0 {
		return nil
	}
	if s.trace != nil {
		defer s.trace.StartSpan("queue_pop")()
	}
	el := heap.Pop(&s.queue).(*Elem)
	s.explain.recordPop(el, len(s.queue))
	return el
}

// Expand pushes the children of an internal element, counting one node
// access (unless SkipAccessCounting). The traced "expand" span covers the
// R-tree descent including the scoring of the child entries, so the nested
// "tia_probe" time is a subset of it.
func (s *Search) Expand(el *Elem) error {
	if el.child < 0 {
		return nil
	}
	if s.trace != nil {
		defer s.trace.StartSpan("expand")()
	}
	return s.open(el.child)
}

// Next runs the search until the next POI emerges, returning nil when the
// tree is exhausted.
func (s *Search) Next() (*Result, error) {
	for {
		if s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCanceled, err)
			}
		}
		el := s.Pop()
		if el == nil {
			return nil, nil
		}
		if el.IsPOI() {
			r := s.sc.resultOf(el.Entry, el.S0, el.S1)
			return &r, nil
		}
		if err := s.Expand(el); err != nil {
			return nil, err
		}
	}
}

// Result converts a POI element into a Result.
func (s *Search) Result(el *Elem) Result {
	return s.sc.resultOf(el.Entry, el.S0, el.S1)
}

// Query answers a kNNTA query with best-first search and returns the top-k
// results in ascending score order together with the work counters. On an
// instrumented tree (Options.Metrics) the query also feeds the latency
// histogram and work counters of the registry.
//
// Deprecated: Query is QueryCtx(context.Background(), q, nil); new code
// should call QueryCtx.
func (t *Tree) Query(q Query) ([]Result, QueryStats, error) {
	return t.QueryCtx(context.Background(), q, nil)
}

// QueryTraced is Query with an optional per-query trace: when tr is
// non-nil, the search records timed spans (gmax read, queue pops, node
// expansions, TIA probes) into it. A nil trace is free. On a tree with a
// trace ring (Options.Traces) every query — traced or not — is recorded
// into the ring with its I/O breakdown.
//
// Deprecated: QueryTraced is QueryCtx(context.Background(), q,
// &QueryOpts{Trace: tr}); new code should call QueryCtx.
func (t *Tree) QueryTraced(q Query, tr *obs.Trace) ([]Result, QueryStats, error) {
	return t.QueryCtx(context.Background(), q, &QueryOpts{Trace: tr})
}

// describeQuery renders a query compactly for trace records and logs.
func describeQuery(q Query) string {
	return fmt.Sprintf("knnta(x=%g, y=%g, k=%d, a0=%g, iq=[%d,%d))",
		q.X, q.Y, q.K, q.Alpha0, q.Iq.Start, q.Iq.End)
}

// IOLines converts a breakdown into the neutral rows obs stores (obs is
// dependency-free, so it cannot see pagestore types). Exported so servers
// can render a query's attribution without depending on the array layout.
func IOLines(b *pagestore.IOBreakdown) []obs.IOLine {
	var out []obs.IOLine
	b.Each(func(c pagestore.Component, level int, cell pagestore.IOCell) {
		out = append(out, obs.IOLine{
			Component: c.String(),
			Level:     level,
			Hits:      cell.Hits,
			Misses:    cell.Misses,
			Evictions: cell.Evictions,
		})
	})
	return out
}

// ScorePOI computes the exact ranking score of one POI for q (from the
// in-memory mirror; no disk accesses). Tests and the sequential-scan
// baseline use it.
func (t *Tree) ScorePOI(q Query, id int64) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	st, ok := t.pois[id]
	if !ok {
		return Result{}, errUnknownPOI(id)
	}
	gmax, err := t.gmaxMirror(q.Iq)
	if err != nil {
		return Result{}, err
	}
	return t.scorePOIWith(q, st, gmax)
}

func (t *Tree) scorePOIWith(q Query, st *poiState, gmax float64) (Result, error) {
	agg, err := st.data.mirror.AggregateFunc(q.Iq, t.opts.Semantics, t.opts.AggFunc)
	if err != nil {
		return Result{}, err
	}
	qv := t.scaled(q.X, q.Y)
	s0 := geo.Dist(qv, st.loc, 2) / t.maxDistScaled
	s1 := 1.0
	if gmax > 0 {
		s1 = 1 - float64(agg)/gmax
	}
	return Result{
		POI:   st.poi,
		Score: q.Alpha0*s0 + (1-q.Alpha0)*s1,
		S0:    s0,
		S1:    s1,
		Agg:   agg,
	}, nil
}

// gmaxMirror computes the per-query aggregate normalizer from the global
// TIA's in-memory mirror (no disk accesses). It equals the Scorer's Gmax.
func (t *Tree) gmaxMirror(iv tia.Interval) (float64, error) {
	a, err := t.global.mirror.AggregateFunc(iv, t.opts.Semantics, t.opts.AggFunc)
	return float64(a), err
}

type errUnknownPOI int64

func (e errUnknownPOI) Error() string { return "core: unknown POI" }
