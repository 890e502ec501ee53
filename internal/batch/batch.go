// Package batch implements the collective query processing scheme of
// Section 7.2: a batch of kNNTA queries runs best-first searches over c
// priority queues, and at each step the node that is the front entry of the
// most queues is accessed once and shared by all of them. Queries with the
// same query time interval additionally share the aggregate computation on
// the TIAs (one aggregate cache and one normalization read per interval
// group), mirroring the paper's observation that applications offer only a
// few interval presets.
package batch

import (
	"context"
	"runtime"
	"sync"

	"tartree/internal/core"
	"tartree/internal/tia"
)

// Result pairs a query with its top-k answers.
type Result struct {
	Query   core.Query
	Results []core.Result
}

// runState tracks one query's progress through the shared traversal.
type runState struct {
	q       core.Query
	search  *core.Search
	results []core.Result
	done    bool
}

func (st *runState) finished() bool { return st.done || len(st.results) >= st.q.K }

// drainPOIs pops every leading POI element off the queue into the results
// (POIs are free: no node access is needed to consume a leaf entry).
func (st *runState) drainPOIs() {
	for !st.finished() {
		el := st.search.Peek()
		if el == nil {
			st.done = true
			return
		}
		if !el.IsPOI() {
			return
		}
		st.search.Pop()
		st.results = append(st.results, st.search.Result(el))
	}
}

// Process answers the batch collectively and returns per-query results plus
// the shared work counters.
func Process(t *core.Tree, queries []core.Query) ([]Result, core.QueryStats, error) {
	var stats core.QueryStats
	states := make([]*runState, len(queries))

	// Group queries by time interval: one aggregate cache and one
	// normalization constant per group.
	type group struct {
		cache core.AggCache
		gmax  float64
	}
	groups := map[tia.Interval]*group{}
	rootCounted := false
	for i, q := range queries {
		g, ok := groups[q.Iq]
		if !ok {
			cache := make(core.AggCache)
			gm, err := t.MaxAggregate(q.Iq, &stats, cache)
			if err != nil {
				return nil, stats, err
			}
			g = &group{cache: cache, gmax: float64(gm)}
			groups[q.Iq] = g
		}
		s, err := t.NewSearchWith(q, core.SearchOptions{
			Stats:              &stats,
			Cache:              g.cache,
			Gmax:               &g.gmax,
			SkipAccessCounting: true,
		})
		if err != nil {
			return nil, stats, err
		}
		if !rootCounted {
			// The root is read once for the whole batch.
			countNode(&stats, t.Height()-1)
			rootCounted = true
		}
		states[i] = &runState{q: q, search: s}
	}

	active := len(states)
	for _, st := range states {
		st.drainPOIs()
		if st.finished() {
			active--
		}
	}
	for active > 0 {
		// Greedy step: find the node that is the front entry of the most
		// queues (Section 7.2), access it once and advance all of them.
		// Every search walks the same flat layout, so node ids identify
		// nodes across queues.
		freq := map[int32]int{}
		best, bestLevel := int32(-1), 0
		for _, st := range states {
			if st.finished() {
				continue
			}
			id, level := st.search.Peek().Child()
			freq[id]++
			if best < 0 || freq[id] > freq[best] {
				best, bestLevel = id, level
			}
		}
		if best < 0 {
			break
		}
		countNode(&stats, bestLevel)
		for _, st := range states {
			if st.finished() {
				continue
			}
			el := st.search.Peek()
			if id, _ := el.Child(); id == best {
				st.search.Pop()
				if err := st.search.Expand(el); err != nil {
					return nil, stats, err
				}
			}
			st.drainPOIs()
			if st.finished() {
				active--
			}
		}
	}

	out := make([]Result, len(states))
	for i, st := range states {
		out[i] = Result{Query: st.q, Results: st.results}
	}
	return out, stats, nil
}

// ProcessParallel answers the batch with a worker pool: queries are grouped
// by time interval, each group runs the collective scheme of Process on one
// worker, and up to `workers` groups execute concurrently (workers <= 0
// means GOMAXPROCS). Shared-node-access semantics are preserved *within* a
// group — exactly the sharing Process would find, since queries in different
// interval groups never share an aggregate cache anyway. Results come back
// in input order and the returned stats are the merged per-group counters,
// so the totals are identical to running each group through Process
// serially, regardless of worker count.
func ProcessParallel(t *core.Tree, queries []core.Query, workers int) ([]Result, core.QueryStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Group queries by interval, remembering each query's original index.
	type group struct {
		queries []core.Query
		idx     []int
	}
	groups := map[tia.Interval]*group{}
	var order []*group // deterministic iteration: first-appearance order
	for i, q := range queries {
		g, ok := groups[q.Iq]
		if !ok {
			g = &group{}
			groups[q.Iq] = g
			order = append(order, g)
		}
		g.queries = append(g.queries, q)
		g.idx = append(g.idx, i)
	}

	out := make([]Result, len(queries))
	perGroup := make([]core.QueryStats, len(order))
	errs := make([]error, len(order))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for gi, g := range order {
		wg.Add(1)
		go func(gi int, g *group) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, stats, err := Process(t, g.queries)
			perGroup[gi] = stats
			if err != nil {
				errs[gi] = err
				return
			}
			for j, r := range res {
				out[g.idx[j]] = r // disjoint indices: no two groups share a slot
			}
		}(gi, g)
	}
	wg.Wait()

	var total core.QueryStats
	for gi := range perGroup {
		total.Merge(&perGroup[gi])
	}
	for _, err := range errs {
		if err != nil {
			return nil, total, err
		}
	}
	return out, total, nil
}

func countNode(stats *core.QueryStats, level int) {
	if level == 0 {
		stats.LeafAccesses++
	} else {
		stats.InternalAccesses++
	}
}

// ProcessIndividually answers the batch one query at a time with the plain
// best-first search — the baseline the paper compares against (with the
// TIAs unbuffered to expose the effect of memory buffering, which callers
// arrange via the TIA factory). It takes any Querier, so the baseline can
// run against a local tree, a WAL store, a remote server or a shard
// coordinator unchanged.
func ProcessIndividually(src core.Querier, queries []core.Query) ([]Result, core.QueryStats, error) {
	var total core.QueryStats
	out := make([]Result, len(queries))
	for i, q := range queries {
		res, stats, err := src.QueryCtx(context.Background(), q, nil)
		if err != nil {
			return nil, total, err
		}
		out[i] = Result{Query: q, Results: res}
		total.Merge(&stats)
	}
	return out, total, nil
}
