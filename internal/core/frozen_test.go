package core

import (
	"container/heap"
	"context"
	"reflect"
	"testing"

	"tartree/internal/rstar"
	"tartree/internal/tia"
)

// frozenTestQueries covers a selective top-k, an exhaustive drain and two
// weight extremes (near-pure-distance and near-pure-aggregate ranking).
func frozenTestQueries(tr *Tree) []Query {
	return []Query{
		{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: 25, Alpha0: 0.5},
		{X: 12, Y: 88, Iq: tia.Interval{Start: 100, End: 400}, K: 10, Alpha0: 0.9},
		{X: 97, Y: 3, Iq: tia.Interval{Start: 200, End: 300}, K: 40, Alpha0: 0.1},
		exhaustiveQuery(tr),
	}
}

// refElem and refHeap are the priority queue of the reference walk. The
// heap orders by score alone, exactly as the search's queue does, so equal
// push sequences give equal pop sequences, ties included.
type refElem struct {
	e             rstar.Entry
	s0, s1, score float64
}

type refHeap []refElem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].score < h[j].score }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refElem)) }
func (h *refHeap) Pop() any          { o := *h; n := len(o); x := o[n-1]; *h = o[:n-1]; return x }

// refRun is everything the reference walk observed.
type refRun struct {
	results  []Result
	stats    QueryStats // the scorer's tallies: Scored and TIA reads
	byLevel  []int64    // node accesses by level, root included
	popLog   []ExplainPop
	pops     int
	heapMax  int
	frontier int
}

// referenceSearch is a compact best-first top-k walk over the pointer
// R-tree (Section 4.3): read the root, then pop the least-bound entry,
// emitting POIs and opening nodes, until k POIs are out.
func referenceSearch(t *testing.T, tr *Tree, q Query) refRun {
	t.Helper()
	var r refRun
	sc, err := tr.NewScorer(q, &r.stats, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := &refHeap{}
	open := func(n *rstar.Node) {
		for len(r.byLevel) <= n.Level {
			r.byLevel = append(r.byLevel, 0)
		}
		r.byLevel[n.Level]++
		for _, e := range n.Entries {
			s0, s1, err := sc.Components(e)
			if err != nil {
				t.Fatal(err)
			}
			heap.Push(h, refElem{e: e, s0: s0, s1: s1, score: sc.Score(s0, s1)})
			r.heapMax = max(r.heapMax, h.Len())
		}
	}
	open(tr.Root())
	for len(r.results) < q.K && h.Len() > 0 {
		el := heap.Pop(h).(refElem)
		r.pops++
		p := ExplainPop{Seq: r.pops, Level: -1, Bound: el.score, S0: el.s0, S1: el.s1, HeapLen: h.Len()}
		if el.e.Child == nil {
			p.POI = int64(el.e.Item)
			r.results = append(r.results, sc.resultOf(el.e, el.s0, el.s1))
		} else {
			p.Level = el.e.Child.Level
			open(el.e.Child)
		}
		if len(r.popLog) < ExplainMaxPops {
			r.popLog = append(r.popLog, p)
		}
	}
	r.frontier = h.Len()
	return r
}

// TestFrozenSearchEquivalence pins the search, which walks the flat
// layout, to the reference best-first walk over the pointer tree: for
// every grouping × TIA backend, the same query returns identical results,
// per-level node accesses, scored entries, TIA logical and physical reads,
// pop-by-pop log, heap high-water mark and frontier size. Two twin trees
// are used, rather than one tree queried twice, because the TIA buffers
// retain state across queries — the twins guarantee both walks see the
// same cold/warm buffer sequence.
func TestFrozenSearchEquivalence(t *testing.T) {
	for _, g := range []Grouping{TAR3D, IndSpa, IndAgg} {
		for name, newFac := range explainBackends() {
			t.Run(g.String()+"/"+name, func(t *testing.T) {
				pointer := buildAccountingTreeOpts(t, explainTreeOpts(g, newFac()))
				flat := buildAccountingTreeOpts(t, explainTreeOpts(g, newFac()))
				for qi, q := range frozenTestQueries(pointer) {
					ref := referenceSearch(t, pointer, q)
					ex := NewExplain()
					res, stats, err := flat.QueryCtx(context.Background(), q, &QueryOpts{Explain: ex})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res, ref.results) {
						t.Fatalf("query %d: results differ from the reference walk", qi)
					}
					if !reflect.DeepEqual(ex.NodeAccessesByLevel, ref.byLevel) {
						t.Fatalf("query %d: per-level accesses %v, reference %v", qi, ex.NodeAccessesByLevel, ref.byLevel)
					}
					var internal int64
					for _, n := range ref.byLevel[1:] {
						internal += n
					}
					if int64(stats.LeafAccesses) != ref.byLevel[0] || int64(stats.InternalAccesses) != internal {
						t.Fatalf("query %d: leaf/internal accesses %d/%d, reference %d/%d",
							qi, stats.LeafAccesses, stats.InternalAccesses, ref.byLevel[0], internal)
					}
					if stats.Scored != ref.stats.Scored {
						t.Fatalf("query %d: scored %d, reference %d", qi, stats.Scored, ref.stats.Scored)
					}
					if stats.TIAAccesses != ref.stats.TIAAccesses || stats.TIAPhysical != ref.stats.TIAPhysical {
						t.Fatalf("query %d: TIA reads %d/%d physical, reference %d/%d",
							qi, stats.TIAAccesses, stats.TIAPhysical, ref.stats.TIAAccesses, ref.stats.TIAPhysical)
					}
					if ex.Pops != ref.pops || ex.HeapMax != ref.heapMax || ex.FrontierSize != ref.frontier {
						t.Fatalf("query %d: pops %d heapMax %d frontier %d, reference %d %d %d",
							qi, ex.Pops, ex.HeapMax, ex.FrontierSize, ref.pops, ref.heapMax, ref.frontier)
					}
					if !reflect.DeepEqual(ex.PopLog, ref.popLog) {
						t.Fatalf("query %d: pop order diverges from the reference walk", qi)
					}
				}
			})
		}
	}
}

// TestIndexBytes: the flat layout must be the smaller representation.
func TestIndexBytes(t *testing.T) {
	tr := buildAccountingTreeOpts(t, explainTreeOpts(TAR3D, tia.NewMemFactory()))
	ptr, flat := tr.IndexBytes()
	if ptr <= 0 || flat != 0 {
		t.Fatalf("before freeze: pointer=%d flat=%d", ptr, flat)
	}
	tr.Freeze()
	ptr, flat = tr.IndexBytes()
	if flat <= 0 || flat >= ptr {
		t.Fatalf("after freeze: flat=%d not in (0, pointer=%d)", flat, ptr)
	}
}

// BenchmarkQueryPath times the top-k query on a deterministic tree and
// query mix.
func BenchmarkQueryPath(b *testing.B) {
	tr := buildAccountingTreeOpts(b, explainTreeOpts(TAR3D, tia.NewMemFactory()))
	tr.Freeze()
	q := Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 600}, K: 25, Alpha0: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tr.QueryCtx(context.Background(), q, nil); err != nil {
			b.Fatal(err)
		}
	}
}
