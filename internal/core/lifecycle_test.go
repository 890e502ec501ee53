package core_test

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/obs"
	"tartree/internal/seqscan"
	"tartree/internal/tia"
)

// lifecycleTree is a TAR-tree together with the histories it was fed, so
// the sequential-scan oracle can be rebuilt for the tree's current state.
type lifecycleTree struct {
	*core.Tree
	world geo.Rect
	pois  map[int64]core.POI
	hist  map[int64][]tia.Record
	reg   *obs.Registry
}

// newLifecycleTree builds a 20×20 grid of POIs with deterministic
// histories over six 100-unit epochs, on an instrumented tree so the
// tests can count flat compiles.
func newLifecycleTree(t *testing.T) *lifecycleTree {
	t.Helper()
	lt := &lifecycleTree{
		world: geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		pois:  map[int64]core.POI{},
		hist:  map[int64][]tia.Record{},
		reg:   obs.NewRegistry(),
	}
	tr, err := core.NewTree(core.Options{
		World:       lt.world,
		NodeSize:    256,
		Grouping:    core.TAR3D,
		EpochLength: 100,
		TIA:         tia.NewMemFactory(),
		Metrics:     lt.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	lt.Tree = tr
	id := int64(0)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			id++
			var hist []tia.Record
			for e := int64(0); e < 6; e++ {
				hist = append(hist, tia.Record{Ts: e * 100, Te: (e + 1) * 100, Agg: (id+e)%5 + 1})
			}
			lt.insert(t, core.POI{ID: id, X: float64(i*5 + 2), Y: float64(j*5 + 2)}, hist)
		}
	}
	return lt
}

func (lt *lifecycleTree) insert(t *testing.T, p core.POI, hist []tia.Record) {
	t.Helper()
	if err := lt.InsertPOI(p, hist); err != nil {
		t.Fatal(err)
	}
	lt.pois[p.ID] = p
	lt.hist[p.ID] = hist
}

// freezes returns how many flat compiles the tree has run.
func (lt *lifecycleTree) freezes() int64 {
	return lt.reg.Counter("tartree_freezes_total").Value()
}

var lifecycleQuery = core.Query{X: 50, Y: 50, Iq: tia.Interval{Start: 0, End: 700}, K: 15, Alpha0: 0.5}

// checkAgainstScan runs the query and requires the sequential-scan top-k
// scores over the tree's current POIs and histories.
func (lt *lifecycleTree) checkAgainstScan(t *testing.T, stage string) {
	t.Helper()
	scan := seqscan.New(lt.world, tia.Contained)
	for id, p := range lt.pois {
		scan.Add(p, lt.hist[id])
	}
	want, err := scan.Query(lifecycleQuery)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := lt.QueryCtx(context.Background(), lifecycleQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, scan has %d", stage, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("%s: rank %d score %.12f, scan %.12f", stage, i, got[i].Score, want[i].Score)
		}
	}
}

// TestFreezeLifecycle: structural mutations drop the flat layout and the
// next query recompiles it exactly once; check-in ingest keeps it (the flat
// entries share the aggregate handles), and every answer on the way
// matches the sequential scan.
func TestFreezeLifecycle(t *testing.T) {
	lt := newLifecycleTree(t)
	if lt.Frozen() {
		t.Fatal("building by InsertPOI left a flat layout installed")
	}
	lt.checkAgainstScan(t, "first query")
	if !lt.Frozen() || lt.freezes() != 1 {
		t.Fatalf("first query: frozen=%v after %d compiles, want one", lt.Frozen(), lt.freezes())
	}
	lt.checkAgainstScan(t, "second query")
	if lt.freezes() != 1 {
		t.Fatalf("an unmutated tree was recompiled (%d compiles)", lt.freezes())
	}

	// Ingest through the flat layout: the flushed epoch must be visible
	// without a recompile because structure did not change.
	for i := 0; i < 50; i++ {
		if err := lt.AddCheckIn(int64(1+i%7), 610); err != nil {
			t.Fatal(err)
		}
	}
	if err := lt.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 7; id++ {
		n := int64(50 / 7)
		if id <= 50%7 {
			n++
		}
		lt.hist[id] = append(lt.hist[id], tia.Record{Ts: 600, Te: 700, Agg: n})
	}
	if !lt.Frozen() {
		t.Fatal("check-in ingest dropped the flat layout")
	}
	lt.checkAgainstScan(t, "after ingest")
	if lt.freezes() != 1 {
		t.Fatalf("check-in ingest forced a recompile (%d compiles)", lt.freezes())
	}

	mutations := []struct {
		name string
		run  func() error
	}{
		{"InsertPOI", func() error {
			// Agg 1 stays under every epoch's maximum, so deleting the POI
			// again leaves the tree's normalizer exact.
			lt.insert(t, core.POI{ID: 9001, X: 51, Y: 49}, []tia.Record{{Ts: 0, Te: 100, Agg: 1}})
			return nil
		}},
		{"DeletePOI", func() error {
			delete(lt.pois, 9001)
			_, err := lt.DeletePOI(9001)
			return err
		}},
		{"RebuildBulk", lt.RebuildBulk},
	}
	for _, m := range mutations {
		before := lt.freezes()
		if err := m.run(); err != nil {
			t.Fatal(err)
		}
		if lt.Frozen() {
			t.Fatalf("%s left a stale flat layout", m.name)
		}
		lt.checkAgainstScan(t, "after "+m.name)
		if !lt.Frozen() || lt.freezes() != before+1 {
			t.Fatalf("after %s: frozen=%v, %d compiles, want one", m.name, lt.Frozen(), lt.freezes()-before)
		}
	}
}

// TestConcurrentFirstQueries: after a structural mutation, eight goroutines
// run their first queries at once (as searches under a store's read lock
// do). They must compile the flat layout exactly once between them and all
// return one answer, scored as before the mutation (the rebuild may permute
// POIs of equal score). The race detector checks the compile handoff.
func TestConcurrentFirstQueries(t *testing.T) {
	lt := newLifecycleTree(t)
	want, _, err := lt.QueryCtx(context.Background(), lifecycleQuery, &core.QueryOpts{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := lt.RebuildBulk(); err != nil {
		t.Fatal(err)
	}
	before := lt.freezes()
	const workers = 8
	got := make([][]core.Result, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			got[w], _, errs[w] = lt.QueryCtx(context.Background(), lifecycleQuery, &core.QueryOpts{NoCache: true})
		}(w)
	}
	close(start)
	wg.Wait()
	if n := lt.freezes() - before; n != 1 {
		t.Fatalf("%d concurrent first queries compiled the flat layout %d times, want once", workers, n)
	}
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if !reflect.DeepEqual(got[w], got[0]) {
			t.Fatalf("workers 0 and %d disagree", w)
		}
		if len(got[w]) != len(want) {
			t.Fatalf("worker %d: %d results, want %d", w, len(got[w]), len(want))
		}
		for i := range want {
			if got[w][i].Score != want[i].Score {
				t.Fatalf("worker %d rank %d: score %v, want %v", w, i, got[w][i].Score, want[i].Score)
			}
		}
	}
}
