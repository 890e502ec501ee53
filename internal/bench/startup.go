package bench

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/tia"
)

// Startup experiment defaults: the cold-load sweep builds the same index at
// several data-set sizes, saves it as a snapshot-v3 image, and times how
// long a process restart takes to serve from it against a restart that
// rebuilds the index from the POI records. The gate on the largest size
// enforces the point of the flat format — section reads must beat the
// per-POI insert + bulk rebuild by at least startupMinSpeedup.
const startupMinSpeedup = 5.0

var startupScales = []float64{0.05, 0.1, 0.2}

// StartupExp measures cold-start cost: for each data-set size it saves the
// built TAR-tree as a snapshot-v3 image, then times loading it and, as the
// reference, rebuilding the tree from its records — a fresh tree, one
// InsertPOI per POI with its full history, one RebuildBulk — both with
// fresh disk B+-tree TIAs (best of three, so a stray scheduling hiccup
// cannot fail the gate). Three correctness gates ride along: the v3 load
// must arrive with the frozen layout installed, the slabs as loaded and the
// slabs Freeze recompiles from the thawed pointer tree must return
// identical answers with identical node accesses, and the loaded and the
// rebuilt trees must agree on every query's (POI, aggregate) ranking.
//
// The exported counters depend only on the data set — never on timing — so
// benchdiff can gate on them:
//
//	bench_startup_pois_total{scale="..."}
//	bench_startup_v3_bytes_total{scale="..."}
//	bench_startup_node_accesses_total{scale="..."}
//	bench_startup_queries_total
func StartupExp(cfg Config) ([]Table, error) {
	name := cfg.datasets()[0]
	if len(cfg.Datasets) == 0 {
		name = "GS"
	}
	scales := startupScales
	if cfg.Scale > 0 {
		scales = []float64{cfg.Scale}
	}
	if cfg.Queries == 0 {
		cfg.Queries = smokeQueries
	}

	t := Table{
		Title:  fmt.Sprintf("Startup: cold load, rebuild from records vs flat snapshot-v3 (%s)", name),
		Header: []string{"scale", "POIs", "v3 KB", "rebuild (ms)", "v3 load (ms)", "speedup", "node accesses"},
	}
	for si, sc := range scales {
		sub := cfg
		sub.Scale = sc
		env, err := newEnv(sub, name)
		if err != nil {
			return nil, err
		}
		tr, err := env.data.Build(lbsn.BuildOptions{Grouping: core.TAR3D, NodeSize: defaultNodeSize})
		if err != nil {
			return nil, err
		}
		var v3 bytes.Buffer
		if err := tr.SaveSnapshot(&v3); err != nil {
			return nil, err
		}

		// Timed restarts, best of three, each against a fresh TIA factory
		// so no page-store state survives from the previous attempt.
		var rebuilt, fromV3 *core.Tree
		timeRebuild, timeV3 := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			lt, err := rebuildFromRecords(tr)
			if err != nil {
				return nil, fmt.Errorf("startup scale %.2f: rebuild: %w", sc, err)
			}
			if d := time.Since(start); d < timeRebuild {
				timeRebuild = d
			}
			rebuilt = lt
			start = time.Now()
			lt, err = core.LoadSnapshot(bytes.NewReader(v3.Bytes()), tia.NewBTreeFactory(defaultNodeSize, 10))
			if err != nil {
				return nil, fmt.Errorf("startup scale %.2f: v3 load: %w", sc, err)
			}
			if d := time.Since(start); d < timeV3 {
				timeV3 = d
			}
			fromV3 = lt
		}
		if !fromV3.Frozen() {
			return nil, fmt.Errorf("startup scale %.2f: v3 load did not install the frozen layout", sc)
		}

		queries := env.data.Queries(cfg.queries(), defaultK, defaultAlpha, cfg.Seed+29)

		// Gate: the slabs decoded from disk must be the slabs Freeze
		// compiles from the thawed pointer tree — same answers, same node
		// accesses — on the very tree the server restarts into.
		frozenStats, frozenRes, err := runStartupBatch(fromV3, queries)
		if err != nil {
			return nil, err
		}
		fromV3.Freeze()
		recompiledStats, recompiledRes, err := runStartupBatch(fromV3, queries)
		if err != nil {
			return nil, err
		}
		for i := range queries {
			if err := sameResults(recompiledRes[i], frozenRes[i]); err != nil {
				return nil, fmt.Errorf("startup scale %.2f query %d: loaded vs recompiled slabs: %w", sc, i, err)
			}
		}
		if frozenStats != recompiledStats {
			return nil, fmt.Errorf("startup scale %.2f: loaded-slab work %+v != recompiled-slab work %+v", sc, frozenStats, recompiledStats)
		}

		// Gate: the image and the records restore the same index — every
		// query's ranked (POI, aggregate) multiset agrees. The rebuild
		// re-packs the tree, so tree shapes (and tie order) may differ;
		// identity is on answers.
		_, rebuiltRes, err := runStartupBatch(rebuilt, queries)
		if err != nil {
			return nil, err
		}
		for i := range queries {
			if err := sameAnswerSet(rebuiltRes[i], frozenRes[i]); err != nil {
				return nil, fmt.Errorf("startup scale %.2f query %d: rebuild vs v3: %w", sc, i, err)
			}
		}

		speedup := float64(timeRebuild) / float64(timeV3)
		if si == len(scales)-1 && speedup < startupMinSpeedup {
			return nil, fmt.Errorf("startup scale %.2f: v3 load only %.1f× faster than the rebuild from records (gate: ≥%.0f×)",
				sc, speedup, startupMinSpeedup)
		}

		if cfg.Metrics != nil {
			l := func(c string) string { return fmt.Sprintf(`%s{scale="%.2f"}`, c, sc) }
			cfg.Metrics.Counter(l("bench_startup_pois_total")).Add(int64(fromV3.Len()))
			cfg.Metrics.Counter(l("bench_startup_v3_bytes_total")).Add(int64(v3.Len()))
			cfg.Metrics.Counter(l("bench_startup_node_accesses_total")).Add(frozenStats.nodeAccesses)
			cfg.Metrics.Counter("bench_startup_queries_total").Add(int64(len(queries)))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", sc),
			fmt.Sprintf("%d", fromV3.Len()),
			fmt.Sprintf("%.1f", float64(v3.Len())/1024),
			fmt.Sprintf("%.3f", timeRebuild.Seconds()*1000),
			fmt.Sprintf("%.3f", timeV3.Seconds()*1000),
			fmt.Sprintf("%.1f×", speedup),
			fmt.Sprintf("%d", frozenStats.nodeAccesses),
		})
	}
	return []Table{t}, nil
}

// rebuildFromRecords is the restart that has only the records: a fresh
// tree with tr's configuration and fresh disk B+-tree TIAs, every POI
// inserted with its full history, then one bulk rebuild of the index.
func rebuildFromRecords(tr *core.Tree) (*core.Tree, error) {
	opts := tr.Options()
	opts.TIA = tia.NewBTreeFactory(defaultNodeSize, 10)
	nt, err := core.NewTree(opts)
	if err != nil {
		return nil, err
	}
	var insertErr error
	tr.POIs(func(p core.POI, _ int64) bool {
		hist, err := tr.History(p.ID)
		if err == nil {
			err = nt.InsertPOI(p, hist)
		}
		insertErr = err
		return err == nil
	})
	if insertErr != nil {
		return nil, insertErr
	}
	return nt, nt.RebuildBulk()
}

// startupWork is the exact query-work fingerprint compared between the
// loaded and the recompiled slabs.
type startupWork struct {
	nodeAccesses int64
	leafAccesses int64
	tiaReads     int64
	results      int64
}

// runStartupBatch runs the query batch uncached (the cache would hide the
// traversal being compared) and folds the work counters.
func runStartupBatch(tr *core.Tree, queries []core.Query) (startupWork, [][]core.Result, error) {
	var w startupWork
	res := make([][]core.Result, len(queries))
	for i, qu := range queries {
		r, stats, err := tr.Query(qu)
		if err != nil {
			return w, nil, err
		}
		res[i] = r
		w.nodeAccesses += int64(stats.RTreeAccesses())
		w.leafAccesses += int64(stats.LeafAccesses)
		w.tiaReads += stats.TIAAccesses
		w.results += int64(len(r))
	}
	return w, res, nil
}

// sameAnswerSet requires two ranked answers to carry the same (POI,
// aggregate) multiset — the equivalence that survives a bulk rebuild, where
// score ties may order differently.
func sameAnswerSet(want, got []core.Result) error {
	if len(want) != len(got) {
		return fmt.Errorf("result count %d != %d", len(got), len(want))
	}
	key := func(rs []core.Result) []string {
		ks := make([]string, len(rs))
		for i, r := range rs {
			ks[i] = fmt.Sprintf("%d/%d", r.POI.ID, r.Agg)
		}
		sort.Strings(ks)
		return ks
	}
	a, b := key(want), key(got)
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("answer sets differ at %s vs %s", b[i], a[i])
		}
	}
	return nil
}

func init() {
	Experiments["startup"] = StartupExp
}
