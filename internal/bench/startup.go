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
// several data-set sizes, saves it in both snapshot formats, and times how
// long a process restart takes to serve from each. The gate on the largest
// size enforces the point of the flat format — section reads must beat the
// gob decode + per-POI insert + bulk rebuild of the legacy path by at least
// startupMinSpeedup.
const startupMinSpeedup = 5.0

var startupScales = []float64{0.05, 0.1, 0.2}

// StartupExp measures cold-start cost: for each data-set size it saves the
// built TAR-tree as a legacy gob (v2) image and as a flat snapshot-v3 image,
// then times loading each with fresh disk B+-tree TIAs (best of three, so a
// stray scheduling hiccup cannot fail the gate). Three correctness gates
// ride along: the v3 load must arrive with the frozen layout installed, the
// slabs as loaded and the slabs Freeze recompiles from the thawed pointer
// tree must return identical answers with identical node accesses, and the
// v2- and v3-loaded trees must agree on every query's (POI, aggregate)
// ranking.
//
// The exported counters depend only on the data set — never on timing — so
// benchdiff can gate on them:
//
//	bench_startup_pois_total{scale="..."}
//	bench_startup_v2_bytes_total{scale="..."}
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
		Title:  fmt.Sprintf("Startup: cold load, gob-v2 rebuild vs flat snapshot-v3 (%s)", name),
		Header: []string{"scale", "POIs", "v2 KB", "v3 KB", "v2 load (ms)", "v3 load (ms)", "speedup", "node accesses"},
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
		var v2, v3 bytes.Buffer
		if err := tr.SaveSnapshot(&v2); err != nil {
			return nil, err
		}
		if err := tr.SaveSnapshotV3(&v3); err != nil {
			return nil, err
		}

		// Timed loads, best of three, each against a fresh TIA factory so
		// no page-store state survives from the previous attempt.
		var fromV2, fromV3 *core.Tree
		timeV2, timeV3 := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < 3; i++ {
			start := time.Now()
			lt, err := core.LoadSnapshot(bytes.NewReader(v2.Bytes()), tia.NewBTreeFactory(defaultNodeSize, 10))
			if err != nil {
				return nil, fmt.Errorf("startup scale %.2f: v2 load: %w", sc, err)
			}
			if d := time.Since(start); d < timeV2 {
				timeV2 = d
			}
			fromV2 = lt
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

		// Gate: both formats restore the same index — every query's ranked
		// (POI, aggregate) multiset agrees. The v2 path bulk-rebuilds, so
		// tree shapes (and tie order) may differ; identity is on answers.
		_, v2Res, err := runStartupBatch(fromV2, queries)
		if err != nil {
			return nil, err
		}
		for i := range queries {
			if err := sameAnswerSet(v2Res[i], frozenRes[i]); err != nil {
				return nil, fmt.Errorf("startup scale %.2f query %d: v2 vs v3: %w", sc, i, err)
			}
		}

		speedup := float64(timeV2) / float64(timeV3)
		if si == len(scales)-1 && speedup < startupMinSpeedup {
			return nil, fmt.Errorf("startup scale %.2f: v3 load only %.1f× faster than v2 (gate: ≥%.0f×)",
				sc, speedup, startupMinSpeedup)
		}

		if cfg.Metrics != nil {
			l := func(c string) string { return fmt.Sprintf(`%s{scale="%.2f"}`, c, sc) }
			cfg.Metrics.Counter(l("bench_startup_pois_total")).Add(int64(fromV3.Len()))
			cfg.Metrics.Counter(l("bench_startup_v2_bytes_total")).Add(int64(v2.Len()))
			cfg.Metrics.Counter(l("bench_startup_v3_bytes_total")).Add(int64(v3.Len()))
			cfg.Metrics.Counter(l("bench_startup_node_accesses_total")).Add(frozenStats.nodeAccesses)
			cfg.Metrics.Counter("bench_startup_queries_total").Add(int64(len(queries)))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", sc),
			fmt.Sprintf("%d", fromV3.Len()),
			fmt.Sprintf("%.1f", float64(v2.Len())/1024),
			fmt.Sprintf("%.1f", float64(v3.Len())/1024),
			fmt.Sprintf("%.3f", timeV2.Seconds()*1000),
			fmt.Sprintf("%.3f", timeV3.Seconds()*1000),
			fmt.Sprintf("%.1f×", speedup),
			fmt.Sprintf("%d", frozenStats.nodeAccesses),
		})
	}
	return []Table{t}, nil
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
