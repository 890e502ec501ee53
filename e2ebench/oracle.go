package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/seqscan"
	"tartree/internal/tia"
)

// scoreTol is the score agreement required between the server and the
// brute-force scan, which add the same integers in a different order.
const scoreTol = 1e-9

// newOracle builds the brute-force scanner over the effective POIs, with
// extra check-in times appended per POI (indexes into ds.effective) for
// the post-ingest state. Extra times must follow the POI's base times.
func newOracle(ds *dataset, extra map[int32][]int64) *seqscan.Scanner {
	sc := seqscan.New(ds.d.World, tia.Contained)
	for i, p := range ds.effective {
		hist := ds.histories[i]
		if ts := extra[int32(i)]; len(ts) > 0 {
			times := append(append([]int64(nil), ds.times[i]...), ts...)
			hist = lbsn.History(&lbsn.POI{ID: p.ID, X: p.X, Y: p.Y, Times: times}, ds.d.Spec.Start, epochLength, 0)
		}
		sc.Add(p, hist)
	}
	return sc
}

type answer struct {
	POI   int64   `json:"poi"`
	Score float64 `json:"score"`
}

// decodeResults parses a results region cut by resultsRegion.
func decodeResults(region []byte) ([]answer, error) {
	var v struct {
		Results []answer `json:"results"`
	}
	buf := make([]byte, 0, len(region)+2)
	buf = append(append(append(buf, '{'), region...), '}')
	if err := json.Unmarshal(buf, &v); err != nil {
		return nil, fmt.Errorf("decoding results: %w", err)
	}
	return v.Results, nil
}

// compareAnswer checks a served top-k against the oracle's: equal length,
// equal scores rank by rank, and equal POIs wherever the score is not tied
// with the k-th (ties at the boundary may resolve either way).
func compareAnswer(got []answer, want []core.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, oracle has %d", len(got), len(want))
	}
	if len(want) == 0 {
		return nil
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > scoreTol {
			return fmt.Errorf("rank %d: score %.12f, oracle %.12f", i, got[i].Score, want[i].Score)
		}
	}
	kth := want[len(want)-1].Score
	var g, w []int64
	for i := range got {
		if got[i].Score < kth-scoreTol {
			g = append(g, got[i].POI)
		}
		if want[i].Score < kth-scoreTol {
			w = append(w, want[i].POI.ID)
		}
	}
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			return fmt.Errorf("POIs above the k-th score differ: %v vs oracle %v", g, w)
		}
	}
	if len(g) != len(w) {
		return fmt.Errorf("POIs above the k-th score differ: %v vs oracle %v", g, w)
	}
	return nil
}

// checkAll verifies each (query, results region) pair against the oracle
// on every CPU and returns the keys whose answers are wrong, with the
// first error seen.
func checkAll(sc *seqscan.Scanner, queries map[int]core.Query, regions map[int][]byte) (map[int]bool, error) {
	keys := make([]int, 0, len(regions))
	for k := range regions {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var (
		mu       sync.Mutex
		wrong    = make(map[int]bool)
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan int)
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				err := checkOne(sc, queries[k], regions[k])
				if err != nil {
					mu.Lock()
					wrong[k] = true
					if firstErr == nil {
						firstErr = fmt.Errorf("query %d %s: %w", k, queryPath(queries[k]), err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return wrong, firstErr
}

func checkOne(sc *seqscan.Scanner, q core.Query, region []byte) error {
	got, err := decodeResults(region)
	if err != nil {
		return err
	}
	want, err := sc.Query(q)
	if err != nil {
		return err
	}
	return compareAnswer(got, want)
}
