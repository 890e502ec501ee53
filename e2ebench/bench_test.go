package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-tests check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

var (
	dsOnce sync.Once
	dsVal  *dataset
	dsErr  error
)

func testDataset(t *testing.T) *dataset {
	t.Helper()
	dsOnce.Do(func() { dsVal, dsErr = loadDataset() })
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

// TestSpecMatchesCode: every workload BENCHMARK.json names exists here,
// and it names exactly the metrics this program reports.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	var e2e, layer []string
	for _, m := range s.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range s.PerLayer {
		layer = append(layer, m.Name)
	}
	sameSet(t, "end_to_end", e2e, endToEndMetrics)
	sameSet(t, "per_layer", layer, perLayerMetrics)
}

func sameSet(t *testing.T, what string, a, b []string) {
	t.Helper()
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		t.Fatalf("%s: BENCHMARK.json has %v, code has %v", what, a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: BENCHMARK.json has %v, code has %v", what, a, b)
		}
	}
}

// TestInputsDeterministic: equal seeds give equal request hashes, and a
// different seed gives different ones.
func TestInputsDeterministic(t *testing.T) {
	ds := testDataset(t)
	for _, mix := range []func(*dataset, int64) *queryList{paperQueryList, hotQueryList} {
		a, b, c := hashQueries(mix(ds, 7)), hashQueries(mix(ds, 7)), hashQueries(mix(ds, 8))
		if a != b {
			t.Errorf("seed 7 hashed %s then %s", a, b)
		}
		if a == c {
			t.Errorf("seeds 7 and 8 both hashed %s", a)
		}
	}
	a := hashIngest(ds, newIngestStream(ds, 7, 50))
	b := hashIngest(ds, newIngestStream(ds, 7, 50))
	c := hashIngest(ds, newIngestStream(ds, 8, 50))
	if a != b || a == c {
		t.Errorf("ingest hashes: seed 7 %s and %s, seed 8 %s", a, b, c)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestSmoke runs every workload briefly, untraced and traced, against a
// tarserve built from this tree: every metric BENCHMARK.json names must be
// reported with its unit, and no operation may fail.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches tarserve processes")
	}
	spec := readSpec(t)
	bin := filepath.Join(t.TempDir(), "tarserve")
	build := exec.Command("go", "build", "-o", bin, "tartree/cmd/tarserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building tarserve: %v\n%s", err, out)
	}
	ds := testDataset(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := &config{tarserve: bin, work: t.TempDir(), seconds: 1, warmup: 200 * time.Millisecond, setups: 1, trace: traced}
			res, err := runWorkload(context.Background(), cfg, ds, w, 5)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, res.failed, res.attempted, res.firstErr)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := res.get(m.Name)
				if !ok {
					t.Errorf("%s traced=%v: metric %s not reported", w.name, traced, m.Name)
				} else if got.unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.unit, m.Unit)
				}
			}
			line, ok := summaryLine([]*result{res}, traced)
			if !ok {
				t.Errorf("%s traced=%v: summary line not correct: %s", w.name, traced, line)
			}
			if traced {
				if _, err := os.Stat(spanFile(cfg, w, 5)); err != nil {
					t.Errorf("%s: span file: %v", w.name, err)
				}
			}
		}
	}
}
