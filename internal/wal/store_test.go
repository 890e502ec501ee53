package wal

import (
	"math"
	"testing"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/obs"
	"tartree/internal/tia"
)

const (
	testPOIs    = 16
	testEpochLn = 100
)

// newBaseTree builds the deterministic base tree the store tests recover
// into: testPOIs POIs scattered over a 100x100 world, uniform epochs.
func newBaseTree() (*core.Tree, error) {
	tr, err := core.NewTree(core.Options{
		World:       geo.Rect{Min: geo.Vector{0, 0}, Max: geo.Vector{100, 100}},
		EpochStart:  0,
		EpochLength: testEpochLn,
	})
	if err != nil {
		return nil, err
	}
	for id := int64(1); id <= testPOIs; id++ {
		p := core.POI{ID: id, X: float64(id*13%97) + 1, Y: float64(id*29%89) + 2}
		if err := tr.InsertPOI(p, nil); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// referenceTree ingests the corpus without any WAL and flushes at horizon.
func referenceTree(t *testing.T, cs []CheckIn, horizon int64) *core.Tree {
	t.Helper()
	tr, err := newBaseTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		if err := tr.AddCheckIn(c.POI, c.At); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.FlushEpochs(horizon); err != nil {
		t.Fatal(err)
	}
	return tr
}

// assertSameResults compares per-POI scores of two result sets.
func assertSameResults(t *testing.T, label string, a, b []core.Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d", label, len(a), len(b))
	}
	scores := make(map[int64]float64, len(a))
	for _, r := range a {
		scores[r.POI.ID] = r.Score
	}
	for _, r := range b {
		want, ok := scores[r.POI.ID]
		if !ok {
			t.Fatalf("%s: POI %d only in one result set", label, r.POI.ID)
		}
		if math.Abs(r.Score-want) > 1e-9 {
			t.Fatalf("%s: POI %d score %.12f vs %.12f", label, r.POI.ID, r.Score, want)
		}
	}
}

// assertTreesAgree compares every POI aggregate over the full horizon plus a
// handful of queries.
func assertTreesAgree(t *testing.T, s *Store, ref *core.Tree, horizon int64) {
	t.Helper()
	iv := tia.Interval{Start: 0, End: horizon}
	s.View(func(tr *core.Tree) {
		if err := tr.Check(); err != nil {
			t.Fatalf("recovered tree invariant: %v", err)
		}
		for id := int64(1); id <= testPOIs; id++ {
			a, err := ref.Aggregate(id, iv)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tr.Aggregate(id, iv)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("POI %d: aggregate %d, reference %d", id, b, a)
			}
		}
	})
	for trial := 0; trial < 5; trial++ {
		q := core.Query{
			X: float64(11 + trial*17), Y: float64(7 + trial*13),
			Iq:     tia.Interval{Start: int64(trial * 50), End: horizon},
			K:      4,
			Alpha0: 0.4,
		}
		want, _, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "query", want, got)
	}
}

func TestStoreIngestCheckpointRecover(t *testing.T) {
	fs := testFS(t)
	reg := obs.NewRegistry()
	opts := StoreOptions{Metrics: reg}
	s, err := OpenStore(fs, newBaseTree, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Recovery().CheckpointLoaded {
		t.Fatal("fresh store claims a checkpoint")
	}
	cs := corpus(400, 11)
	horizon := int64(400*3 + testEpochLn)
	for i := 0; i < len(cs); i += 5 {
		end := i + 5
		if end > len(cs) {
			end = len(cs)
		}
		if _, err := s.Ingest(cs[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.AppliedLSN(); got != 400 {
		t.Fatalf("applied LSN = %d, want 400", got)
	}
	// Flush part of the stream, checkpoint mid-epoch: pending check-ins must
	// ride the snapshot.
	if err := s.FlushEpochs(600); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck != 400 {
		t.Fatalf("checkpoint LSN = %d, want 400", ck)
	}
	// Covered-nothing-new checkpoints are no-ops.
	if again, err := s.Checkpoint(); err != nil || again != ck {
		t.Fatalf("repeat checkpoint = %d, %v", again, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(fs, func() (*core.Tree, error) {
		t.Fatal("base tree rebuilt despite checkpoint")
		return nil, nil
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if !rec.CheckpointLoaded || rec.CheckpointLSN != 400 {
		t.Fatalf("recovery stats %+v", rec)
	}
	if rec.Replay.Records != 0 {
		t.Fatalf("replayed %d records past a full checkpoint", rec.Replay.Records)
	}
	if err := s2.FlushEpochs(horizon); err != nil {
		t.Fatal(err)
	}
	assertTreesAgree(t, s2, referenceTree(t, cs, horizon), horizon)
}

func TestStoreRecoverWithoutCheckpoint(t *testing.T) {
	fs := testFS(t)
	s, err := OpenStore(fs, newBaseTree, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cs := corpus(150, 12)
	for _, c := range cs {
		if _, err := s.Ingest([]CheckIn{c}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(fs, newBaseTree, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if rec.CheckpointLoaded || rec.Replay.Records != 150 {
		t.Fatalf("recovery stats %+v", rec)
	}
	horizon := int64(150*3 + testEpochLn)
	if err := s2.FlushEpochs(horizon); err != nil {
		t.Fatal(err)
	}
	assertTreesAgree(t, s2, referenceTree(t, cs, horizon), horizon)
}

func TestStoreRejectsInvalidBeforeLogging(t *testing.T) {
	fs := testFS(t)
	s, err := OpenStore(fs, newBaseTree, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.DurableLSN()
	if _, err := s.Ingest([]CheckIn{{POI: 9999, At: 10}}); err == nil {
		t.Fatal("unknown POI accepted")
	}
	if _, err := s.Ingest([]CheckIn{{POI: 1, At: -5}}); err == nil {
		t.Fatal("pre-origin check-in accepted")
	}
	if s.DurableLSN() != before {
		t.Fatal("rejected check-ins reached the log")
	}
	if n := s.AppliedLSN(); n != before {
		t.Fatalf("applied LSN moved to %d", n)
	}
}

func TestStoreCheckpointDeletesObsoleteSegments(t *testing.T) {
	fs := testFS(t)
	s, err := OpenStore(fs, newBaseTree, StoreOptions{SegmentBytes: 10 * frameSize})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, c := range corpus(95, 13) {
		if _, err := s.Ingest([]CheckIn{c}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Log().Segments()
	if before < 5 {
		t.Fatalf("want several segments, got %d", before)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := s.Log().Segments(); after != 1 {
		t.Fatalf("checkpoint left %d segments, want 1 (the active one)", after)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	cks := 0
	for _, n := range names {
		if _, ok := parseCheckpointName(n); ok {
			cks++
		}
	}
	if cks != 1 {
		t.Fatalf("%d checkpoint files on disk, want 1", cks)
	}
}

// TestStorePendingSurviveCheckpoint pins satellite behavior end to end:
// check-ins buffered mid-epoch travel inside the checkpoint snapshot, so a
// restart that replays nothing still flushes them correctly.
func TestStorePendingSurviveCheckpoint(t *testing.T) {
	fs := testFS(t)
	s, err := OpenStore(fs, newBaseTree, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cs := corpus(60, 14)
	if _, err := s.Ingest(cs); err != nil {
		t.Fatal(err)
	}
	var pending int64
	s.View(func(tr *core.Tree) { pending = tr.PendingCheckIns() })
	if pending != 60 {
		t.Fatalf("pending = %d, want 60", pending)
	}
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(fs, newBaseTree, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.View(func(tr *core.Tree) { pending = tr.PendingCheckIns() })
	if pending != 60 {
		t.Fatalf("pending after recovery = %d, want 60", pending)
	}
	horizon := int64(60*3 + testEpochLn)
	if err := s2.FlushEpochs(horizon); err != nil {
		t.Fatal(err)
	}
	assertTreesAgree(t, s2, referenceTree(t, cs, horizon), horizon)
}

// TestStoreCheckpointV3Recover: with StoreOptions.SnapshotV3 the checkpoint
// is the flat v3 image; recovery loads it by section reads (the tree comes
// back frozen), replays the WAL tail past it, and agrees exactly with an
// unjournaled reference.
func TestStoreCheckpointV3Recover(t *testing.T) {
	fs := testFS(t)
	opts := StoreOptions{SnapshotV3: true}
	s, err := OpenStore(fs, newBaseTree, opts)
	if err != nil {
		t.Fatal(err)
	}
	cs := corpus(300, 19)
	horizon := int64(300*3 + testEpochLn)
	// Ingest two thirds, checkpoint mid-epoch (pending check-ins must
	// travel in the v3 image too).
	if _, err := s.Ingest(cs[:200]); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushEpochs(300); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ck != 200 {
		t.Fatalf("checkpoint LSN = %d, want 200", ck)
	}
	// The tail past the checkpoint rides the WAL.
	if _, err := s.Ingest(cs[200:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(fs, func() (*core.Tree, error) {
		t.Fatal("base tree rebuilt despite v3 checkpoint")
		return nil, nil
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovery()
	if !rec.CheckpointLoaded || rec.CheckpointLSN != 200 {
		t.Fatalf("recovery stats %+v", rec)
	}
	if rec.Replay.Records != 100 {
		t.Fatalf("replayed %d records, want the 100 past the checkpoint", rec.Replay.Records)
	}
	if !s2.Tree().Frozen() {
		t.Fatal("tree recovered from a v3 checkpoint is not frozen")
	}
	if err := s2.FlushEpochs(horizon); err != nil {
		t.Fatal(err)
	}
	assertTreesAgree(t, s2, referenceTree(t, cs, horizon), horizon)
}
