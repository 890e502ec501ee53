package core

import (
	"runtime"
	"time"

	"tartree/internal/rstar"
)

// Freeze compiles the R-tree into its flat frozen form (rstar.FlatTree)
// and installs it: every best-first search traverses int32 offsets into
// contiguous slabs, never the node pointers. The pointer tree stays
// authoritative — structural mutations (InsertPOI, DeletePOI, Rebuild,
// RebuildBulk) drop the flat form and the next search recompiles it, so
// calling Freeze only moves that cost ahead of the first query. Check-in
// ingest (AddCheckIn, FlushEpochs) does not invalidate it: the frozen
// entries share the pointer tree's aggregate handles, so flushed epochs are
// observed without recompiling.
//
// On an instrumented tree Freeze exports tartree_index_bytes by layout,
// the freeze duration histogram, and the allocation/heap-object deltas of
// the compilation (the GC-pressure price of the flat copy).
func (t *Tree) Freeze() *rstar.FlatTree {
	t.freezeMu.Lock()
	defer t.freezeMu.Unlock()
	return t.freezeLocked()
}

// flat returns the installed flat layout, compiling it first when a
// structural mutation dropped it. Searches run under the caller's read
// lock, so several may find it missing at once: the double check under
// freezeMu lets exactly one of them compile.
func (t *Tree) flat() *rstar.FlatTree {
	if f := t.frozen.Load(); f != nil {
		return f
	}
	t.freezeMu.Lock()
	defer t.freezeMu.Unlock()
	if f := t.frozen.Load(); f != nil {
		return f
	}
	return t.freezeLocked()
}

func (t *Tree) freezeLocked() *rstar.FlatTree {
	var before runtime.MemStats
	if t.instr != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	f := t.rt.Freeze()
	d := time.Since(start)
	t.frozen.Store(f)
	if t.instr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		t.instr.recordFreeze(t.rt.MemoryBytes(), f.Bytes(), d,
			int64(after.Mallocs-before.Mallocs), int64(after.HeapObjects)-int64(before.HeapObjects))
	}
	return f
}

// Frozen reports whether a flat layout is installed (false between a
// structural mutation and the next search or Freeze).
func (t *Tree) Frozen() bool { return t.frozen.Load() != nil }

// setFrozen installs an externally built flat compilation (the snapshot-v3
// loader constructs one straight from the on-disk sections). The layout
// gauges are exported here too, so a tree restored frozen from disk reports
// tartree_index_bytes without ever calling Freeze.
func (t *Tree) setFrozen(f *rstar.FlatTree) {
	t.frozen.Store(f)
	if t.instr != nil && f != nil {
		t.instr.recordIndexBytes(t.rt.MemoryBytes(), f.Bytes())
	}
}

// IndexBytes returns the heap footprint of the pointer tree and of the
// frozen layout (0 when not frozen). Aggregate data is excluded from both —
// it is shared, so it cancels out of the comparison.
func (t *Tree) IndexBytes() (pointer, flat int64) {
	return t.rt.MemoryBytes(), t.frozen.Load().Bytes()
}

// recordIndexBytes exports the by-layout footprint gauges.
func (in *instruments) recordIndexBytes(pointerBytes, flatBytes int64) {
	if in == nil {
		return
	}
	in.reg.Gauge(`tartree_index_bytes{layout="pointer"}`).Set(float64(pointerBytes))
	in.reg.Gauge(`tartree_index_bytes{layout="flat"}`).Set(float64(flatBytes))
}

// recordFreeze exports one freeze into the registry.
func (in *instruments) recordFreeze(pointerBytes, flatBytes int64, d time.Duration, allocs, heapObjects int64) {
	if in == nil {
		return
	}
	in.recordIndexBytes(pointerBytes, flatBytes)
	in.reg.Histogram("tartree_freeze_duration_seconds", nil).Observe(d.Seconds())
	in.reg.Gauge("tartree_freeze_allocs_delta").Set(float64(allocs))
	in.reg.Gauge("tartree_freeze_heap_objects_delta").Set(float64(heapObjects))
	in.reg.Counter("tartree_freezes_total").Inc()
}
