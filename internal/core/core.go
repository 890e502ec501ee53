// Package core implements the TAR-tree (temporal aggregate R-tree) and the
// k-nearest neighbor temporal aggregate (kNNTA) query of the paper.
//
// A kNNTA query (q, Iq, α0, k) returns the k POIs minimizing
//
//	f(p) = α0·d(p, q) + α1·(1 − g(p, Iq)),   α1 = 1 − α0,
//
// where d is the Euclidean distance to the query point normalized by the
// diameter of the data space, and g is the temporal aggregate (count of
// check-ins) over the query interval normalized by its per-query upper
// bound. The TAR-tree is an R-tree whose every entry additionally points to
// a temporal index on the aggregate (TIA); query processing is best-first
// search with the consistent lower bound of Property 1.
//
// The package supports the paper's three entry-grouping strategies
// (Section 5): the integral 3D strategy (the TAR-tree proper), grouping by
// spatial extents only (IND-spa), and grouping by aggregate-distribution
// similarity (IND-agg).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"tartree/internal/aggcache"
	"tartree/internal/geo"
	"tartree/internal/obs"
	"tartree/internal/rstar"
	"tartree/internal/tia"
)

// Grouping selects the entry-grouping strategy.
type Grouping int

const (
	// TAR3D is the paper's integral 3D strategy: entries are grouped as
	// 3-dimensional boxes of two normalized spatial dimensions and one
	// aggregate dimension z = 1 − λ̂/λ̂max.
	TAR3D Grouping = iota
	// IndSpa groups by spatial extents only (a plain 2D R*-tree).
	IndSpa
	// IndAgg groups by aggregate-distribution similarity (Manhattan
	// distance between per-epoch aggregate vectors).
	IndAgg
)

// String implements fmt.Stringer.
func (g Grouping) String() string {
	switch g {
	case TAR3D:
		return "TAR-tree"
	case IndSpa:
		return "IND-spa"
	case IndAgg:
		return "IND-agg"
	}
	return fmt.Sprintf("Grouping(%d)", int(g))
}

// Dims returns the index dimensionality implied by the grouping.
func (g Grouping) Dims() int {
	if g == TAR3D {
		return 3
	}
	return 2
}

// nodeHeaderBytes and coordinate/pointer sizes reproduce the paper's node
// capacities: a 1024-byte node holds 50 two-dimensional or 36
// three-dimensional entries (Section 8, experiments setup).
const (
	nodeHeaderBytes = 16
	coordBytes      = 4
	pointerBytes    = 4
)

// CapacityFor returns the entry capacity of a node of nodeSize bytes
// holding dims-dimensional entries.
func CapacityFor(nodeSize, dims int) int {
	entry := 2*dims*coordBytes + pointerBytes
	c := (nodeSize - nodeHeaderBytes) / entry
	if c < 4 {
		c = 4
	}
	return c
}

// Options configures a TAR-tree.
type Options struct {
	// World is the 2D bounding rectangle of the data space. The ranking
	// function normalizes spatial distances by its diagonal — the paper's
	// "maximum distance between any two points in the space".
	World geo.Rect
	// NodeSize is the R-tree node size in bytes (default 1024).
	NodeSize int
	// Grouping selects the entry-grouping strategy (default TAR3D).
	Grouping Grouping
	// TIA creates the temporal indexes; nil selects a disk B+-tree factory
	// with NodeSize pages and 10 buffer slots per TIA, the paper's setup.
	TIA tia.Factory
	// Semantics matches TIA records against query intervals (default
	// Contained, per Section 4.3).
	Semantics tia.Semantics
	// AggFunc combines the matched epochs' values into g(p, Iq): the
	// default FuncSum counts check-ins; FuncMax ranks by the busiest single
	// epoch. Section 3.1 lists both as supported aggregates. (Max remains
	// consistent with Property 1 because an internal TIA's per-epoch maxima
	// dominate every child's epochs.)
	AggFunc tia.Func
	// EpochStart (t0) and EpochLength discretize time into a uniform grid
	// (Section 3.1). For non-uniform grids set Epochs instead.
	EpochStart  int64
	EpochLength int64
	// Epochs overrides the uniform grid with an arbitrary discretization
	// (e.g. GeometricEpochs). When set, EpochStart/EpochLength are ignored.
	Epochs Epochs
	// DisableReinsert turns off the R*-tree forced reinsertion; the
	// ablation experiments use it to isolate that heuristic's effect.
	DisableReinsert bool
	// Metrics, when set, instruments the tree: queries publish latency
	// histograms and work counters into the registry, and the TIA factory's
	// page buffers publish hit/miss/eviction rates through an attached
	// obs.PageSink. Nil (the default) disables instrumentation entirely.
	// Trees may share one registry, but each should own its TIA factory —
	// attaching one factory to two instrumented trees double-counts its
	// page traffic.
	Metrics *obs.Registry
	// Traces, when set, records every finished query (its latency,
	// result count and attributed I/O breakdown, plus timed spans when the
	// query ran through QueryTraced with a trace) into the ring, which
	// keeps the most recent and slowest records. Nil disables capture.
	// Independent of Metrics; cmd/tarserve serves the ring at
	// /debug/traces.
	Traces *obs.TraceRing
	// Cache, when set, memoizes TIA aggregate probes and whole ranked
	// result sets across queries. The tree bumps the cache's version stamp
	// on every mutation that can change a query answer (check-in ingest,
	// epoch flushes, POI insertion/deletion, rebuilds), so cached answers
	// are always identical to recomputed ones. A cache may be shared by
	// several trees — keys embed tree and TIA identities — but then every
	// sharing tree invalidates it. Nil disables caching.
	Cache *aggcache.Cache
}

func (o *Options) fill() error {
	if o.World.IsEmpty() || !o.World.Valid(2) {
		return errors.New("core: Options.World must be a valid non-empty rectangle")
	}
	if o.NodeSize == 0 {
		o.NodeSize = 1024
	}
	if o.NodeSize < 256 {
		return fmt.Errorf("core: node size %d too small", o.NodeSize)
	}
	if o.Epochs == nil {
		if o.EpochLength <= 0 {
			return errors.New("core: EpochLength must be positive")
		}
		o.Epochs = FixedEpochs{Start: o.EpochStart, Length: o.EpochLength}
	}
	if err := validateEpochs(o.Epochs); err != nil {
		return err
	}
	if o.TIA == nil {
		o.TIA = tia.NewBTreeFactory(o.NodeSize, 10)
	}
	return nil
}

// POI describes a point of interest.
type POI struct {
	ID   int64
	X, Y float64
}

// Result is one kNNTA answer.
type Result struct {
	POI   POI
	Score float64
	// S0 is the normalized spatial distance d(p, q); S1 is 1 − g(p, Iq).
	// Score = α0·S0 + α1·S1. The weight-adjustment algorithm of Section 7.1
	// works directly on these components.
	S0, S1 float64
	// Agg is the raw (unnormalized) aggregate over the query interval.
	Agg int64
}

// Query is a kNNTA query.
type Query struct {
	X, Y   float64      // query point in world coordinates
	Iq     tia.Interval // query time interval
	K      int
	Alpha0 float64 // weight of the spatial distance; α1 = 1 − Alpha0
}

// Validate reports whether the query parameters are usable. Failures wrap
// ErrInvalid, so errors.Is(err, ErrInvalid) identifies bad input.
func (q Query) Validate() error {
	if q.K <= 0 {
		return fmt.Errorf("%w: k must be positive", ErrInvalid)
	}
	if q.Alpha0 <= 0 || q.Alpha0 >= 1 {
		return fmt.Errorf("%w: α0 must be in (0, 1)", ErrInvalid)
	}
	if q.Iq.End <= q.Iq.Start {
		return fmt.Errorf("%w: interval must be non-empty", ErrInvalid)
	}
	return nil
}

// aggData is the augmentation attached to every TAR-tree entry: the
// in-memory mirror of the entry's aggregate distribution (used for grouping
// decisions and rebuilds) and the disk-resident TIA read — and counted — at
// query time.
type aggData struct {
	mirror *tia.Mem
	disk   tia.Index
	// id is a process-unique identity used as the stable cache key for this
	// TIA's memoized aggregates. Identity alone is sound only because every
	// structural or content mutation bumps the cache version stamp.
	id uint64
	// owned marks internal-entry data, whose disk index is destroyed when
	// the entry disappears. Leaf data is shared with the POI registry and
	// outlives tree restructuring.
	owned bool
}

// idSeq issues process-unique identities for aggData instances and trees.
var idSeq atomic.Uint64

func newAggData(mirror *tia.Mem, disk tia.Index, owned bool) *aggData {
	return &aggData{mirror: mirror, disk: disk, id: idSeq.Add(1), owned: owned}
}

// poiState is the per-POI registry record.
type poiState struct {
	poi    POI
	loc    geo.Vector // scaled spatial coordinates
	data   *aggData
	z      float64 // aggregate-dimension coordinate at insertion time
	total  int64   // lifetime aggregate
	inTree bool
}

// Tree is a TAR-tree.
type Tree struct {
	id            uint64 // process-unique, part of result-cache keys
	opts          Options
	rt            *rstar.Tree
	dims          int
	scale         float64 // world → index coordinate scale (uniform, so distances scale too)
	origin        geo.Vector
	maxDistScaled float64 // diagonal of the world in scaled coordinates

	pois      map[int64]*poiState
	lambdaMax float64 // running max of per-epoch mean aggregates λ̂
	// global holds, per epoch, the maximum aggregate over all POIs. Its
	// aggregate over a query interval is the normalization range of
	// g(p, Iq): an inexpensive, grouping-independent upper bound that every
	// index variant shares, so all variants rank identically. (Deleting a
	// POI can leave it loose; Rebuild retightens it.)
	global *aggData

	clock   int64                            // latest time observed
	pending map[tia.Interval]map[int64]int64 // epoch → poi → count

	// frozen is the flat compilation of rt: the only structure best-first
	// search walks. Structural mutations drop it; check-in ingest does not
	// (the shared aggregate handles observe new flushes, structure is
	// untouched). The next search recompiles it (see flat); freezeMu makes
	// concurrent first searches compile it once.
	frozen   atomic.Pointer[rstar.FlatTree]
	freezeMu sync.Mutex

	instr  *instruments   // nil unless Options.Metrics is set
	traces *obs.TraceRing // nil unless Options.Traces is set

	// version counts answer-changing mutations (see Version). Bumped in
	// invalidateCache, read under whatever lock guards the tree.
	version uint64
}

// NewTree creates an empty TAR-tree.
func NewTree(opts Options) (*Tree, error) {
	if err := (&opts).fill(); err != nil {
		return nil, err
	}
	ext := math.Max(opts.World.Max[0]-opts.World.Min[0], opts.World.Max[1]-opts.World.Min[1])
	if ext <= 0 {
		return nil, errors.New("core: world rectangle is degenerate")
	}
	t := &Tree{
		id:      idSeq.Add(1),
		opts:    opts,
		dims:    opts.Grouping.Dims(),
		scale:   1 / ext,
		origin:  opts.World.Min,
		pois:    make(map[int64]*poiState),
		pending: make(map[tia.Interval]map[int64]int64),
		clock:   opts.Epochs.Origin(),
	}
	t.maxDistScaled = opts.World.Diagonal(2) * t.scale
	if opts.Metrics != nil {
		t.instr = newInstruments(opts.Metrics)
		if at, ok := opts.TIA.(sinkAttacher); ok {
			at.AttachSink(obs.NewPageSink(opts.Metrics, "tartree_pagestore"))
		}
		if opts.Cache != nil {
			registerCacheMetrics(opts.Metrics, opts.Cache)
		}
	}
	t.traces = opts.Traces
	disk, err := opts.TIA.New()
	if err != nil {
		return nil, err
	}
	t.global = newAggData(tia.NewMem(), disk, true)

	t.rt = rstar.New(t.rstarConfig())
	return t, nil
}

// rstarConfig builds the R-tree configuration the tree's options imply;
// NewTree, Rebuild and the snapshot-v3 loader (which thaws a frozen layout
// into a pointer tree) must agree on it.
func (t *Tree) rstarConfig() rstar.Config {
	var strat rstar.Strategy
	if t.opts.Grouping == IndAgg {
		strat = &aggStrategy{}
	}
	return rstar.Config{
		Dims:            t.dims,
		Capacity:        CapacityFor(t.opts.NodeSize, t.dims),
		Strategy:        strat,
		Aug:             &treeAug{t: t},
		DisableReinsert: t.opts.DisableReinsert,
	}
}

// Options returns the (filled-in) options the tree was created with.
func (t *Tree) Options() Options { return t.opts }

// Grouping returns the entry-grouping strategy in use.
func (t *Tree) Grouping() Grouping { return t.opts.Grouping }

// Len returns the number of indexed POIs.
func (t *Tree) Len() int { return t.rt.Len() }

// Height returns the R-tree height.
func (t *Tree) Height() int { return t.rt.Height() }

// NodeCount returns the number of leaf and internal R-tree nodes.
func (t *Tree) NodeCount() (leaves, internals int) { return t.rt.NodeCount() }

// Root exposes the root of the pointer R-tree the flat layout is compiled
// from, for structural inspection; searches walk the flat layout instead.
func (t *Tree) Root() *rstar.Node { return t.rt.Root() }

// Dims returns the index dimensionality (2 or 3).
func (t *Tree) Dims() int { return t.dims }

// TIAFactory returns the factory whose stats accumulate TIA page traffic.
func (t *Tree) TIAFactory() tia.Factory { return t.opts.TIA }

// MaxDist returns the normalization constant for spatial distances: the
// diagonal of the world rectangle, in world units.
func (t *Tree) MaxDist() float64 { return t.opts.World.Diagonal(2) }

// scaled maps world coordinates into index coordinates.
func (t *Tree) scaled(x, y float64) geo.Vector {
	return geo.Vector{(x - t.origin[0]) * t.scale, (y - t.origin[1]) * t.scale}
}

// Epochs returns the time discretization in use.
func (t *Tree) Epochs() Epochs { return t.opts.Epochs }

// Clock returns the largest timestamp the tree has observed (check-ins,
// inserted history, explicit flush horizons). Live ingestion uses it as
// "now" when deciding which epochs have fully elapsed.
func (t *Tree) Clock() int64 { return t.clock }

// epochsElapsed returns m, the number of epochs in [t0, tc].
func (t *Tree) epochsElapsed() int64 {
	return t.opts.Epochs.Count(t.clock)
}

// observe advances the tree clock.
func (t *Tree) observe(at int64) {
	if at > t.clock {
		t.clock = at
	}
}

// lambda computes λ̂ = (1/m)·Σ vᵢ, the mean per-epoch aggregate used as the
// aggregate-dimension coordinate source (Section 5.2).
func (t *Tree) lambda(total int64) float64 {
	return float64(total) / float64(t.epochsElapsed())
}

// zCoord maps λ̂ to the aggregate dimension: z = 1 − λ̂/λ̂max.
func (t *Tree) zCoord(lambda float64) float64 {
	if t.lambdaMax <= 0 {
		return 1
	}
	z := 1 - lambda/t.lambdaMax
	if z < 0 {
		z = 0
	}
	return z
}

// InsertPOI indexes a POI together with its check-in history (aggregates
// already bucketed into epochs; zero-aggregate epochs are omitted).
func (t *Tree) InsertPOI(p POI, history []tia.Record) error {
	if _, dup := t.pois[p.ID]; dup {
		return fmt.Errorf("core: POI %d already indexed", p.ID)
	}
	if !t.opts.World.ContainsPoint(geo.Vector{p.X, p.Y}, 2) {
		return fmt.Errorf("core: POI %d at (%g, %g) outside the world rectangle", p.ID, p.X, p.Y)
	}
	disk, err := t.opts.TIA.New()
	if err != nil {
		return err
	}
	data := newAggData(tia.NewMem(), disk, false)
	var total int64
	for _, r := range history {
		if r.Agg == 0 {
			continue
		}
		if err := data.put(r); err != nil {
			return err
		}
		if err := t.raiseGlobal(r); err != nil {
			return err
		}
		total += r.Agg
		t.observe(r.Te)
	}
	st := &poiState{
		poi:   p,
		loc:   t.scaled(p.X, p.Y),
		data:  data,
		total: total,
	}
	lambda := t.lambda(total)
	if lambda > t.lambdaMax {
		t.lambdaMax = lambda
	}
	st.z = t.zCoord(lambda)
	t.pois[p.ID] = st
	st.inTree = true
	t.invalidateCache()
	t.frozen.Store(nil)
	return t.rt.Insert(rstar.Entry{
		Rect: t.leafRect(st),
		Item: rstar.Item(p.ID),
		Data: data,
	})
}

// invalidateCache bumps the shared cache's version stamp and the tree's
// own mutation version. Called by every mutation that can change a query
// answer; over-invalidation is harmless, under-invalidation never happens.
func (t *Tree) invalidateCache() {
	t.version++
	t.opts.Cache.Invalidate() // nil-safe
}

// leafRect builds the (point) bounding rectangle of a POI in index space.
func (t *Tree) leafRect(st *poiState) geo.Rect {
	v := st.loc
	if t.dims == 3 {
		v[2] = st.z
	}
	return geo.PointRect(v)
}

// DeletePOI removes a POI and destroys its TIA.
func (t *Tree) DeletePOI(id int64) (bool, error) {
	st, ok := t.pois[id]
	if !ok {
		return false, nil
	}
	removed, err := t.rt.Delete(t.leafRect(st), rstar.Item(id))
	if err != nil {
		return false, err
	}
	if removed {
		delete(t.pois, id)
		t.invalidateCache()
		t.frozen.Store(nil)
		if err := st.data.disk.Destroy(); err != nil {
			return true, err
		}
	}
	return removed, nil
}

// Lookup returns the POI registry entry.
func (t *Tree) Lookup(id int64) (POI, bool) {
	st, ok := t.pois[id]
	if !ok {
		return POI{}, false
	}
	return st.poi, true
}

// POIs visits every indexed POI (iteration order is unspecified).
func (t *Tree) POIs(fn func(p POI, total int64) bool) {
	for _, st := range t.pois {
		if !fn(st.poi, st.total) {
			return
		}
	}
}

// put stores a record in both the mirror and the disk index.
func (d *aggData) put(r tia.Record) error {
	if err := d.mirror.Put(r); err != nil {
		return err
	}
	return d.disk.Put(r)
}

// raiseGlobal lifts the tree-wide per-epoch maximum to cover r.
func (t *Tree) raiseGlobal(r tia.Record) error {
	if cur, ok := currentAgg(t.global.mirror, r.Ts); ok && cur >= r.Agg {
		return nil
	}
	return t.global.put(r)
}

// rebuildFrom replaces the contents with the per-epoch maxima over the
// children's mirrors, rewriting the disk index from scratch.
func (d *aggData) rebuildFrom(entries []rstar.Entry, fresh func() (tia.Index, error)) error {
	m := tia.NewMem()
	for _, e := range entries {
		child := e.Data.(*aggData)
		if err := tia.MaxMerge(m, child.mirror); err != nil {
			return err
		}
	}
	if d.disk != nil {
		if err := d.disk.Destroy(); err != nil {
			return err
		}
	}
	disk, err := fresh()
	if err != nil {
		return err
	}
	for _, r := range m.Records() {
		if err := disk.Put(r); err != nil {
			return err
		}
	}
	d.mirror = m
	d.disk = disk
	return nil
}

// treeAug maintains the TIAs of internal entries across R-tree structure
// changes (Section 4.1: an internal entry's TIA stores, per epoch, the
// maximum aggregate of the TIAs in its child node).
type treeAug struct {
	t *Tree
}

// Make implements rstar.Augmenter.
func (a *treeAug) Make(n *rstar.Node, old any) (any, error) {
	d, _ := old.(*aggData)
	if d == nil || !d.owned {
		// Never cannibalize a leaf's data (possible when a subtree shrinks
		// to a single POI); internal entries always own a fresh aggData.
		d = newAggData(nil, nil, true)
	}
	if err := d.rebuildFrom(n.Entries, a.t.opts.TIA.New); err != nil {
		return nil, err
	}
	return d, nil
}

// Extend implements rstar.Augmenter.
func (a *treeAug) Extend(data any, e rstar.Entry) (any, error) {
	d, _ := data.(*aggData)
	if d == nil {
		disk, err := a.t.opts.TIA.New()
		if err != nil {
			return nil, err
		}
		d = newAggData(tia.NewMem(), disk, true)
	}
	src := e.Data.(*aggData)
	for _, r := range src.mirror.Records() {
		cur, _ := currentAgg(d.mirror, r.Ts)
		if r.Agg > cur {
			if err := d.put(r); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// Dispose implements rstar.Augmenter. Leaf aggData stays alive in the POI
// registry; internal aggData owns its disk index.
func (a *treeAug) Dispose(data any) error {
	d, _ := data.(*aggData)
	if d == nil || !d.owned || d.disk == nil {
		return nil
	}
	return d.disk.Destroy()
}

// currentAgg returns the aggregate stored for the epoch starting at ts.
func currentAgg(m *tia.Mem, ts int64) (int64, bool) {
	recs := m.Records()
	lo, hi := 0, len(recs)
	for lo < hi {
		mid := (lo + hi) / 2
		if recs[mid].Ts < ts {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(recs) && recs[lo].Ts == ts {
		return recs[lo].Agg, true
	}
	return 0, false
}

// Rebuild reconstructs the tree from the POI registry, recomputing every
// aggregate-dimension coordinate with the current λ̂max. The paper suggests
// this as the remedy for drift as the LBSN grows (Section 8.2).
func (t *Tree) Rebuild() error {
	t.invalidateCache()
	t.frozen.Store(nil)
	if err := t.refreshGlobals(); err != nil {
		return err
	}
	rt := rstar.New(t.rstarConfig())
	old := t.rt
	t.rt = rt
	for _, st := range t.pois {
		st.z = t.zCoord(t.lambda(st.total))
		if err := rt.Insert(rstar.Entry{
			Rect: t.leafRect(st),
			Item: rstar.Item(st.poi.ID),
			Data: st.data,
		}); err != nil {
			t.rt = old
			return err
		}
	}
	return nil
}

// RebuildBulk reconstructs the tree with sort-tile-recursive bulk loading —
// much faster than Rebuild and typically yielding tighter nodes. It packs
// by (possibly 3-dimensional) position, so it applies to the spatial
// groupings only; IndAgg trees fall back to the incremental Rebuild.
func (t *Tree) RebuildBulk() error {
	if t.opts.Grouping == IndAgg {
		return t.Rebuild()
	}
	t.invalidateCache()
	t.frozen.Store(nil)
	if err := t.refreshGlobals(); err != nil {
		return err
	}
	entries := make([]rstar.Entry, 0, len(t.pois))
	for _, st := range t.pois {
		st.z = t.zCoord(t.lambda(st.total))
		entries = append(entries, rstar.Entry{
			Rect: t.leafRect(st),
			Item: rstar.Item(st.poi.ID),
			Data: st.data,
		})
	}
	// Map iteration is randomized; sort so rebuilds (and the snapshots
	// written from them) are deterministic for a given POI set.
	sort.Slice(entries, func(i, j int) bool { return entries[i].Item < entries[j].Item })
	rt, err := rstar.BulkLoad(rstar.Config{
		Dims:     t.dims,
		Capacity: CapacityFor(t.opts.NodeSize, t.dims),
		Aug:      &treeAug{t: t},
	}, entries)
	if err != nil {
		return err
	}
	t.rt = rt
	return nil
}

// refreshGlobals recomputes λ̂max and retightens the global per-epoch
// maxima (deletions may have loosened them).
func (t *Tree) refreshGlobals() error {
	t.lambdaMax = 0
	fresh := tia.NewMem()
	for _, st := range t.pois {
		if l := t.lambda(st.total); l > t.lambdaMax {
			t.lambdaMax = l
		}
		if err := tia.MaxMerge(fresh, st.data.mirror); err != nil {
			return err
		}
	}
	if err := t.global.disk.Destroy(); err != nil {
		return err
	}
	disk, err := t.opts.TIA.New()
	if err != nil {
		return err
	}
	for _, r := range fresh.Records() {
		if err := disk.Put(r); err != nil {
			return err
		}
	}
	t.global = newAggData(fresh, disk, true)
	return nil
}

// Check validates the R-tree invariants plus the TAR-tree augmentation
// invariant: every internal entry's mirror dominates (per epoch) the
// mirrors of the entries in its child node. Intended for tests.
func (t *Tree) Check() error {
	if err := t.rt.Check(); err != nil {
		return err
	}
	var walk func(n *rstar.Node) error
	walk = func(n *rstar.Node) error {
		for _, e := range n.Entries {
			if e.Child == nil {
				continue
			}
			parent := e.Data.(*aggData)
			for _, c := range e.Child.Entries {
				child := c.Data.(*aggData)
				for _, r := range child.mirror.Records() {
					got, ok := currentAgg(parent.mirror, r.Ts)
					if !ok || got < r.Agg {
						return fmt.Errorf("core: internal TIA does not dominate child at epoch %d (%d < %d)", r.Ts, got, r.Agg)
					}
				}
			}
			if err := walk(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.rt.Root()); err != nil {
		return err
	}
	// Disk TIAs must mirror the in-memory vectors.
	var derr error
	t.rt.VisitNodes(func(n *rstar.Node) bool {
		for _, e := range n.Entries {
			d := e.Data.(*aggData)
			if d.disk.Len() != d.mirror.Len() {
				derr = fmt.Errorf("core: disk TIA length %d != mirror %d", d.disk.Len(), d.mirror.Len())
				return false
			}
		}
		return true
	})
	if derr != nil {
		return derr
	}
	// The global maxima must dominate every POI's per-epoch aggregates.
	for id, st := range t.pois {
		for _, r := range st.data.mirror.Records() {
			got, ok := currentAgg(t.global.mirror, r.Ts)
			if !ok || got < r.Agg {
				return fmt.Errorf("core: global TIA does not dominate POI %d at epoch %d (%d < %d)", id, r.Ts, got, r.Agg)
			}
		}
	}
	return nil
}
