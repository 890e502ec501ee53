package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"tartree/internal/core"
	"tartree/internal/lbsn"
	"tartree/internal/tia"
)

// The deployment every workload serves: the calibrated GW data set at half
// scale (7,290 effective POIs, 3.25 M check-ins, weekly epochs), which the
// server regenerates deterministically from its own flags. Only queries and
// check-ins are derived from the benchmark seed.
const (
	datasetName  = "GW"
	datasetScale = 0.5
	epochLength  = 7 * lbsn.Day
	queryK       = 10
	queryAlpha   = 0.3

	// paperQueries is the length of the distinct query-paper list. It is
	// sized for several times today's throughput over a full run, so the
	// list never wraps (a wrap would turn misses into result-cache hits).
	paperQueries = 60000
	// hotDistinct queries over hotPresets interval presets, requested with
	// Zipf skew hotZipfS from a sequence of hotSequence draws.
	hotDistinct = 256
	hotPresets  = 8
	hotZipfS    = 1.1
	hotSequence = 400000

	// ingestBatch check-ins per POST; the ingest stream holds ingestBatches
	// of them, sent at ingestRate batches per second. Check-in j happens at
	// dataEnd + (j+1)·ingestStep, so one weekly epoch closes every 315
	// batches — every 1.6 s — and most flush cycles fold a real epoch.
	ingestBatch   = 64
	ingestBatches = 40000
	ingestStep    = 30
	ingestRate    = 200
)

// dataset is the generated data plus what the oracle and the input
// generators derive from it once per process.
type dataset struct {
	d         *lbsn.Dataset
	generateS float64
	effective []core.POI // Build's indexed POIs, in data set order
	histories [][]tia.Record
	times     [][]int64 // effective POIs' base check-in times (shared, read-only)
	cumTotals []float64 // prefix sums of effective POI totals (ingest draws)
}

func loadDataset() (*dataset, error) {
	spec, err := lbsn.SpecByName(datasetName)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	d, err := lbsn.Generate(spec.Scaled(datasetScale))
	if err != nil {
		return nil, err
	}
	ds := &dataset{d: d, generateS: time.Since(t0).Seconds()}
	var cum float64
	for i := range d.POIs {
		p := &d.POIs[i]
		hist := lbsn.History(p, d.Spec.Start, epochLength, 0)
		var total int64
		for _, r := range hist {
			total += r.Agg
		}
		if total < d.Spec.MinEffective {
			continue
		}
		ds.effective = append(ds.effective, core.POI{ID: p.ID, X: p.X, Y: p.Y})
		ds.histories = append(ds.histories, hist)
		ds.times = append(ds.times, p.Times)
		cum += float64(total)
		ds.cumTotals = append(ds.cumTotals, cum)
	}
	return ds, nil
}

// queryList is a stream of query requests: distinct queries plus the order
// in which they are requested (nil order means each once, in list order).
type queryList struct {
	distinct []core.Query
	urls     []string // path+query string per distinct query
	order    []uint16
}

func (l *queryList) len() int {
	if l.order != nil {
		return len(l.order)
	}
	return len(l.distinct)
}

// key returns the distinct-query index of the i-th request.
func (l *queryList) key(i int) int {
	if l.order != nil {
		return int(l.order[i])
	}
	return i
}

func newQueryList(qs []core.Query, order []uint16) *queryList {
	l := &queryList{distinct: qs, order: order, urls: make([]string, len(qs))}
	for i, q := range qs {
		l.urls[i] = queryPath(q)
	}
	return l
}

// queryPath is the /v1/query request for q. Floats are written in their
// shortest exact form, so the server parses back the very same query.
func queryPath(q core.Query) string {
	b := make([]byte, 0, 128)
	b = append(b, "/v1/query?x="...)
	b = strconv.AppendFloat(b, q.X, 'g', -1, 64)
	b = append(b, "&y="...)
	b = strconv.AppendFloat(b, q.Y, 'g', -1, 64)
	b = append(b, "&k="...)
	b = strconv.AppendInt(b, int64(q.K), 10)
	b = append(b, "&alpha="...)
	b = strconv.AppendFloat(b, q.Alpha0, 'g', -1, 64)
	b = append(b, "&start="...)
	b = strconv.AppendInt(b, q.Iq.Start, 10)
	b = append(b, "&end="...)
	b = strconv.AppendInt(b, q.Iq.End, 10)
	return string(b)
}

// paperQueryList is the paper's Section 8 mix: points sampled from the
// POIs, intervals of 2^0..2^9 days at random offsets, k=10, α0=0.3. Every
// request is a distinct query.
func paperQueryList(ds *dataset, seed int64) *queryList {
	return newQueryList(ds.d.Queries(paperQueries, queryK, queryAlpha, seed), nil)
}

// hotPresetDays are the lengths of the hot mix's interval presets, spread
// over the paper's 2^0..2^9-day range. Query i uses preset i mod
// hotPresets, and query i is the i-th most popular, so the
// request-weighted mix of interval lengths — which sets the cost of every
// cache miss — is the same for every seed; the seed draws the offsets, the
// points and the request order.
var hotPresetDays = [hotPresets]int64{1, 2, 8, 16, 32, 64, 256, 512}

// hotQueryList is app-style traffic: hotDistinct queries over hotPresets
// interval presets, requested with Zipf skew so the working set fits the
// server's result cache.
func hotQueryList(ds *dataset, seed int64) *queryList {
	r := rand.New(rand.NewSource(seed))
	spec := ds.d.Spec
	ivs := make([]tia.Interval, hotPresets)
	for i, days := range hotPresetDays {
		length := days * lbsn.Day
		start := spec.Start + int64(r.Float64()*float64(spec.End-spec.Start-length))
		ivs[i] = tia.Interval{Start: start, End: start + length}
	}
	qs := ds.d.QueriesWithIntervals(hotDistinct, queryK, queryAlpha, seed+1, ivs)
	for i := range qs {
		qs[i].Iq = ivs[i%hotPresets]
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed+2)), hotZipfS, 1, hotDistinct-1)
	order := make([]uint16, hotSequence)
	for i := range order {
		order[i] = uint16(z.Uint64())
	}
	return newQueryList(qs, order)
}

// ingestStream is the durable-write stream: batch b holds check-ins
// b·ingestBatch .. (b+1)·ingestBatch-1, each at a POI drawn in proportion
// to its check-in total (indexes into dataset.effective).
type ingestStream struct {
	start int64 // timestamp origin: the data set's end
	pois  []int32
}

func newIngestStream(ds *dataset, seed int64, batches int) *ingestStream {
	r := rand.New(rand.NewSource(seed + 3))
	s := &ingestStream{start: ds.d.Spec.End, pois: make([]int32, batches*ingestBatch)}
	total := ds.cumTotals[len(ds.cumTotals)-1]
	for i := range s.pois {
		s.pois[i] = int32(sort.SearchFloat64s(ds.cumTotals, r.Float64()*total))
	}
	return s
}

func (s *ingestStream) batches() int { return len(s.pois) / ingestBatch }

// at is the timestamp of check-in j.
func (s *ingestStream) at(j int) int64 { return s.start + int64(j+1)*ingestStep }

// body is the JSON request body of batch b.
func (s *ingestStream) body(ds *dataset, b int) []byte {
	buf := make([]byte, 0, ingestBatch*40+16)
	buf = append(buf, `{"checkins":[`...)
	for j := b * ingestBatch; j < (b+1)*ingestBatch; j++ {
		if j > b*ingestBatch {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"poi":`...)
		buf = strconv.AppendInt(buf, ds.effective[s.pois[j]].ID, 10)
		buf = append(buf, `,"ts":`...)
		buf = strconv.AppendInt(buf, s.at(j), 10)
		buf = append(buf, '}')
	}
	return append(buf, "]}"...)
}

// hashQueries digests a query stream: the distinct requests and their order.
func hashQueries(l *queryList) string {
	h := sha256.New()
	for _, u := range l.urls {
		h.Write([]byte(u))
		h.Write([]byte{'\n'})
	}
	var b [2]byte
	for _, k := range l.order {
		binary.LittleEndian.PutUint16(b[:], k)
		h.Write(b[:])
	}
	return digest(h)
}

// hashIngest digests the ingest stream: every check-in's POI and time.
func hashIngest(ds *dataset, s *ingestStream) string {
	h := sha256.New()
	var b [16]byte
	for j, p := range s.pois {
		binary.LittleEndian.PutUint64(b[:8], uint64(ds.effective[p].ID))
		binary.LittleEndian.PutUint64(b[8:], uint64(s.at(j)))
		h.Write(b[:])
	}
	return digest(h)
}

func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// finalStateQueries are the post-load checks of the ingest workload: half
// drawn from the query stream, half with intervals ending at the last
// ingested time, so they cover the epochs the load appended.
func finalStateQueries(ds *dataset, l *queryList, clock int64, seed int64) []core.Query {
	r := rand.New(rand.NewSource(seed + 4))
	var qs []core.Query
	for i := 0; i < 32; i++ {
		qs = append(qs, l.distinct[r.Intn(len(l.distinct))])
	}
	for i := 0; i < 32; i++ {
		p := ds.effective[r.Intn(len(ds.effective))]
		days := int64(1) << uint(r.Intn(7)+2)
		qs = append(qs, core.Query{
			X: p.X, Y: p.Y,
			Iq:     tia.Interval{Start: clock - days*lbsn.Day, End: clock + 1},
			K:      queryK,
			Alpha0: queryAlpha,
		})
	}
	return qs
}

// epochEnd is the end of the weekly epoch containing t.
func (ds *dataset) epochEnd(t int64) int64 {
	start := ds.d.Spec.Start
	return start + ((t-start)/epochLength+1)*epochLength
}
