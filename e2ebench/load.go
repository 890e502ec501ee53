package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// stream is one closed-loop request stream: conns connections, each sending
// its next request only after the previous answer arrived. Requests are
// numbered by a shared counter, so the streams' inputs are consumed in list
// order whatever the interleaving.
type stream struct {
	name  string
	conns int
	n     int                  // length of the request list; wraps beyond
	build func(i int) *request // request i of the list
	// pace, when non-zero, spaces a connection's requests: each is due
	// pace after the previous one was due, and its latency counts from
	// when it was due, so a stall also charges the requests it delayed.
	pace time.Duration
	next atomic.Int64
	// wrapped is set when the load outran the request list.
	wrapped atomic.Bool
}

type request struct {
	method string
	path   string
	body   []byte
	key    int // distinct-query key (query streams), batch index (ingest)
}

// reply is what a worker keeps of one request.
type reply struct {
	key     int
	latency time.Duration
	done    time.Time
	timed   bool
	traced  bool
	ok      bool // 2xx with a well-formed body
	bytes   int
	// differs marks an answer whose ranked results differ from this
	// worker's first answer to the same query.
	differs bool
}

// workerLog is one connection's record of a phase: every reply in order,
// and the first results region it received for each distinct query.
type workerLog struct {
	stream  string
	replies []reply
	first   map[int][]byte
}

// phase runs every stream's workers until the deadline and returns their
// logs. timed marks the replies as part of the measured window. While
// traceOn is set, each request is recorded as a span in tr.
func phase(ctx context.Context, base string, streams []*stream, deadline time.Time, timed bool, tr *tracer, traceOn *atomic.Bool) []*workerLog {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		logs []*workerLog
	)
	for _, st := range streams {
		for c := 0; c < st.conns; c++ {
			wg.Add(1)
			go func(st *stream) {
				defer wg.Done()
				wl := &workerLog{stream: st.name, first: make(map[int][]byte)}
				runWorker(ctx, base, st, deadline, timed, tr, traceOn, wl)
				mu.Lock()
				logs = append(logs, wl)
				mu.Unlock()
			}(st)
		}
	}
	wg.Wait()
	return logs
}

func runWorker(ctx context.Context, base string, st *stream, deadline time.Time, timed bool, tr *tracer, traceOn *atomic.Bool, wl *workerLog) {
	// One keep-alive connection per worker.
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
		Timeout: 30 * time.Second,
	}
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	due := time.Now()
	for ctx.Err() == nil && time.Now().Before(deadline) {
		if st.pace > 0 {
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
		}
		i := int(st.next.Add(1) - 1)
		if i >= st.n {
			st.wrapped.Store(true)
			i %= st.n
		}
		rq := st.build(i)
		var t *tracer
		if traceOn != nil && traceOn.Load() {
			t = tr
		}
		sp := t.start(st.name+".request", 0)
		begin := time.Now()
		if st.pace > 0 {
			begin = due
			due = due.Add(st.pace)
		}
		rp := reply{key: rq.key, timed: timed, traced: t != nil}
		req, err := http.NewRequestWithContext(ctx, rq.method, base+rq.path, bytes.NewReader(rq.body))
		if err == nil {
			var resp *http.Response
			if resp, err = client.Do(req); err == nil {
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				rp.ok = err == nil && resp.StatusCode/100 == 2
				rp.bytes = buf.Len()
			}
		}
		rp.done = time.Now()
		rp.latency = rp.done.Sub(begin)
		sp.end()
		if rp.ok && rq.method == http.MethodGet {
			region, found := resultsRegion(buf.Bytes())
			switch first, seen := wl.first[rq.key]; {
			case !found:
				rp.ok = false
			case seen:
				rp.differs = !bytes.Equal(first, region)
			default:
				wl.first[rq.key] = append([]byte(nil), region...)
			}
		}
		wl.replies = append(wl.replies, rp)
	}
}

// resultsRegion cuts the "results" array out of a /v1/query response. The
// server writes its fields in a fixed order and fixed indentation, so two
// answers with the same ranked results have byte-identical regions.
func resultsRegion(body []byte) ([]byte, bool) {
	i := bytes.Index(body, []byte(`"results": [`))
	j := bytes.Index(body, []byte(`"stats": {`))
	if i < 0 || j < i {
		return nil, false
	}
	return bytes.TrimRight(body[i:j], " \n,"), true
}

// get issues one GET and returns the body; non-2xx is an error.
func get(ctx context.Context, client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}
