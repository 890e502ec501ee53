package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tartree/internal/core"
	"tartree/internal/geo"
	"tartree/internal/httpapi"
	"tartree/internal/tia"
)

// Wire types of the coordinator⇄shard protocol. Candidates carry the full
// result tuple so the coordinator can hand back core.Results without a
// second lookup; stats are per-round deltas so the coordinator's sums
// equal the shard's cumulative search work exactly.

type gmaxResponse struct {
	Index     int          `json:"index"`
	Of        int          `json:"of"`
	Records   []tia.Record `json:"records"`
	Semantics int          `json:"semantics"`
	AggFunc   int          `json:"agg_func"`
}

type queryRequest struct {
	X     float64  `json:"x"`
	Y     float64  `json:"y"`
	K     int      `json:"k"`
	Alpha float64  `json:"alpha"`
	Start int64    `json:"start"`
	End   int64    `json:"end"`
	Gmax  float64  `json:"gmax"`
	Bound *float64 `json:"bound,omitempty"`
	Batch int      `json:"batch"`
}

type nextRequest struct {
	Session uint64   `json:"session"`
	Bound   *float64 `json:"bound,omitempty"`
	Batch   int      `json:"batch"`
}

type candidate struct {
	POI   int64   `json:"poi"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Score float64 `json:"score"`
	S0    float64 `json:"s0"`
	S1    float64 `json:"s1"`
	Agg   int64   `json:"agg"`
}

type statsDelta struct {
	Internal    int   `json:"internal"`
	Leaf        int   `json:"leaf"`
	TIAReads    int64 `json:"tia_reads"`
	TIAPhysical int64 `json:"tia_physical"`
	Scored      int   `json:"scored"`
}

func (a statsDelta) sub(b statsDelta) statsDelta {
	return statsDelta{
		Internal:    a.Internal - b.Internal,
		Leaf:        a.Leaf - b.Leaf,
		TIAReads:    a.TIAReads - b.TIAReads,
		TIAPhysical: a.TIAPhysical - b.TIAPhysical,
		Scored:      a.Scored - b.Scored,
	}
}

type roundResponse struct {
	Session    uint64      `json:"session"`
	Candidates []candidate `json:"candidates"`
	// Frontier is the best (lowest) Property-1 bound left in the shard's
	// queue — a floor on every candidate it could still produce. Omitted
	// when the shard is done.
	Frontier *float64   `json:"frontier,omitempty"`
	Done     bool       `json:"done"`
	Pruned   bool       `json:"pruned,omitempty"`
	Stats    statsDelta `json:"stats"`
}

// Viewer runs a function against the shard's tree under whatever lock
// guards it. *wal.Store satisfies it; TreeViewer adapts a bare tree.
type Viewer interface {
	View(func(t *core.Tree))
}

// TreeViewer is the trivial Viewer over an externally-synchronized tree.
type TreeViewer struct{ Tree *core.Tree }

// View implements Viewer.
func (v TreeViewer) View(f func(t *core.Tree)) { f(v.Tree) }

// Server is the shard-side half of scatter-gather: it owns this shard's
// POI subset (indexed over the full world) and serves incremental
// best-first search sessions to the coordinator.
//
// A session wraps one core.Search plus its cumulative stats; each round
// the coordinator POSTs the current global bound and a batch size, and the
// shard pops candidates until the batch fills, the frontier exceeds the
// bound (pruned), or the tree is exhausted. Sessions pin no locks between
// rounds — every round runs under one Viewer.View call — but they do pin
// the index *version*: any answer-changing mutation between rounds makes
// the session unusable and the shard answers 410 Gone, telling the
// coordinator to restart that shard's search against the new state.
type Server struct {
	// Data guards the shard's tree; Index/N/Region describe its place in
	// the shard map (healthz reports them).
	Data   Viewer
	Index  int
	N      int
	Region geo.Rect
	// SessionTTL expires sessions abandoned by a dead coordinator
	// (default 30s, refreshed every round); MaxSessions caps the table
	// (default 64, earliest-expiring evicted first).
	SessionTTL  time.Duration
	MaxSessions int
	Metrics     *Metrics

	mu       sync.Mutex
	sessions map[uint64]*session
	seq      uint64
	now      func() time.Time // tests override; nil means time.Now
}

type session struct {
	id      uint64
	search  *core.Search
	stats   core.QueryStats
	last    statsDelta
	version uint64
	expires time.Time
	busy    bool
}

func (s *Server) clock() time.Time {
	if s.now != nil {
		return s.now()
	}
	return time.Now()
}

func (s *Server) ttl() time.Duration {
	if s.SessionTTL > 0 {
		return s.SessionTTL
	}
	return 30 * time.Second
}

func (s *Server) maxSessions() int {
	if s.MaxSessions > 0 {
		return s.MaxSessions
	}
	return 64
}

// Register mounts the shard routes on mux. cmd/tarserve mounts the same
// handlers behind its role gate instead.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/shard/gmax", s.HandleGmax)
	mux.HandleFunc("POST /v1/shard/query", s.HandleQuery)
	mux.HandleFunc("POST /v1/shard/next", s.HandleNext)
}

// HandleGmax serves the shard's half of the distributed normalizer
// exchange: the global-mirror records intersecting [start, end), plus the
// aggregation configuration so the coordinator can verify all shards agree.
func (s *Server) HandleGmax(w http.ResponseWriter, r *http.Request) {
	start, err1 := strconv.ParseInt(r.URL.Query().Get("start"), 10, 64)
	end, err2 := strconv.ParseInt(r.URL.Query().Get("end"), 10, 64)
	if err1 != nil || err2 != nil || end <= start {
		httpapi.WriteStatusError(w, http.StatusBadRequest, "gmax needs integer start < end")
		return
	}
	var resp gmaxResponse
	s.Data.View(func(t *core.Tree) {
		opts := t.Options()
		resp = gmaxResponse{
			Index:     s.Index,
			Of:        s.N,
			Records:   t.GlobalMirrorRecords(tia.Interval{Start: start, End: end}),
			Semantics: int(opts.Semantics),
			AggFunc:   int(opts.AggFunc),
		}
	})
	writeJSON(w, resp)
}

// HandleQuery opens a search session and serves its first round.
func (s *Server) HandleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpapi.WriteStatusError(w, http.StatusBadRequest, "malformed shard query body: "+err.Error())
		return
	}
	q := core.Query{
		X: req.X, Y: req.Y, K: req.K, Alpha0: req.Alpha,
		Iq: tia.Interval{Start: req.Start, End: req.End},
	}
	if err := q.Validate(); err != nil {
		httpapi.WriteStatusError(w, http.StatusBadRequest, err.Error())
		return
	}
	gmax := req.Gmax
	sess := &session{}
	var resp *roundResponse
	var searchErr error
	s.Data.View(func(t *core.Tree) {
		sess.version = t.Version()
		// The search must not carry the request context: it lives across
		// requests, and this one's context dies when the handler returns.
		sess.search, searchErr = t.NewSearchWith(q, core.SearchOptions{
			Gmax:  &gmax,
			Stats: &sess.stats,
		})
		if searchErr != nil {
			return
		}
		resp, searchErr = runRound(sess, req.Bound, req.Batch)
	})
	if searchErr != nil {
		httpapi.WriteStatusError(w, http.StatusInternalServerError, searchErr.Error())
		return
	}
	s.mu.Lock()
	s.seq++
	sess.id = s.seq
	resp.Session = sess.id
	if !resp.Done {
		s.admit(sess)
	}
	s.mu.Unlock()
	s.Metrics.addSession()
	s.Metrics.addSessionRound()
	s.Metrics.addCandidates(len(resp.Candidates))
	writeJSON(w, resp)
}

// HandleNext serves one more round of an open session.
func (s *Server) HandleNext(w http.ResponseWriter, r *http.Request) {
	var req nextRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpapi.WriteStatusError(w, http.StatusBadRequest, "malformed shard next body: "+err.Error())
		return
	}
	s.mu.Lock()
	s.sweep()
	sess, ok := s.sessions[req.Session]
	if !ok {
		s.mu.Unlock()
		httpapi.WriteError(w, http.StatusGone, httpapi.CodeGone,
			fmt.Sprintf("shard session %d unknown or expired; restart the search", req.Session), nil)
		return
	}
	if sess.busy {
		s.mu.Unlock()
		httpapi.WriteError(w, http.StatusConflict, httpapi.CodeConflict,
			fmt.Sprintf("shard session %d already serving a round", req.Session), nil)
		return
	}
	sess.busy = true
	s.mu.Unlock()

	var resp *roundResponse
	var drifted bool
	var searchErr error
	s.Data.View(func(t *core.Tree) {
		if t.Version() != sess.version {
			drifted = true
			return
		}
		resp, searchErr = runRound(sess, req.Bound, req.Batch)
	})

	s.mu.Lock()
	sess.busy = false
	switch {
	case drifted, searchErr != nil, resp != nil && resp.Done:
		delete(s.sessions, sess.id)
	default:
		sess.expires = s.clock().Add(s.ttl())
	}
	s.mu.Unlock()

	if drifted {
		s.Metrics.addExpired()
		httpapi.WriteError(w, http.StatusGone, httpapi.CodeGone,
			fmt.Sprintf("shard index mutated under session %d; restart the search", req.Session),
			map[string]any{"session": req.Session})
		return
	}
	if searchErr != nil {
		httpapi.WriteStatusError(w, http.StatusInternalServerError, searchErr.Error())
		return
	}
	resp.Session = sess.id
	s.Metrics.addSessionRound()
	s.Metrics.addCandidates(len(resp.Candidates))
	writeJSON(w, resp)
}

// admit stores a live session, evicting the earliest-expiring one when the
// table is full. Callers hold s.mu.
func (s *Server) admit(sess *session) {
	if s.sessions == nil {
		s.sessions = make(map[uint64]*session)
	}
	s.sweep()
	for len(s.sessions) >= s.maxSessions() {
		var victim *session
		for _, c := range s.sessions {
			if !c.busy && (victim == nil || c.expires.Before(victim.expires)) {
				victim = c
			}
		}
		if victim == nil {
			break
		}
		delete(s.sessions, victim.id)
		s.Metrics.addExpired()
	}
	sess.expires = s.clock().Add(s.ttl())
	s.sessions[sess.id] = sess
}

// sweep drops expired sessions. Callers hold s.mu.
func (s *Server) sweep() {
	now := s.clock()
	for id, sess := range s.sessions {
		if !sess.busy && sess.expires.Before(now) {
			delete(s.sessions, id)
			s.Metrics.addExpired()
		}
	}
}

// runRound advances one session by up to batch candidates, stopping early
// when the frontier's best possible score can no longer beat the global
// bound. The strict > keeps bound-tying candidates flowing so the
// coordinator — not the shard — resolves ties deterministically.
func runRound(sess *session, bound *float64, batch int) (*roundResponse, error) {
	if batch <= 0 {
		batch = 1
	}
	if batch > 4096 {
		batch = 4096
	}
	resp := &roundResponse{Session: sess.id}
	for len(resp.Candidates) < batch {
		if bound != nil {
			if el := sess.search.Peek(); el != nil && el.Score > *bound {
				resp.Pruned, resp.Done = true, true
				break
			}
		}
		res, err := sess.search.Next()
		if err != nil {
			return nil, err
		}
		if res == nil {
			resp.Done = true
			break
		}
		resp.Candidates = append(resp.Candidates, candidate{
			POI: res.POI.ID, X: res.POI.X, Y: res.POI.Y,
			Score: res.Score, S0: res.S0, S1: res.S1, Agg: res.Agg,
		})
	}
	if !resp.Done {
		if el := sess.search.Peek(); el != nil {
			f := el.Score
			resp.Frontier = &f
		} else {
			resp.Done = true
		}
	}
	cur := statsDelta{
		Internal:    sess.stats.InternalAccesses,
		Leaf:        sess.stats.LeafAccesses,
		TIAReads:    sess.stats.TIAAccesses,
		TIAPhysical: sess.stats.TIAPhysical,
		Scored:      sess.stats.Scored,
	}
	resp.Stats = cur.sub(sess.last)
	sess.last = cur
	return resp, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
