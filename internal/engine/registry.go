package engine

// This file is the live query registry: every admitted session gets a
// numeric ID and a lock-free per-session state machine
// (queued→planning→executing→merging→done/aborted) carrying rank-aware
// progress — tuples emitted vs. k, the current k-th score vs. the best bound
// any live source could still produce, per-shard liveness. Observers snapshot
// it without blocking execution (/debug/queries, the REPL \queries command),
// and any running session can be aborted by ID (POST
// /debug/queries/{id}/cancel), which cancels the session's derived context
// and surfaces exec.ErrQueryCancelled in its Response.

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rankopt/internal/exec"
)

// QueryState is one session's position in the registry's state machine.
type QueryState uint32

const (
	QueryQueued QueryState = iota
	QueryPlanning
	QueryExecuting
	// QueryMerging: a sharded session whose gather finished and whose
	// coordinator is assembling the final ranked winners.
	QueryMerging
	QueryDone
	QueryAborted
)

// String renders the state the way /debug/queries spells it.
func (s QueryState) String() string {
	switch s {
	case QueryQueued:
		return "queued"
	case QueryPlanning:
		return "planning"
	case QueryExecuting:
		return "executing"
	case QueryMerging:
		return "merging"
	case QueryDone:
		return "done"
	case QueryAborted:
		return "aborted"
	}
	return "unknown"
}

// queryEntry is one registered session. The running session's goroutine
// stores into the atomic fields; observers load them. cancel, clientID, sql,
// and start are written once before the entry becomes visible; errMsg is an
// atomic pointer because finish races with late snapshots.
type queryEntry struct {
	id       uint64
	clientID string
	sql      string
	start    time.Time
	cancel   context.CancelFunc

	state    atomic.Uint32
	k        atomic.Int64
	endNanos atomic.Int64
	errMsg   atomic.Pointer[string]
	prog     exec.Progress
}

func (en *queryEntry) setState(s QueryState) { en.state.Store(uint32(s)) }

// recentQueries bounds the ring of finished sessions kept for post-hoc
// inspection (a done/aborted query stays visible briefly on /debug/queries).
const recentQueries = 32

// queryRegistry tracks the live sessions plus a small ring of recent ones.
// Registration, state transitions, and snapshots are lock-free on the query
// path; only the finished ring takes a mutex (once per session, at the end).
type queryRegistry struct {
	nextID atomic.Uint64
	live   sync.Map // uint64 → *queryEntry

	mu     sync.Mutex
	recent []*queryEntry
}

// register admits one session: assigns its ID, publishes the entry in the
// live map, and returns it in the queued state.
func (r *queryRegistry) register(clientID, sql string, cancel context.CancelFunc) *queryEntry {
	en := &queryEntry{
		id:       r.nextID.Add(1),
		clientID: clientID,
		sql:      sql,
		start:    time.Now(),
		cancel:   cancel,
	}
	r.live.Store(en.id, en)
	return en
}

// finish retires one session: records its terminal state and error, moves it
// from the live map to the recent ring.
func (r *queryRegistry) finish(en *queryEntry, err error) {
	en.endNanos.Store(time.Since(en.start).Nanoseconds())
	if err != nil {
		msg := err.Error()
		en.errMsg.Store(&msg)
		en.setState(QueryAborted)
	} else {
		en.setState(QueryDone)
	}
	r.live.Delete(en.id)
	r.mu.Lock()
	r.recent = append(r.recent, en)
	if len(r.recent) > recentQueries {
		r.recent = r.recent[len(r.recent)-recentQueries:]
	}
	r.mu.Unlock()
}

// cancelByID aborts a live session. Reports whether the ID named one.
func (r *queryRegistry) cancelByID(id uint64) bool {
	v, ok := r.live.Load(id)
	if !ok {
		return false
	}
	v.(*queryEntry).cancel()
	return true
}

// QueryInfo is one registry row as served on /debug/queries. Score fields
// are pointers so unknown values (NaN internally) serialize as absent JSON
// keys instead of breaking the encoder.
type QueryInfo struct {
	ID       uint64 `json:"id"`
	ClientID string `json:"client_id,omitempty"`
	SQL      string `json:"sql"`
	State    string `json:"state"`
	Sharded  bool   `json:"sharded,omitempty"`
	// K is the session's top-k bound (0 until planned / for unbounded).
	K int64 `json:"k,omitempty"`
	// ElapsedMillis is time since admission for live sessions, the total
	// session wall time for finished ones.
	ElapsedMillis float64 `json:"elapsed_ms"`
	// Emitted counts result tuples produced so far; with K it is the
	// rank-aware progress fraction.
	Emitted int64 `json:"emitted"`
	// KthScore is the current k-th (lowest surviving) buffered score;
	// MergeBound is the best score any still-live source could produce. The
	// query converges exactly when MergeBound ≤ KthScore.
	KthScore   *float64 `json:"kth_score,omitempty"`
	MergeBound *float64 `json:"merge_bound,omitempty"`
	// ShardsLive/ShardsDone/ShardsTotal report the fan-out of a sharded
	// session (all zero on the single path).
	ShardsLive  int32  `json:"shards_live,omitempty"`
	ShardsDone  int32  `json:"shards_done,omitempty"`
	ShardsTotal int32  `json:"shards_total,omitempty"`
	Error       string `json:"error,omitempty"`
}

// jsonScore boxes a float for omitempty-style JSON, dropping NaN/±Inf.
func jsonScore(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// info snapshots one entry. Fields are loaded independently — monitoring
// cadence, not transaction cadence.
func (en *queryEntry) info() QueryInfo {
	ps := en.prog.Snapshot()
	state := QueryState(en.state.Load())
	if state == QueryExecuting && ps.Merging {
		state = QueryMerging
	}
	elapsed := time.Since(en.start)
	if end := en.endNanos.Load(); end > 0 {
		elapsed = time.Duration(end)
	}
	qi := QueryInfo{
		ID:            en.id,
		ClientID:      en.clientID,
		SQL:           en.sql,
		State:         state.String(),
		Sharded:       ps.ShardsTotal > 0,
		K:             en.k.Load(),
		ElapsedMillis: float64(elapsed.Nanoseconds()) / 1e6,
		Emitted:       ps.Emitted,
		KthScore:      jsonScore(ps.Kth),
		MergeBound:    jsonScore(ps.Bound),
		ShardsLive:    ps.ShardsLive,
		ShardsDone:    ps.ShardsDone,
		ShardsTotal:   ps.ShardsTotal,
	}
	if msg := en.errMsg.Load(); msg != nil {
		qi.Error = *msg
	}
	return qi
}

// snapshot lists the live sessions (ascending ID) followed by the recent
// ring (oldest first).
func (r *queryRegistry) snapshot() []QueryInfo {
	var livers []*queryEntry
	r.live.Range(func(_, v any) bool {
		livers = append(livers, v.(*queryEntry))
		return true
	})
	for i := 1; i < len(livers); i++ {
		for j := i; j > 0 && livers[j-1].id > livers[j].id; j-- {
			livers[j-1], livers[j] = livers[j], livers[j-1]
		}
	}
	out := make([]QueryInfo, 0, len(livers)+recentQueries)
	for _, en := range livers {
		out = append(out, en.info())
	}
	r.mu.Lock()
	recent := append([]*queryEntry(nil), r.recent...)
	r.mu.Unlock()
	for _, en := range recent {
		out = append(out, en.info())
	}
	return out
}

// Queries snapshots the live query registry: running sessions first
// (ascending ID), then up to recentQueries finished ones. Safe to call from
// any goroutine while traffic runs.
func (e *Engine) Queries() []QueryInfo { return e.reg.snapshot() }

// CancelQuery aborts the live session with the given registry ID; its
// Response surfaces exec.ErrQueryCancelled. Reports whether the ID named a
// live session.
func (e *Engine) CancelQuery(id uint64) bool { return e.reg.cancelByID(id) }
