package engine

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"rankopt/internal/plan"
)

// cacheShards is the shard count of the plan cache: a small power of two,
// plenty to keep 8-16 session workers from serializing on one mutex.
const cacheShards = 16

// shardCap bounds the entries per shard per map. The workloads this engine
// serves repeat a small set of query shapes, so the bound exists only to
// keep a pathological client (e.g. fingerprint-unique generated SQL) from
// growing the maps without limit; eviction is arbitrary-victim, which is
// adequate at this size.
const shardCap = 256

// CacheStats is a point-in-time snapshot of plan-cache effectiveness.
type CacheStats struct {
	// Hits counts sessions served from a cached template (whether the hit
	// came from the SQL-text level or the fingerprint level).
	Hits uint64
	// Misses counts sessions that ran the full parse+optimize pipeline.
	Misses uint64
	// Invalidations counts cache entries discarded because the catalog
	// statistics epoch moved past them.
	Invalidations uint64
	// Entries is the current number of cached plan templates.
	Entries int
}

// planCache is the engine's sharded, concurrency-safe plan cache. It has
// two levels keyed independently:
//
//   - text level: raw SQL string → (fingerprint, k). A repeat of the exact
//     request text skips lexing and parsing entirely.
//   - plan level: canonical fingerprint (sqlparse.Fingerprint, k
//     parameterized out) → *plan.Template. Lexically different spellings of
//     one query, or the same query at a different k, share the template and
//     skip optimization.
//
// A nil *planCache is the disabled cache: every lookup misses and every store
// and count is dropped, so the planner has one path with the cache on or off.
//
// Every entry records the catalog statistics epoch it was planned under;
// lookups treat entries from older epochs as misses and overwrite them, so
// RefreshStats/AddTable/CreateIndex invalidate lazily without any
// cross-shard coordination. Templates are immutable once published (see
// plan.Template), which is what makes sharing them across sessions safe.
type planCache struct {
	seed   maphash.Seed
	shards [cacheShards]cacheShard

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

type cacheShard struct {
	mu sync.Mutex
	// text maps raw SQL → parse outcome (guarded by mu; keyed into the
	// shard by the hash of the SQL text).
	text map[string]textEntry
	// plans maps fingerprint → template (guarded by mu; keyed into the
	// shard by the hash of the fingerprint).
	plans map[string]planEntry
}

type textEntry struct {
	fingerprint string
	k           int
	epoch       uint64
}

type planEntry struct {
	tmpl  *plan.Template
	epoch uint64
}

func newPlanCache() *planCache {
	c := &planCache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].text = make(map[string]textEntry)
		c.shards[i].plans = make(map[string]planEntry)
	}
	return c
}

func (c *planCache) shardFor(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)&(cacheShards-1)]
}

// lookupText resolves raw SQL to (fingerprint, k) if this exact text was
// parsed under the current epoch.
func (c *planCache) lookupText(sql string, epoch uint64) (fp string, k int, ok bool) {
	if c == nil {
		return "", 0, false
	}
	s := c.shardFor(sql)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.text[sql]
	if !ok {
		return "", 0, false
	}
	if e.epoch != epoch {
		delete(s.text, sql)
		return "", 0, false
	}
	return e.fingerprint, e.k, true
}

// lookupPlan resolves a fingerprint to its cached template under the
// current catalog-stats epoch.
func (c *planCache) lookupPlan(fp string, epoch uint64) (*plan.Template, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.plans[fp]
	if !ok {
		return nil, false
	}
	if e.epoch != epoch {
		delete(s.plans, fp)
		c.invalidations.Add(1)
		return nil, false
	}
	return e.tmpl, true
}

// storeText records the text → fingerprint mapping.
func (c *planCache) storeText(sql, fp string, k int, epoch uint64) {
	if c == nil {
		return
	}
	s := c.shardFor(sql)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.text) >= shardCap {
		evictOne(s.text)
	}
	s.text[sql] = textEntry{fingerprint: fp, k: k, epoch: epoch}
}

// storePlan publishes a template under its fingerprint.
func (c *planCache) storePlan(fp string, tmpl *plan.Template, epoch uint64) {
	if c == nil {
		return
	}
	s := c.shardFor(fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.plans) >= shardCap {
		evictOne(s.plans)
	}
	s.plans[fp] = planEntry{tmpl: tmpl, epoch: epoch}
}

// miss counts a session that ran the full parse+optimize pipeline.
func (c *planCache) miss() {
	if c != nil {
		c.misses.Add(1)
	}
}

// evictOne removes an arbitrary entry (Go map iteration order serves as a
// cheap random victim pick).
func evictOne[V any](m map[string]V) {
	for k := range m {
		delete(m, k)
		return
	}
}

// stats snapshots the counters and entry count.
func (c *planCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.plans)
		s.mu.Unlock()
	}
	return st
}
