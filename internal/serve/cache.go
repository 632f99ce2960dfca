package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"agingfp/internal/obs"
)

// resultCache is the content-addressed result store: completed job
// results are kept under the canonical hash of the request that
// produced them, so resubmitting a byte-identical workload is answered
// from memory with the exact bytes of the first run — no solver work,
// no re-marshaling drift.
//
// The floorplanner is deterministic for a fixed request (fixed seed,
// fixed design, fixed options), which is what makes caching sound: the
// cached bytes are the bytes a fresh run would produce.
// Cache occupancy and churn are exported alongside the hit/miss
// counters Submit maintains, so /metrics tells the whole cache story:
// hits vs misses (effectiveness), entries (occupancy against the
// configured bound), evictions (churn — a high rate at full occupancy
// means the working set exceeds CacheEntries).
// A second, semantic tier sits under the exact one: design submissions
// are canonicalized (internal/canon), and the solve result of the
// canonical instance is stored under the canonical hash plus solver
// options. A renumbered-but-isomorphic resubmission misses the exact
// tier (different bytes) but hits the semantic tier, and the stored
// canonical result is re-rendered through the new request's own op
// permutation — producing exactly the bytes a cold solve of that
// submission would have produced, because cold solves of design
// submissions also solve the canonical instance and render the same
// way. Semantic entries additionally carry the solve's artifact set
// (frozen rotations, ST bracket, LP bases) for the delta API.
//
// Submit looks the exact tier up before it decodes or canonicalizes
// anything, so an exact entry holds everything a hit needs (see
// exactEntry) and skipping validation on a hit rests on one invariant:
// a key enters the exact tier only after its request validated and
// solved, or after a semantic hit that validated it promoted it. The
// same key means the same parsed request document, so it would validate
// again.
type resultCache struct {
	mu      sync.Mutex
	entries map[string]*exactEntry
	order   []string // insertion order, for FIFO eviction
	sem     map[string]*semanticEntry
	semOrd  []string
	cap     int
	reg     *obs.Registry
}

// exactEntry is one exact-tier record: the result bytes plus what a hit
// needs besides them — the semantic key and op/context permutations
// that rebind the semantic tier's delta artifacts to this numbering,
// and the workload shape the hit's wide event reports (its name is the
// request's own). It is written whole in one put and never changed, so
// no hit sees a partial entry.
type exactEntry struct {
	result   []byte
	semKey   string // "" for bench workloads
	opPerm   []int  // client op index -> solved index; nil = identity
	ctxPerm  []int
	ops      int
	contexts int
}

// semanticEntry is one semantic-tier record: the rendering-agnostic
// canonical result plus the artifacts a delta re-solve seeds from.
type semanticEntry struct {
	result    *canonResult
	artifacts *solveArtifacts
}

func newResultCache(capacity int, reg *obs.Registry) *resultCache {
	if capacity < 1 {
		capacity = 1
	}
	return &resultCache{
		entries: make(map[string]*exactEntry),
		sem:     make(map[string]*semanticEntry),
		cap:     capacity,
		reg:     reg,
	}
}

func (c *resultCache) get(key string) (*exactEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return e, ok
}

// put stores e under key and, when sem is non-nil, the semantic entry
// under e.semKey, both under one lock: a Submit that finds the exact
// entry also finds the delta artifacts its semantic key names, and one
// that finds the semantic entry finds the exact entry too. The first
// writer of a key wins, so replays stay byte-identical; put returns the
// stored exact entry and whether it is e.
func (c *resultCache) put(key string, e *exactEntry, sem *semanticEntry) (*exactEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sem != nil {
		c.putSemantic(e.semKey, sem)
	}
	if old, exists := c.entries[key]; exists {
		return old, false
	}
	for len(c.entries) >= c.cap && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
		c.reg.Counter(`agingfp_serve_cache_evictions_total`).Inc()
	}
	c.entries[key] = e
	c.order = append(c.order, key)
	c.reg.Gauge(`agingfp_serve_cache_entries`).Set(float64(len(c.entries)))
	return e, true
}

// semanticKey derives the semantic-tier key: the canonical design hash
// mixed with every solver option that is part of workload identity
// (DeadlineMs stays excluded here too — delivery policy, not work).
func semanticKey(canonHash, mode string, seed, timeLimitMs int64) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%d|%d", canonHash, mode, seed, timeLimitMs)))
	return hex.EncodeToString(sum[:])
}

func (c *resultCache) getSemantic(key string) (*semanticEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.sem[key]
	return e, ok
}

// putSemantic stores a semantic entry; put calls it holding c.mu.
func (c *resultCache) putSemantic(key string, e *semanticEntry) {
	if _, exists := c.sem[key]; exists {
		return // first result wins, mirroring the exact tier
	}
	for len(c.sem) >= c.cap && len(c.semOrd) > 0 {
		oldest := c.semOrd[0]
		c.semOrd = c.semOrd[1:]
		delete(c.sem, oldest)
		c.reg.Counter(`agingfp_serve_cache_evictions_total`).Inc()
	}
	c.sem[key] = e
	c.semOrd = append(c.semOrd, key)
	c.reg.Gauge(`agingfp_serve_cache_semantic_entries`).Set(float64(len(c.sem)))
}
