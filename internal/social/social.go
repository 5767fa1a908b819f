// Package social is the batteries-included facade of the library: a
// mutable social tagging service addressed by names instead of dense
// ids. It wires together the vocabulary layer (string ↔ id), the
// overlay (dynamic updates + compaction), the core engine (certified
// top-k), and the serving cache — the API a downstream application
// embeds.
//
//	svc, _ := social.NewService(social.DefaultServiceConfig())
//	svc.Befriend("alice", "bob", 0.9)
//	svc.Tag("bob", "luigis", "pizza")
//	res, _ := svc.Do(ctx, search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 5})
//	// res.Results[0].Item == "luigis"
//
// Do (with its DoBatch sibling) is the canonical request/response query
// surface — per-query β, execution mode, paging, explainable answers,
// context cancellation; see internal/search. The positional Search /
// SearchBatch methods are deprecated wrappers over it.
package social

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/proximity"
	"repro/internal/qcache"
	"repro/internal/search"
	"repro/internal/shard"
	"repro/internal/vocab"
)

// Default sizes for the serving-path knobs (applied when the config
// leaves them zero).
const (
	DefaultSeekerCacheSize = 256
	DefaultBatchWorkers    = 4
	// DefaultCacheShards partitions the seeker cache: each shard is
	// independently locked and owns its seekers' horizons, so lookup
	// contention and invalidation work shrink with the shard count
	// (the fleet-wide default from internal/shard).
	DefaultCacheShards = shard.DefaultShards
	// DefaultEdgeScopeLimit caps the number of distinct mutated friend
	// edges one compaction invalidates by scope; past it the service
	// falls back to one global invalidation (cheaper than enumerating).
	DefaultEdgeScopeLimit = 256
	// compactLatencyWindow is the trailing window Stats.CompactLatency
	// summarizes.
	compactLatencyWindow = time.Minute
)

// ServiceConfig tunes a Service.
type ServiceConfig struct {
	// Proximity configures the social proximity model; zero value means
	// α=0.6, self-weight 1, σ-floor 0.05 (a practical horizon).
	Proximity proximity.Params
	// Beta blends social and global scoring (default 1: pure social).
	Beta float64
	// AutoCompactEvery folds mutations into the queryable snapshot
	// after this many writes (default 64; 0 compacts on every write —
	// simplest semantics, highest write cost).
	AutoCompactEvery int
	// SeekerCacheSize bounds the per-seeker horizon cache (see
	// internal/qcache): 0 means DefaultSeekerCacheSize, negative
	// disables caching entirely (every search re-expands the graph).
	// Caching trades eager full-horizon expansion on a miss for reuse
	// on hits; workloads dominated by one-shot seekers should disable
	// it or set MaxHorizonUsers.
	SeekerCacheSize int
	// CacheShards partitions the seeker cache into this many
	// independently locked shards by consistent hashing over the seeker
	// id (0 = DefaultCacheShards). SeekerCacheSize is the TOTAL budget
	// across shards.
	CacheShards int
	// CachePolicy tunes cache admission and expiry (TTL, minimum
	// horizon size, miss-streak admission; see qcache.Policy). The zero
	// value admits everything and never expires.
	CachePolicy qcache.Policy
	// EdgeScopeLimit caps how many distinct mutated friend edges one
	// compaction invalidates by scope (dropping only cached horizons
	// that contain an endpoint) before falling back to a global
	// invalidation. 0 = DefaultEdgeScopeLimit; negative disables edge
	// scoping entirely (every friend compaction invalidates globally —
	// the pre-sharding behaviour).
	EdgeScopeLimit int
	// MaxHorizonUsers truncates materialized horizons to this many
	// users (0 = full horizon, exact answers). A positive bound caps
	// cache-miss cost and entry size; answers for seekers whose
	// neighbourhood exceeds the bound may become approximate.
	MaxHorizonUsers int
	// BatchWorkers bounds the worker pool SearchBatch runs queries on
	// (0 means DefaultBatchWorkers).
	BatchWorkers int
}

// IsZero reports whether the config is entirely unset, so embedders
// (internal/durable) can substitute defaults. ServiceConfig stopped
// being ==-comparable when the cache policy gained a clock field.
func (c ServiceConfig) IsZero() bool {
	return reflect.ValueOf(c).IsZero()
}

// DefaultServiceConfig returns the practical defaults described above.
func DefaultServiceConfig() ServiceConfig {
	return ServiceConfig{
		Proximity:        proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.05},
		Beta:             1.0,
		AutoCompactEvery: 64,
		SeekerCacheSize:  DefaultSeekerCacheSize,
		BatchWorkers:     DefaultBatchWorkers,
	}
}

// Result is one named search result.
type Result struct {
	Item  string
	Score float64
}

// Service is a mutable, name-addressed social tagging search service.
// It is safe for concurrent use; reads see the last compacted snapshot.
// Searches reuse cached seeker horizons (internal/qcache) that are
// invalidated whenever friendship edges reach the snapshot.
type Service struct {
	cfg    ServiceConfig
	caches *shard.Caches // nil when caching is disabled

	// scratch recycles per-query working storage (see doScratch) so the
	// warm read path allocates nothing.
	scratch sync.Pool

	// view is the lock-free read-path snapshot: frozen name
	// dictionaries, the engine snapshot they describe, and the cache
	// shard generations pinned with it — everything doIntoScratch used
	// to take s.mu for. It is republished (atomically swapped) by every
	// compaction; queries that miss a name in the (possibly slightly
	// stale) frozen dictionaries fall back to the locked path. See
	// publishLocked.
	view atomic.Pointer[queryView]

	// degradeHook, when set, is consulted with every normalized request
	// before execution — the overload brownout's entry point for
	// embedders driving the service directly (the HTTP server applies
	// its ladder itself). Returning true marks the response Degraded
	// with its certified score bound.
	degradeHook atomic.Value // func(*search.Request) bool

	// compactLat times every fold of pending writes into the queryable
	// snapshot (see compactLocked); it is only written on the write path.
	compactLat *metrics.Histogram

	mu           sync.Mutex
	names        *vocab.Set
	overlay      *overlay.Overlay
	engine       *overlay.Engine
	writes       int
	friendsDirty bool // friend edges written since the last compaction
	// appliedLSN is the replication cursor: the highest fleet replication
	// log LSN this service has processed (see BefriendAt/TagAt). 0 until
	// the first LSN-stamped mutation arrives; untouched by plain writes.
	appliedLSN uint64
	// dirtyEdges accumulates the distinct friend edges written since
	// the last compaction, for edge-scoped cache invalidation (dirtySet
	// dedups re-declarations of the same edge); edgeOverflow is set
	// when more than EdgeScopeLimit distinct edges accumulated and the
	// next compaction must invalidate globally instead.
	dirtyEdges   [][2]graph.UserID
	dirtySet     map[[2]graph.UserID]struct{}
	edgeOverflow bool
}

// normalizeConfig validates cfg and fills serving-path defaults.
func normalizeConfig(cfg ServiceConfig) (ServiceConfig, error) {
	if cfg.Proximity == (proximity.Params{}) {
		cfg.Proximity = DefaultServiceConfig().Proximity
	}
	if err := cfg.Proximity.Validate(); err != nil {
		return cfg, err
	}
	if cfg.Beta < 0 || cfg.Beta > 1 {
		return cfg, fmt.Errorf("social: beta %g outside [0,1]", cfg.Beta)
	}
	if cfg.AutoCompactEvery < 0 {
		return cfg, fmt.Errorf("social: negative AutoCompactEvery")
	}
	if cfg.SeekerCacheSize == 0 {
		cfg.SeekerCacheSize = DefaultSeekerCacheSize
	}
	if cfg.CacheShards == 0 {
		cfg.CacheShards = DefaultCacheShards
	}
	if cfg.CacheShards < 0 {
		return cfg, fmt.Errorf("social: negative CacheShards")
	}
	if err := cfg.CachePolicy.Validate(); err != nil {
		return cfg, err
	}
	if cfg.EdgeScopeLimit == 0 {
		cfg.EdgeScopeLimit = DefaultEdgeScopeLimit
	}
	if cfg.BatchWorkers == 0 {
		cfg.BatchWorkers = DefaultBatchWorkers
	}
	if cfg.BatchWorkers < 0 {
		return cfg, fmt.Errorf("social: negative BatchWorkers")
	}
	if cfg.MaxHorizonUsers < 0 {
		return cfg, fmt.Errorf("social: negative MaxHorizonUsers")
	}
	return cfg, nil
}

// newSeekerCaches builds the sharded horizon cache the config asks for
// (nil when disabled).
func newSeekerCaches(cfg ServiceConfig) (*shard.Caches, error) {
	if cfg.SeekerCacheSize < 0 {
		return nil, nil
	}
	return shard.NewCaches(shard.CacheConfig{
		Shards:   cfg.CacheShards,
		Capacity: cfg.SeekerCacheSize,
		Policy:   cfg.CachePolicy,
	})
}

// NewService builds an empty service.
func NewService(cfg ServiceConfig) (*Service, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	caches, err := newSeekerCaches(cfg)
	if err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, caches: caches, names: vocab.NewSet(),
		compactLat: metrics.NewHistogram(compactLatencyWindow)}
	if err := s.initEmpty(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Service) initEmpty() error {
	// Start from empty immutable bases; universes grow via the overlay.
	gb := newEmptyGraph()
	st := newEmptyStore()
	o, err := overlay.New(gb, st)
	if err != nil {
		return err
	}
	eng, err := overlay.NewEngine(o, core.Config{Proximity: s.cfg.Proximity, Beta: s.cfg.Beta}, 0)
	if err != nil {
		return err
	}
	s.overlay = o
	s.engine = eng
	s.publishLocked()
	return nil
}

// queryView is the immutable snapshot the lock-free read path works
// against: frozen name dictionaries consistent with (or trailing) eng,
// the engine snapshot itself, and the cache generation observed per
// shard when the view was published. The generations are what make
// pinning safe without s.mu: qcache.Lookup/Put demand an exact
// generation match, so a view published before an invalidation simply
// misses (and its Puts are refused) instead of serving a stale horizon.
type queryView struct {
	users *vocab.Dict
	items *vocab.Dict
	tags  *vocab.Dict
	eng   *core.Engine
	gens  []uint64 // per cache shard; nil when caching is disabled
}

// publishLocked snapshots the current queryable state into an
// atomically swapped view. Called at the end of every compaction (and
// of ApplyInvalidation, which bumps cache generations after
// compacting). Callers hold s.mu — or, in initEmpty, have exclusive
// access.
//
// The frozen dictionaries are reused across publishes until the live
// dictionary outgrows them by ~12.5% (plus a small absolute slack), so
// the total cloning cost stays linear in the vocabulary size even when
// every write compacts. A reader that misses a recently added name in
// a trailing frozen dictionary falls back to the locked path.
func (s *Service) publishLocked() {
	eng, err := s.engine.Current()
	if err != nil {
		// No queryable snapshot; readers take the locked path.
		s.view.Store(nil)
		return
	}
	old := s.view.Load()
	v := &queryView{eng: eng}
	if old != nil {
		v.users = refreshFrozen(old.users, s.names.Users)
		v.items = refreshFrozen(old.items, s.names.Items)
		v.tags = refreshFrozen(old.tags, s.names.Tags)
	} else {
		v.users = s.names.Users.Clone()
		v.items = s.names.Items.Clone()
		v.tags = s.names.Tags.Clone()
	}
	if s.caches != nil {
		n := s.caches.NumShards()
		v.gens = make([]uint64, n)
		for i := 0; i < n; i++ {
			v.gens[i] = s.caches.Shard(i).Generation()
		}
	}
	s.view.Store(v)
}

// refreshFrozen returns frozen when it still covers enough of live
// (dictionaries are append-only, so a prefix clone never goes wrong —
// only stale), and a fresh clone once live has outgrown it.
func refreshFrozen(frozen, live *vocab.Dict) *vocab.Dict {
	if frozen != nil && live.Len() <= frozen.Len()+frozen.Len()/8+64 {
		return frozen
	}
	return live.Clone()
}

// SetDegradeHook installs (or, with nil, clears) the brownout hook
// consulted once per query after normalization. The hook may rewrite
// the request in place (the admission controller downgrades ModeAuto
// to ModeApprox); returning true marks the response Degraded and
// stamps its certified ScoreBound. Safe for concurrent use with Do.
func (s *Service) SetDegradeHook(h func(*search.Request) bool) {
	s.degradeHook.Store(h)
}

// ensureUser interns a user name, growing the universe when new.
// Callers hold s.mu.
func (s *Service) ensureUser(name string) (int32, error) {
	if id, ok := s.names.Users.ID(name); ok {
		return id, nil
	}
	id, err := s.names.Users.Add(name)
	if err != nil {
		return 0, err
	}
	if got := s.overlay.AddUser(); got != id {
		return 0, fmt.Errorf("social: user id drift (%d vs %d)", got, id)
	}
	return id, nil
}

func (s *Service) ensureItem(name string) (int32, error) {
	if id, ok := s.names.Items.ID(name); ok {
		return id, nil
	}
	id, err := s.names.Items.Add(name)
	if err != nil {
		return 0, err
	}
	if got := s.overlay.AddItem(); got != id {
		return 0, fmt.Errorf("social: item id drift (%d vs %d)", got, id)
	}
	return id, nil
}

func (s *Service) ensureTag(name string) (int32, error) {
	if id, ok := s.names.Tags.ID(name); ok {
		return id, nil
	}
	id, err := s.names.Tags.Add(name)
	if err != nil {
		return 0, err
	}
	if got := s.overlay.AddTag(); got != id {
		return 0, fmt.Errorf("social: tag id drift (%d vs %d)", got, id)
	}
	return id, nil
}

// noteWrite applies the auto-compaction policy. Callers hold s.mu.
func (s *Service) noteWrite() error {
	s.writes++
	if s.cfg.AutoCompactEvery == 0 || s.writes >= s.cfg.AutoCompactEvery {
		s.writes = 0
		return s.compactLocked()
	}
	return nil
}

// compactLocked folds pending writes into the queryable snapshot and,
// when friendship edges were among them, invalidates the cached seeker
// horizons those edges could affect: a horizon is dropped only when its
// member set contains a mutated edge's endpoint (edge-scoped
// invalidation; see qcache.InvalidateEdges for why that is sufficient
// under the max-path-product proximity). When more than EdgeScopeLimit
// edges accumulated — or edge scoping is disabled — the service falls
// back to one global invalidation. Tag-only compactions leave the
// cache untouched — tags live in the store, not the graph, so horizons
// stay exact. A call that folded something is timed into
// Stats.CompactLatency. Callers hold s.mu.
func (s *Service) compactLocked() error {
	start := time.Now()
	folds := s.overlay.Compactions()
	if err := s.engine.Compact(); err != nil {
		return err
	}
	if s.friendsDirty {
		s.friendsDirty = false
		edges := s.dirtyEdges
		overflow := s.edgeOverflow
		s.dirtyEdges = nil
		s.dirtySet = nil
		s.edgeOverflow = false
		if s.caches != nil {
			if overflow || len(edges) == 0 {
				s.caches.Invalidate()
			} else {
				s.caches.InvalidateEdges(edges)
			}
		}
	}
	s.publishLocked()
	if s.overlay.Compactions() != folds {
		s.compactLat.Observe(time.Since(start))
	}
	return nil
}

// noteFriendEdge records a mutated friend edge for the next
// compaction's scoped invalidation. Callers hold s.mu.
func (s *Service) noteFriendEdge(a, b graph.UserID) {
	s.friendsDirty = true
	if s.caches == nil {
		return // nothing to invalidate
	}
	if s.edgeOverflow || s.cfg.EdgeScopeLimit < 0 {
		s.edgeOverflow = true
		return
	}
	// Dedup: re-declaring an edge (in either direction) must not count
	// against the distinct-edge cap.
	key := [2]graph.UserID{a, b}
	if b < a {
		key = [2]graph.UserID{b, a}
	}
	if _, seen := s.dirtySet[key]; seen {
		return
	}
	if len(s.dirtyEdges) >= s.cfg.EdgeScopeLimit {
		s.dirtyEdges = nil
		s.dirtySet = nil
		s.edgeOverflow = true
		return
	}
	if s.dirtySet == nil {
		s.dirtySet = make(map[[2]graph.UserID]struct{})
	}
	s.dirtySet[key] = struct{}{}
	s.dirtyEdges = append(s.dirtyEdges, key)
}

// Befriend declares (or strengthens) a friendship between two users,
// creating them as needed. Weight ∈ (0, 1].
func (s *Service) Befriend(a, b string, weight float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.befriendLocked(a, b, weight)
}

func (s *Service) befriendLocked(a, b string, weight float64) error {
	ua, err := s.ensureUser(a)
	if err != nil {
		return err
	}
	ub, err := s.ensureUser(b)
	if err != nil {
		return err
	}
	if err := s.overlay.Befriend(ua, ub, weight); err != nil {
		return err
	}
	s.noteFriendEdge(ua, ub)
	return s.noteWrite()
}

// Tag records that a user annotated an item with a tag, creating any of
// the three as needed.
func (s *Service) Tag(user, item, tag string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tagLocked(user, item, tag)
}

func (s *Service) tagLocked(user, item, tag string) error {
	u, err := s.ensureUser(user)
	if err != nil {
		return err
	}
	i, err := s.ensureItem(item)
	if err != nil {
		return err
	}
	tg, err := s.ensureTag(tag)
	if err != nil {
		return err
	}
	if err := s.overlay.Tag(u, i, tg); err != nil {
		return err
	}
	return s.noteWrite()
}

// ErrReplicationGap reports an LSN-stamped mutation that arrived out of
// order: the record's LSN is more than one ahead of the service's
// replication cursor, so applying it would silently skip history. The
// sender must stream the missing records first (the fleet's catch-up
// path); transports map the class to 409.
var ErrReplicationGap = errors.New("social: replication gap")

// advanceCursor applies the replication-cursor discipline shared by
// BefriendAt and TagAt. Callers hold s.mu. It returns (true, nil) when
// the record was already processed (idempotent dedup), (true, err) when
// the record cannot be accepted yet (gap), and (false, nil) when the
// caller should apply it — the cursor has already advanced, so a
// deterministic validation rejection still counts as processed: every
// replica rejects the identical record identically, and skipping it in
// lockstep is what keeps the fleet bit-identical.
func (s *Service) advanceCursor(lsn uint64) (done bool, err error) {
	switch {
	case lsn <= s.appliedLSN:
		return true, nil
	case lsn != s.appliedLSN+1:
		return true, fmt.Errorf("%w: record lsn %d, applied %d", ErrReplicationGap, lsn, s.appliedLSN)
	}
	s.appliedLSN = lsn
	return false, nil
}

// BefriendAt is the apply-from-replication-log entry point: it applies
// the friendship mutation stamped with fleet replication log LSN lsn,
// with idempotent dedup (a record at or below the cursor is a no-op)
// and strict ordering (a record further ahead than cursor+1 is refused
// with ErrReplicationGap). lsn 0 means "not replicated" and behaves
// exactly like Befriend.
func (s *Service) BefriendAt(lsn uint64, a, b string, weight float64) error {
	if lsn == 0 {
		return s.Befriend(a, b, weight)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if done, err := s.advanceCursor(lsn); done {
		return err
	}
	return s.befriendLocked(a, b, weight)
}

// TagAt is BefriendAt's tagging sibling: apply the tagging mutation
// stamped with replication log LSN lsn, deduplicated and
// order-checked against the replication cursor.
func (s *Service) TagAt(lsn uint64, user, item, tag string) error {
	if lsn == 0 {
		return s.Tag(user, item, tag)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if done, err := s.advanceCursor(lsn); done {
		return err
	}
	return s.tagLocked(user, item, tag)
}

// SkipLSN marks a record as processed without applying anything, under
// the same cursor discipline as BefriendAt (dedup below the cursor,
// ErrReplicationGap ahead of it). The durable wrapper uses it when it
// deterministically rejects a record before logging: every replica
// skips the identical record identically, so the cursors stay in
// lockstep without a no-op record in the local log.
func (s *Service) SkipLSN(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.advanceCursor(lsn)
	return err
}

// AppliedLSN returns the replication cursor: the highest replication
// log LSN this service has processed (0 before any).
func (s *Service) AppliedLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appliedLSN
}

// SetReplicationCursor restores the replication cursor to lsn without
// applying anything, advance-only: a value at or below the current
// cursor is a no-op. Recovery paths use it — a durable replica
// replaying its own WAL applies stamped records as plain mutations and
// then restores the cursor from the record's embedded LSN, and a
// snapshot import stamps the restored state with the LSN it was
// exported at — so a restarted or bootstrapped replica resumes the
// fleet stream from its cursor instead of restreaming history. It must
// never be used on the live apply path, where advanceCursor enforces
// the gap discipline.
func (s *Service) SetReplicationCursor(lsn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lsn > s.appliedLSN {
		s.appliedLSN = lsn
	}
}

// Flush forces pending writes into the queryable snapshot.
func (s *Service) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes = 0
	return s.compactLocked()
}

// ApplyInvalidation is the replica-side half of the fleet's write-path
// invalidation broadcast (see internal/fleet.Broadcaster and the
// server's /v2/invalidate endpoint): it folds pending writes into the
// queryable snapshot — which already performs edge-scoped invalidation
// for the dirty edges this process tracked itself — and then drops, by
// name, the cached horizons the broadcast edges could affect. The
// explicit edge list matters when this process did not observe the
// mutations (a replica fed by an out-of-band channel, or one that was
// ejected while the fleet kept writing); names unknown locally are
// skipped, since no id — and therefore no cached horizon member set —
// can reference them. With all set the whole cache is logically
// dropped instead (the escalation path for a replica that missed a
// broadcast). Returns the number of entries invalidated.
func (s *Service) ApplyInvalidation(edges [][2]string, all bool) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes = 0
	if err := s.compactLocked(); err != nil {
		return 0, err
	}
	if s.caches == nil {
		return 0, nil
	}
	if all {
		n := s.caches.Len()
		s.caches.Invalidate()
		s.publishLocked()
		return n, nil
	}
	ids := make([][2]graph.UserID, 0, len(edges))
	for _, e := range edges {
		ua, ok := s.names.Users.ID(e[0])
		if !ok {
			continue
		}
		ub, ok := s.names.Users.ID(e[1])
		if !ok {
			continue
		}
		ids = append(ids, [2]graph.UserID{ua, ub})
	}
	if len(ids) == 0 {
		return 0, nil
	}
	n := s.caches.InvalidateEdges(ids)
	s.publishLocked()
	return n, nil
}

// Search answers seeker's top-k query over tag names with exact scores
// (the ModeExact refine path). Unknown tags are an error (a deployment
// would typically treat them as empty); unknown seekers are an error.
// Answers are exact unless MaxHorizonUsers is set: a truncated horizon
// makes answers for seekers whose neighbourhood exceeds the bound
// approximate.
//
// When the seeker cache is enabled, the expensive half of the query —
// expanding the seeker's social neighbourhood — is reused across that
// seeker's searches until a friendship mutation reaches the snapshot.
//
// Deprecated: use Do, which carries a context, per-query options and an
// explainable answer. Search keeps the v1 positional signature and its
// strict rejection of k < 1 (where Do defaults k = 0), but now routes
// through Do's central normalization: tag names are comma-split and
// whitespace-trimmed, and k is capped at search.MaxK — embedders that
// stored tag names containing commas or padding, or asked for more
// than search.MaxK results, see different answers than under v1.
func (s *Service) Search(seeker string, tags []string, k int) ([]Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("social: k = %d, must be >= 1 (Do defaults k = 0)", k)
	}
	resp, err := s.Do(context.Background(), search.Request{
		Seeker: seeker, Tags: tags, K: k, Mode: search.ModeExact,
	})
	if err != nil {
		return nil, err
	}
	out := make([]Result, 0, len(resp.Results))
	for _, r := range resp.Results {
		out = append(out, Result{Item: r.Item, Score: r.Score})
	}
	return out, nil
}

// Users returns all known user names in id order.
func (s *Service) Users() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.names.Users.Names()...)
}

// Stats summarizes the service state.
type Stats struct {
	Users, Items, Tags int
	PendingWrites      int
	Compactions        int
	// CompactLatency summarizes, over the trailing minute, how long each
	// fold of pending writes into the queryable snapshot took: the delta
	// merge, the engine swap, cache invalidation and the view publish.
	CompactLatency metrics.HistogramSnapshot
	// AppliedLSN is the replication cursor (0 outside fleet-replica
	// posture): the highest replication log LSN processed.
	AppliedLSN uint64
	// SeekerCache reports the horizon cache fleet's aggregated
	// effectiveness counters (all zero when caching is disabled).
	SeekerCache metrics.CacheSnapshot
	// SeekerCacheEntries is the number of resident cache entries across
	// all shards.
	SeekerCacheEntries int
	// SeekerCacheShards reports each cache shard's entry count and
	// counters (nil when caching is disabled), so hot and cold shards
	// are observable per shard.
	SeekerCacheShards []shard.Snapshot
}

// Stats returns current counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	pe, pt := s.overlay.Pending()
	st := Stats{
		Users:          s.names.Users.Len(),
		Items:          s.names.Items.Len(),
		Tags:           s.names.Tags.Len(),
		PendingWrites:  pe + pt,
		Compactions:    s.overlay.Compactions(),
		CompactLatency: s.compactLat.Snapshot(),
		AppliedLSN:     s.appliedLSN,
	}
	if s.caches != nil {
		st.SeekerCache = s.caches.Counters()
		st.SeekerCacheEntries = s.caches.Len()
		st.SeekerCacheShards = s.caches.PerShard()
	}
	return st
}
