package social

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/tagstore"
	"repro/internal/vocab"
)

// Snapshot flushes pending writes and returns the compacted immutable
// state: the (graph, store) pair the engine queries, plus an
// independent copy of the vocabularies. The graph and store are
// immutable by construction; the vocabulary copy is safe to persist
// while writers keep appending to the live service. This is the export
// half of the persistence contract (see Restore and internal/durable).
func (s *Service) Snapshot() (*graph.Graph, *tagstore.Store, *vocab.Set, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes = 0
	if err := s.compactLocked(); err != nil {
		return nil, nil, nil, err
	}
	g, st := s.overlay.Snapshot()
	names := &vocab.Set{
		Users: s.names.Users.Clone(),
		Items: s.names.Items.Clone(),
		Tags:  s.names.Tags.Clone(),
	}
	return g, st, names, nil
}

// Restore rebuilds a service from a state previously exported by
// Snapshot. The vocabularies must agree with the structural universes
// (same user/item/tag counts); ownership of all four arguments passes
// to the service.
func Restore(cfg ServiceConfig, g *graph.Graph, st *tagstore.Store, names *vocab.Set) (*Service, error) {
	if g == nil || st == nil || names == nil || names.Users == nil || names.Items == nil || names.Tags == nil {
		return nil, fmt.Errorf("social: Restore with nil state")
	}
	if names.Users.Len() != g.NumUsers() {
		return nil, fmt.Errorf("social: %d user names for %d graph users", names.Users.Len(), g.NumUsers())
	}
	if names.Items.Len() != st.NumItems() {
		return nil, fmt.Errorf("social: %d item names for %d store items", names.Items.Len(), st.NumItems())
	}
	if names.Tags.Len() != st.NumTags() {
		return nil, fmt.Errorf("social: %d tag names for %d store tags", names.Tags.Len(), st.NumTags())
	}
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	caches, err := newSeekerCaches(cfg)
	if err != nil {
		return nil, err
	}
	o, err := overlay.New(g, st)
	if err != nil {
		return nil, err
	}
	eng, err := overlay.NewEngine(o, core.Config{Proximity: cfg.Proximity, Beta: cfg.Beta}, 0)
	if err != nil {
		return nil, err
	}
	return &Service{cfg: cfg, caches: caches, names: names, overlay: o, engine: eng,
		compactLat: metrics.NewHistogram(compactLatencyWindow)}, nil
}
