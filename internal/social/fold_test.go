package social

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
)

// foldService is a service that folds only on Flush.
func foldService(t *testing.T) *Service {
	t.Helper()
	cfg := DefaultServiceConfig()
	cfg.AutoCompactEvery = 1 << 30
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// topItems runs an exact search and returns the result item names.
func topItems(t *testing.T, svc *Service, seeker, tag string) []string {
	t.Helper()
	resp, err := svc.Do(context.Background(), search.Request{
		Seeker: seeker, Tags: []string{tag}, K: 10, Mode: search.ModeExact,
	})
	if err != nil {
		t.Fatal(err)
	}
	var items []string
	for _, r := range resp.Results {
		items = append(items, r.Item)
	}
	return items
}

// TestTagOnlyFoldVisible: a fold carrying only a tag by an existing user
// keeps the snapshot graph, and the next query must still see the tag.
func TestTagOnlyFoldVisible(t *testing.T) {
	svc := foldService(t)
	for _, err := range []error{
		svc.Befriend("alice", "bob", 0.9),
		svc.Tag("bob", "luigis", "pizza"),
		svc.Flush(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := topItems(t, svc, "alice", "pizza"); len(got) != 1 {
		t.Fatalf("before the fold: %v", got)
	}
	g0, _ := svc.overlay.Snapshot()
	if err := svc.Tag("bob", "marios", "pizza"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	if g1, _ := svc.overlay.Snapshot(); g1 != g0 {
		t.Fatal("tag-only fold rebuilt the graph")
	}
	if got := topItems(t, svc, "alice", "pizza"); !slices.Contains(got, "marios") {
		t.Fatalf("tag-only fold invisible to the next query: %v", got)
	}
}

// TestBefriendOnlyFoldVisible: a fold carrying only a friendship between
// existing users keeps the snapshot store, and the next query (whose
// seeker horizon is cached) must see the new friend's items.
func TestBefriendOnlyFoldVisible(t *testing.T) {
	svc := foldService(t)
	for _, err := range []error{
		svc.Befriend("alice", "bob", 0.9),
		svc.Tag("bob", "luigis", "pizza"),
		svc.Tag("carol", "napoli", "pizza"),
		svc.Flush(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := topItems(t, svc, "alice", "pizza"); slices.Contains(got, "napoli") {
		t.Fatalf("before the fold: %v", got)
	}
	_, s0 := svc.overlay.Snapshot()
	if err := svc.Befriend("alice", "carol", 0.8); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, s1 := svc.overlay.Snapshot(); s1 != s0 {
		t.Fatal("befriend-only fold rebuilt the store")
	}
	if got := topItems(t, svc, "alice", "pizza"); !slices.Contains(got, "napoli") {
		t.Fatalf("befriend-only fold invisible to the next query: %v", got)
	}
}

// TestFoldsReleaseOldSnapshots: after 100 folds with queries between
// them, every superseded engine and store is collectable — nothing
// (pooled merge runs in particular) pins dead snapshots. Finalizers
// count collections: an engine's finalizer runs after the first GC that
// finds it unreachable, and its store's after the next one. Automatic
// GC is off during the folds, so a pool that keeps whatever it served
// since the last GC would pin every engine, not just the latest few.
func TestFoldsReleaseOldSnapshots(t *testing.T) {
	const folds = 100
	svc := foldService(t)
	var engines, stores atomic.Int64
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < folds; i++ {
		if err := svc.Befriend(fmt.Sprintf("u%d", i), fmt.Sprintf("u%d", i+1), 0.5); err != nil {
			t.Fatal(err)
		}
		if err := svc.Tag(fmt.Sprintf("u%d", i+1), fmt.Sprintf("item%d", i%7), "t"); err != nil {
			t.Fatal(err)
		}
		if err := svc.Flush(); err != nil {
			t.Fatal(err)
		}
		eng, err := svc.engine.Current()
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(eng, func(any) { engines.Add(1) })
		runtime.SetFinalizer(eng.Store(), func(any) { stores.Add(1) })
		for _, seeker := range []string{"u0", fmt.Sprintf("u%d", i)} {
			topItems(t, svc, seeker, "t")
		}
	}
	// Every fold replaced both halves, so each fold's engine and store
	// is distinct; all but the live pair are garbage.
	const slack = 3
	want := int64(folds - 1 - slack)
	awaitFinalized := func(what string, n *atomic.Int64) {
		t.Helper()
		runtime.GC()
		for deadline := time.Now().Add(5 * time.Second); n.Load() < want; {
			if time.Now().After(deadline) {
				t.Fatalf("after %d folds only %d %s were collected, want >= %d", folds, n.Load(), what, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	awaitFinalized("engines", &engines)
	awaitFinalized("stores", &stores)
	runtime.KeepAlive(svc)
}

// TestCompactLatencyCountsFolds: Stats.CompactLatency records one
// observation per fold that changed the snapshot — a Flush with nothing
// pending records none — and /metrics exports it under the documented
// name.
func TestCompactLatencyCountsFolds(t *testing.T) {
	svc := foldService(t)
	for _, err := range []error{
		svc.Tag("bob", "luigis", "pizza"),
		svc.Flush(),
		svc.Flush(),
		svc.Befriend("alice", "bob", 0.9),
		svc.Flush(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.CompactLatency.Count != 2 || st.Compactions != 2 {
		t.Fatalf("CompactLatency.Count = %d, Compactions = %d; want 2 and 2",
			st.CompactLatency.Count, st.Compactions)
	}
	if st.CompactLatency.Max <= 0 {
		t.Fatalf("CompactLatency.Max = %v, want > 0", st.CompactLatency.Max)
	}
	var buf bytes.Buffer
	obs.WriteProm(&buf, "friendserve", st)
	for _, want := range []string{
		`friendserve_compact_latency_seconds{quantile="0.99"}`,
		"friendserve_compact_latency_count 2",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics exposition lacks %q", want)
		}
	}
}
