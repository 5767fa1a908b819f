package overlay

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// benchOverlay wraps the paper-sized Delicious-shaped corpus (2,000
// users, ~220k triples) in an overlay.
func benchOverlay(b *testing.B) *Overlay {
	b.Helper()
	ds, err := gen.Generate(gen.DeliciousParams(), 1)
	if err != nil {
		b.Fatal(err)
	}
	o, err := New(ds.Graph, ds.Store)
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkCompactOneBefriend: one friendship folded into the snapshot
// per op — the graph-side merge alone (the store is kept).
func BenchmarkCompactOneBefriend(b *testing.B) {
	o := benchOverlay(b)
	g, _ := o.Snapshot()
	n := g.NumUsers()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := int32(rng.Intn(n))
		v := (u + 1 + int32(rng.Intn(n-1))) % int32(n)
		if err := o.Befriend(u, v, 0.5); err != nil {
			b.Fatal(err)
		}
		if err := o.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompactOneTag: one tagging action folded into the snapshot
// per op — the store-side merge alone (the graph is kept).
func BenchmarkCompactOneTag(b *testing.B) {
	o := benchOverlay(b)
	_, s := o.Snapshot()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := o.Tag(int32(rng.Intn(s.NumUsers())), int32(rng.Intn(s.NumItems())), int32(rng.Intn(s.NumTags())))
		if err != nil {
			b.Fatal(err)
		}
		if err := o.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}
