package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// oracleBuild is the map-dedup, sort-each-row construction
// Builder.Build used before it became a Merge onto the empty graph. It
// is kept as the reference Merge must reproduce bit for bit.
func oracleBuild(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, errors.New("graph: negative user count")
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop on user %d", e.U)
		}
		if e.Weight <= 0 || e.Weight > 1 {
			return nil, fmt.Errorf("graph: edge (%d,%d) weight %g outside (0,1]", e.U, e.V, e.Weight)
		}
	}
	type key struct{ a, b UserID }
	best := make(map[key]float64, len(edges))
	for _, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if w, ok := best[key{u, v}]; !ok || e.Weight > w {
			best[key{u, v}] = e.Weight
		}
	}
	deg := make([]int32, n+1)
	for k := range best {
		deg[k.a+1]++
		deg[k.b+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	adj := make([]UserID, deg[n])
	wts := make([]float64, deg[n])
	cursor := append([]int32(nil), deg[:n]...)
	for k, w := range best {
		for _, p := range [2][2]UserID{{k.a, k.b}, {k.b, k.a}} {
			adj[cursor[p[0]]], wts[cursor[p[0]]] = p[1], w
			cursor[p[0]]++
		}
	}
	for u := 0; u < n; u++ {
		lo, hi := int(deg[u]), int(deg[u+1])
		row, rw := adj[lo:hi], wts[lo:hi]
		idx := make([]int, len(row))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return row[idx[i]] < row[idx[j]] })
		nr, nw := make([]UserID, len(row)), make([]float64, len(row))
		for i, k := range idx {
			nr[i], nw[i] = row[k], rw[k]
		}
		copy(row, nr)
		copy(rw, nw)
	}
	return &Graph{numUsers: n, offsets: deg, adj: adj, weights: wts}, nil
}

// randomEdges draws n edges over users; a share re-declare edges of
// base or of the draw itself, at a random (often lower) weight.
func randomEdges(rng *rand.Rand, users int, base []Edge, n int) []Edge {
	out := make([]Edge, 0, n)
	for len(out) < n {
		var e Edge
		switch r := rng.Intn(10); {
		case r < 3 && len(base) > 0:
			e = base[rng.Intn(len(base))]
		case r < 5 && len(out) > 0:
			e = out[rng.Intn(len(out))]
		default:
			e = Edge{U: UserID(rng.Intn(users)), V: UserID(rng.Intn(users))}
			if e.U == e.V {
				continue
			}
		}
		if rng.Intn(2) == 0 {
			e.U, e.V = e.V, e.U
		}
		e.Weight = float64(1+rng.Intn(10)) / 10
		out = append(out, e)
	}
	return out
}

// TestPropertyGraphMergeMatchesRebuild: g.Merge(delta) equals the full
// rebuild of g.Edges()+delta across user growth, duplicate and
// re-declared edges; Build equals the oracle on the same edges.
func TestPropertyGraphMergeMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 300; round++ {
		n := 2 + rng.Intn(8)
		initial := randomEdges(rng, n, nil, rng.Intn(20))
		b := NewBuilder(n)
		for _, e := range initial {
			b.AddEdge(e.U, e.V, e.Weight)
		}
		base, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := oracleBuild(n, initial); !reflect.DeepEqual(base, want) {
			t.Fatalf("round %d: Build differs from oracle\n got: %+v\nwant: %+v", round, base, want)
		}
		n2 := n + rng.Intn(3)
		delta := randomEdges(rng, n2, base.Edges(), rng.Intn(10))
		got, err := base.Merge(n2, delta)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleBuild(n2, append(base.Edges(), delta...))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: merge differs from rebuild\n got: %+v\nwant: %+v", round, got, want)
		}
	}
}

// TestMergeMaxWeightWins: a stronger re-declaration raises an existing
// edge's weight; a weaker one changes nothing.
func TestMergeMaxWeightWins(t *testing.T) {
	g := triangle(t) // (0,1) has weight 0.5
	w0, _ := g.EdgeWeight(0, 1)
	weaker, err := g.Merge(3, []Edge{{U: 1, V: 0, Weight: w0 / 2}})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := weaker.EdgeWeight(0, 1); w != w0 {
		t.Fatalf("lower re-declaration changed weight %g -> %g", w0, w)
	}
	if !reflect.DeepEqual(weaker, g) {
		t.Fatal("lower re-declaration changed the graph")
	}
	stronger, err := g.Merge(3, []Edge{{U: 0, V: 1, Weight: 1}, {U: 1, V: 0, Weight: 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]UserID{{0, 1}, {1, 0}} {
		if w, _ := stronger.EdgeWeight(pair[0], pair[1]); w != 1 {
			t.Fatalf("EdgeWeight%v = %g after stronger re-declaration, want 1", pair, w)
		}
	}
}

// TestMergeValidationMatchesOracle: Merge rejects exactly what a full
// rebuild rejects, with the identical error.
func TestMergeValidationMatchesOracle(t *testing.T) {
	g := triangle(t)
	cases := map[string][]Edge{
		"out of range":     {{U: 0, V: 4, Weight: 0.5}},
		"negative":         {{U: -1, V: 1, Weight: 0.5}},
		"self-loop":        {{U: 2, V: 2, Weight: 0.5}},
		"zero weight":      {{U: 0, V: 3, Weight: 0}},
		"weight above one": {{U: 0, V: 3, Weight: 1.5}},
		"first error wins": {{U: 0, V: 3, Weight: 0.5}, {U: 1, V: 1, Weight: 0.5}, {U: 0, V: 9, Weight: 0.5}},
	}
	for name, delta := range cases {
		_, gotErr := g.Merge(4, delta)
		_, wantErr := oracleBuild(4, append(g.Edges(), delta...))
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: Merge error %v, rebuild error %v", name, gotErr, wantErr)
		}
	}
	if _, err := g.Merge(2, nil); err == nil {
		t.Error("shrinking the user count accepted")
	}
}
