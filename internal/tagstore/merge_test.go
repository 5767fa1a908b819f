package tagstore

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// oracleBuild is the map-and-sort construction Builder.Build used
// before delta merging: sum duplicate triples in a map, sort, then
// derive every index from scratch with per-(tag, item) maps. It is kept
// as the reference Merge must reproduce bit for bit. Slices are
// allocated as Merge allocates them (non-nil even when empty) so
// reflect.DeepEqual compares content, not allocation history.
func oracleBuild(numUsers, numItems, numTags int, all []Triple) (*Store, error) {
	if numUsers < 0 || numItems < 0 || numTags < 0 {
		return nil, errors.New("tagstore: negative universe size")
	}
	for _, tr := range all {
		if tr.User < 0 || int(tr.User) >= numUsers {
			return nil, fmt.Errorf("tagstore: user %d outside [0,%d)", tr.User, numUsers)
		}
		if tr.Item < 0 || int(tr.Item) >= numItems {
			return nil, fmt.Errorf("tagstore: item %d outside [0,%d)", tr.Item, numItems)
		}
		if tr.Tag < 0 || int(tr.Tag) >= numTags {
			return nil, fmt.Errorf("tagstore: tag %d outside [0,%d)", tr.Tag, numTags)
		}
		if tr.Count <= 0 {
			return nil, fmt.Errorf("tagstore: non-positive count %d", tr.Count)
		}
	}
	merged := make(map[Triple]int32, len(all))
	for _, tr := range all {
		merged[Triple{User: tr.User, Item: tr.Item, Tag: tr.Tag}] += tr.Count
	}
	triples := make([]Triple, 0, len(merged))
	for k, c := range merged {
		k.Count = c
		triples = append(triples, k)
	}
	sort.Slice(triples, func(i, j int) bool {
		a, b := triples[i], triples[j]
		if a.User != b.User {
			return a.User < b.User
		}
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		return a.Item < b.Item
	})
	s := &Store{numUsers: numUsers, numItems: numItems, numTags: numTags, triples: triples}

	type ti struct {
		t TagID
		i ItemID
	}
	agg := make(map[ti]int32)
	for _, tr := range s.triples {
		agg[ti{tr.Tag, tr.Item}] += tr.Count
		s.totalAnnotations += int64(tr.Count)
	}
	s.global = make([][]Posting, s.numTags)
	for k, c := range agg {
		s.global[k.t] = append(s.global[k.t], Posting{Item: k.i, TF: c})
	}
	s.maxTF = make([]int32, s.numTags)
	for t := range s.global {
		lst := s.global[t]
		sort.Slice(lst, func(i, j int) bool {
			if lst[i].TF != lst[j].TF {
				return lst[i].TF > lst[j].TF
			}
			return lst[i].Item < lst[j].Item
		})
		if len(lst) > 0 {
			s.maxTF[t] = lst[0].TF
		}
	}

	type it struct {
		i ItemID
		t TagID
		c int32
	}
	flat := make([]it, 0, len(agg))
	for k, c := range agg {
		flat = append(flat, it{i: k.i, t: k.t, c: c})
	}
	sort.Slice(flat, func(a, b int) bool {
		if flat[a].i != flat[b].i {
			return flat[a].i < flat[b].i
		}
		return flat[a].t < flat[b].t
	})
	s.itStart = make([]int32, s.numItems+1)
	s.itTags = make([]TagID, len(flat))
	s.itTF = make([]int32, len(flat))
	cur := 0
	for j, e := range flat {
		for cur <= int(e.i) {
			s.itStart[cur] = int32(j)
			cur++
		}
		s.itTags[j] = e.t
		s.itTF[j] = e.c
	}
	for ; cur <= s.numItems; cur++ {
		s.itStart[cur] = int32(len(flat))
	}

	s.utStart = make([]int32, s.numUsers+1)
	s.utTags = []TagID{}
	s.utOff = []int32{}
	s.utLen = []int32{}
	s.userPostings = []UserPosting{}
	userCur := 0
	i := 0
	for i < len(s.triples) {
		u, t := s.triples[i].User, s.triples[i].Tag
		for userCur <= int(u) {
			s.utStart[userCur] = int32(len(s.utTags))
			userCur++
		}
		start := len(s.userPostings)
		j := i
		for j < len(s.triples) && s.triples[j].User == u && s.triples[j].Tag == t {
			s.userPostings = append(s.userPostings, UserPosting{Item: s.triples[j].Item, TF: s.triples[j].Count})
			j++
		}
		seg := s.userPostings[start:]
		sort.Slice(seg, func(a, b int) bool {
			if seg[a].TF != seg[b].TF {
				return seg[a].TF > seg[b].TF
			}
			return seg[a].Item < seg[b].Item
		})
		s.utTags = append(s.utTags, t)
		s.utOff = append(s.utOff, int32(start))
		s.utLen = append(s.utLen, int32(j-i))
		i = j
	}
	for ; userCur <= s.numUsers; userCur++ {
		s.utStart[userCur] = int32(len(s.utTags))
	}
	return s, nil
}

// universe is a (users, items, tags) size triple.
type universe struct{ users, items, tags int }

// randomDelta draws n triples over u. With hot set, most draws repeat a
// small set of keys (and keys of base), so deltas exercise repeated
// triples within one delta and increments of existing triples.
func randomDelta(rng *rand.Rand, u universe, base []Triple, n int) []Triple {
	out := make([]Triple, 0, n)
	for k := 0; k < n; k++ {
		var tr Triple
		switch r := rng.Intn(10); {
		case r < 3 && len(base) > 0: // increment an existing triple
			tr = base[rng.Intn(len(base))]
		case r < 5 && len(out) > 0: // repeat inside this delta
			tr = out[rng.Intn(len(out))]
		default:
			tr = Triple{
				User: int32(rng.Intn(u.users)),
				Item: ItemID(rng.Intn(u.items)),
				Tag:  TagID(rng.Intn(u.tags)),
			}
		}
		tr.Count = int32(1 + rng.Intn(3))
		out = append(out, tr)
	}
	return out
}

// grow widens the universe by a random amount in each dimension (often
// zero), the way overlay universes grow between compactions.
func grow(rng *rand.Rand, u universe) universe {
	return universe{u.users + rng.Intn(3), u.items + rng.Intn(4), u.tags + rng.Intn(2)}
}

func concat(a, b []Triple) []Triple {
	return append(append(make([]Triple, 0, len(a)+len(b)), a...), b...)
}

func mustEqualOracle(t *testing.T, label string, got *Store, u universe, all []Triple) {
	t.Helper()
	want, err := oracleBuild(u.users, u.items, u.tags, all)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: merged store differs from full rebuild\n got: %+v\nwant: %+v", label, got, want)
	}
}

// TestPropertyBuildMatchesOracle: Builder.Build (a Merge onto the empty
// store) equals the map-and-sort reference on random triple sets.
func TestPropertyBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		u := universe{1 + rng.Intn(8), 1 + rng.Intn(10), 1 + rng.Intn(5)}
		trs := randomDelta(rng, u, nil, rng.Intn(60))
		b := NewBuilder(u.users, u.items, u.tags)
		for _, tr := range trs {
			b.AddCount(tr.User, tr.Item, tr.Tag, tr.Count)
		}
		s, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		mustEqualOracle(t, fmt.Sprintf("round %d", round), s, u, trs)
	}
}

// TestPropertyMergeMatchesRebuild: base.Merge(delta) equals the full
// rebuild of base.Triples()+delta, across universe growth, repeated
// triples inside one delta, increments of existing triples, and new
// users, items and tags.
func TestPropertyMergeMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 300; round++ {
		u := universe{1 + rng.Intn(8), 1 + rng.Intn(10), 1 + rng.Intn(5)}
		base, err := oracleBuild(u.users, u.items, u.tags, randomDelta(rng, u, nil, rng.Intn(50)))
		if err != nil {
			t.Fatal(err)
		}
		u2 := grow(rng, u)
		delta := randomDelta(rng, u2, base.Triples(), rng.Intn(20))
		kept := concat(nil, delta)
		got, err := base.Merge(u2.users, u2.items, u2.tags, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(delta, kept) {
			t.Fatal("Merge modified the caller's delta")
		}
		mustEqualOracle(t, fmt.Sprintf("round %d", round), got, u2, concat(base.Triples(), delta))
	}
}

// TestMergeChainMatchesOneBuild: 50 successive merges, each growing the
// universe, end bit-identical to one build of everything; each
// intermediate store is checked too, and stores earlier in the chain
// are left untouched by later merges.
func TestMergeChainMatchesOneBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := universe{2, 3, 1}
	s, err := NewBuilder(u.users, u.items, u.tags).Build()
	if err != nil {
		t.Fatal(err)
	}
	var all []Triple
	first, firstAll := s, []Triple(nil)
	for step := 0; step < 50; step++ {
		u = grow(rng, u)
		delta := randomDelta(rng, u, s.Triples(), 1+rng.Intn(12))
		if s, err = s.Merge(u.users, u.items, u.tags, delta); err != nil {
			t.Fatal(err)
		}
		all = append(all, delta...)
		mustEqualOracle(t, fmt.Sprintf("step %d", step), s, u, all)
		if step == 0 {
			first, firstAll = s, concat(nil, all)
		}
	}
	mustEqualOracle(t, "first store after the chain", first,
		universe{first.NumUsers(), first.NumItems(), first.NumTags()}, firstAll)
}

// TestMergeValidationMatchesOracle: Merge rejects exactly what a full
// rebuild rejects, with the identical error.
func TestMergeValidationMatchesOracle(t *testing.T) {
	base := smallStore(t)
	u := universe{4, 5, 3} // grown by one user and one item
	cases := []struct {
		name  string
		delta []Triple
	}{
		{"user out of range", []Triple{{User: 4, Item: 0, Tag: 0, Count: 1}}},
		{"negative user", []Triple{{User: -1, Item: 0, Tag: 0, Count: 1}}},
		{"item out of range", []Triple{{User: 0, Item: 5, Tag: 0, Count: 1}}},
		{"negative item", []Triple{{User: 0, Item: -3, Tag: 0, Count: 1}}},
		{"tag out of range", []Triple{{User: 0, Item: 0, Tag: 3, Count: 1}}},
		{"zero count", []Triple{{User: 0, Item: 0, Tag: 0, Count: 0}}},
		{"negative count", []Triple{{User: 0, Item: 0, Tag: 0, Count: -2}}},
		{"first error wins", []Triple{
			{User: 0, Item: 0, Tag: 0, Count: 1},
			{User: 0, Item: 0, Tag: 0, Count: -1},
			{User: 9, Item: 0, Tag: 0, Count: 1},
		}},
	}
	for _, tc := range cases {
		_, gotErr := base.Merge(u.users, u.items, u.tags, tc.delta)
		_, wantErr := oracleBuild(u.users, u.items, u.tags, concat(base.Triples(), tc.delta))
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: Merge error %v, rebuild error %v", tc.name, gotErr, wantErr)
		}
		b := NewBuilder(u.users, u.items, u.tags)
		for _, tr := range tc.delta {
			b.AddCount(tr.User, tr.Item, tr.Tag, tr.Count)
		}
		_, buildErr := b.Build()
		_, wantErr = oracleBuild(u.users, u.items, u.tags, tc.delta)
		if buildErr == nil || buildErr.Error() != wantErr.Error() {
			t.Errorf("%s: Build error %v, oracle error %v", tc.name, buildErr, wantErr)
		}
	}
	if _, err := NewBuilder(-1, 0, 0).Build(); err == nil {
		t.Error("negative universe accepted")
	}
	if _, err := base.Merge(2, 5, 3, nil); err == nil {
		t.Error("shrinking the user universe accepted")
	}
}

// TestMergeSharesUntouchedLists: a merge reuses the global posting list
// of every tag its delta does not touch instead of copying it.
func TestMergeSharesUntouchedLists(t *testing.T) {
	base := smallStore(t)
	got, err := base.Merge(3, 4, 3, []Triple{{User: 2, Item: 0, Tag: 2, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for tag := TagID(0); tag < 2; tag++ {
		if &got.GlobalList(tag)[0] != &base.GlobalList(tag)[0] {
			t.Errorf("untouched tag %d: posting list copied, not shared", tag)
		}
	}
	if &got.GlobalList(2)[0] == &base.GlobalList(2)[0] {
		t.Error("touched tag 2 shares the base list")
	}
}
