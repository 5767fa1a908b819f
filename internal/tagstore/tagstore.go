// Package tagstore stores the user–item–tag annotation relation of a
// collaborative tagging site and exposes it through the two access paths
// classic top-k processing distinguishes:
//
//   - sequential access: per-tag global posting lists sorted by descending
//     tag frequency, consumed front-to-back by threshold algorithms;
//   - random access: per-(user,tag) lists and point lookups tf(u, i, t),
//     each a binary search over flat sorted arrays, consumed by the
//     network-aware algorithm as the social frontier visits each user.
//
// A store is immutable once built; all query-time structures are
// read-only and safe for concurrent use. Merge folds a delta of new
// triples into a new store in one linear pass over the old one, sharing
// what the delta leaves untouched — the path both Builder.Build and
// overlay compaction take.
package tagstore

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// ItemID is a dense item identifier in [0, NumItems).
type ItemID = int32

// TagID is a dense tag identifier in [0, NumTags).
type TagID = int32

// Triple is one tagging action: user u annotated item i with tag t,
// count times (count ≥ 1; repeated annotation is meaningful on sites
// where an item can be re-bookmarked).
type Triple struct {
	User  int32
	Item  ItemID
	Tag   TagID
	Count int32
}

// Posting is one entry of a global per-tag list: an item and the total
// frequency with which the tag was applied to it across all users.
type Posting struct {
	Item ItemID
	TF   int32
}

// UserPosting is one entry of a per-(user,tag) list.
type UserPosting struct {
	Item ItemID
	TF   int32
}

// Builder accumulates triples before freezing them into a Store.
// Duplicate (user, item, tag) triples have their counts summed.
type Builder struct {
	numUsers int
	numItems int
	numTags  int
	triples  []Triple
}

// NewBuilder returns a Builder over the given universe sizes.
func NewBuilder(numUsers, numItems, numTags int) *Builder {
	return &Builder{numUsers: numUsers, numItems: numItems, numTags: numTags}
}

// Add records a tagging triple with count 1.
func (b *Builder) Add(user int32, item ItemID, tag TagID) {
	b.AddCount(user, item, tag, 1)
}

// AddCount records a tagging triple with an explicit count.
func (b *Builder) AddCount(user int32, item ItemID, tag TagID, count int32) {
	b.triples = append(b.triples, Triple{User: user, Item: item, Tag: tag, Count: count})
}

// Build validates and freezes the store: a Merge of the accumulated
// triples onto an empty store, so building an index and folding a
// delta into a live one share one code path.
func (b *Builder) Build() (*Store, error) {
	return (&Store{}).Merge(b.numUsers, b.numItems, b.numTags, b.triples)
}

// Store is the immutable tagging store.
type Store struct {
	numUsers, numItems, numTags int
	triples                     []Triple // canonical sorted triples

	// global per-tag posting lists sorted by (TF desc, Item asc)
	global [][]Posting
	// maxTF[t] = largest global TF of any item under tag t (0 if none)
	maxTF []int32

	// Per-user tag CSR: user u's distinct tags are
	// utTags[utStart[u]:utStart[u+1]] (sorted ascending), and the tag at
	// index j owns userPostings[utOff[j] : utOff[j]+utLen[j]]. A flat
	// binary search over the (small) per-user tag segment replaces the
	// packed-key hash lookups the random-access path used to pay per
	// settled user — no hashing, no map runtime, cache-local. The same
	// range of triples holds the run sorted by item, which is what TF
	// binary-searches.
	utStart      []int32 // len numUsers+1
	utTags       []TagID // parallel to utOff/utLen
	utOff        []int32
	utLen        []int32
	userPostings []UserPosting

	// Per-item tag CSR for gtf(i, t): item i's tags are
	// itTags[itStart[i]:itStart[i+1]] (sorted ascending) with their
	// global frequencies in itTF. Replaces the packed-key global point
	// map on the candidate-creation path.
	itStart []int32 // len numItems+1
	itTags  []TagID
	itTF    []int32

	totalAnnotations int64
}

// Merge returns a new store holding s's triples plus delta, over a
// universe grown to the given sizes (which may not shrink below s's).
// Delta triples need no order and may repeat; counts of equal
// (user, item, tag) triples, within the delta and against s, are
// summed. s is not modified, and the result shares the global posting
// lists of every tag the delta does not touch.
//
// The cost is one linear pass over s's flat arrays plus a sort of the
// delta — O(base + delta·log delta) — with no hashing: untouched user
// and item segments are block-copied, and only the per-(user, tag)
// runs, global lists and item segments the delta touches are re-merged.
func (s *Store) Merge(numUsers, numItems, numTags int, delta []Triple) (*Store, error) {
	if numUsers < 0 || numItems < 0 || numTags < 0 {
		return nil, errors.New("tagstore: negative universe size")
	}
	if numUsers < s.numUsers || numItems < s.numItems || numTags < s.numTags {
		return nil, fmt.Errorf("tagstore: universe (%d,%d,%d) shrinks below (%d,%d,%d)",
			numUsers, numItems, numTags, s.numUsers, s.numItems, s.numTags)
	}
	var added int64
	for _, tr := range delta {
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
		added += int64(tr.Count)
	}
	d := coalesce(slices.Clone(delta), cmpUTI)

	out := &Store{
		numUsers:         numUsers,
		numItems:         numItems,
		numTags:          numTags,
		totalAnnotations: s.totalAnnotations + added,
	}
	out.mergeUserRuns(s, d)

	// (tag, item) aggregates of the delta, summed across users: they
	// update the global lists (grouped by tag) and the item CSR
	// (grouped by item).
	agg := make([]Triple, len(d))
	for i, tr := range d {
		agg[i] = Triple{Item: tr.Item, Tag: tr.Tag, Count: tr.Count}
	}
	agg = coalesce(agg, cmpTI)
	out.mergeGlobal(s, agg)
	slices.SortFunc(agg, cmpIT)
	out.mergeItems(s, agg)
	return out, nil
}

// Triple orders: (user, tag, item) is the canonical store order;
// (tag, item) and (item, tag) group the per-tag and per-item aggregates.
func cmpUTI(a, b Triple) int {
	if c := cmp.Compare(a.User, b.User); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Tag, b.Tag); c != 0 {
		return c
	}
	return cmp.Compare(a.Item, b.Item)
}

func cmpTI(a, b Triple) int {
	if c := cmp.Compare(a.Tag, b.Tag); c != 0 {
		return c
	}
	return cmp.Compare(a.Item, b.Item)
}

func cmpIT(a, b Triple) int {
	if c := cmp.Compare(a.Item, b.Item); c != 0 {
		return c
	}
	return cmp.Compare(a.Tag, b.Tag)
}

// coalesce sorts trs by order and sums the counts of equal keys in
// place, returning the deduplicated prefix.
func coalesce(trs []Triple, order func(a, b Triple) int) []Triple {
	slices.SortFunc(trs, order)
	n := 0
	for _, tr := range trs {
		if n > 0 && order(trs[n-1], tr) == 0 {
			trs[n-1].Count += tr.Count
			continue
		}
		trs[n] = tr
		n++
	}
	return trs[:n]
}

// byFreq orders posting lists by (TF desc, Item asc). Items are unique
// within a list, so the order is total and every sort agrees.
// UserPosting has Posting's layout and converts to it.
func byFreq(a, b Posting) int {
	if a.TF != b.TF {
		return cmp.Compare(b.TF, a.TF)
	}
	return cmp.Compare(a.Item, b.Item)
}

// userStart is utStart[u] for users inside s's universe and the end of
// the run index beyond it (the zero Store has no runs at all).
func (s *Store) userStart(u int) int {
	if u < len(s.utStart) {
		return int(s.utStart[u])
	}
	return len(s.utTags)
}

// runOff is the triple offset of run r, or the triple count past the
// last run.
func (s *Store) runOff(r int) int {
	if r < len(s.utOff) {
		return int(s.utOff[r])
	}
	return len(s.triples)
}

// mergeUserRuns builds the canonical triples and the per-user CSR from
// base plus the coalesced, canonically sorted delta d. Users d does not
// touch are block-copied (offsets shifted); a touched user's runs are
// merged tag by tag, and only runs that gained triples are re-sorted.
func (s *Store) mergeUserRuns(base *Store, d []Triple) {
	s.triples = make([]Triple, 0, len(base.triples)+len(d))
	s.userPostings = make([]UserPosting, 0, len(base.triples)+len(d))
	s.utStart = make([]int32, s.numUsers+1)
	s.utTags = make([]TagID, 0, len(base.utTags)+len(d))
	s.utOff = make([]int32, 0, len(base.utTags)+len(d))
	s.utLen = make([]int32, 0, len(base.utTags)+len(d))

	// copyUsers block-copies base users [from, to).
	copyUsers := func(from, to int) {
		rlo, rhi := base.userStart(from), base.userStart(to)
		tlo, thi := base.runOff(rlo), base.runOff(rhi)
		rshift, tshift := int32(len(s.utTags)-rlo), int32(len(s.triples)-tlo)
		for u := from; u < to; u++ {
			s.utStart[u] = int32(base.userStart(u)) + rshift
		}
		s.utTags = append(s.utTags, base.utTags[rlo:rhi]...)
		for _, off := range base.utOff[rlo:rhi] {
			s.utOff = append(s.utOff, off+tshift)
		}
		s.utLen = append(s.utLen, base.utLen[rlo:rhi]...)
		s.triples = append(s.triples, base.triples[tlo:thi]...)
		s.userPostings = append(s.userPostings, base.userPostings[tlo:thi]...)
	}
	// closeRun records the run of tag t that ends the triples slice.
	closeRun := func(t TagID, start int) {
		s.utTags = append(s.utTags, t)
		s.utOff = append(s.utOff, int32(start))
		s.utLen = append(s.utLen, int32(len(s.triples)-start))
	}
	// copyRun copies base run r, which the delta does not touch.
	copyRun := func(r int) {
		off, n := int(base.utOff[r]), int(base.utLen[r])
		start := len(s.triples)
		s.triples = append(s.triples, base.triples[off:off+n]...)
		s.userPostings = append(s.userPostings, base.userPostings[off:off+n]...)
		closeRun(base.utTags[r], start)
	}

	next := 0 // first user not yet emitted
	for k := 0; k < len(d); {
		u := int(d[k].User)
		e := k
		for e < len(d) && int(d[e].User) == u {
			e++
		}
		copyUsers(next, u)
		s.utStart[u] = int32(len(s.utTags))
		r, rEnd := base.userStart(u), base.userStart(u+1)
		for k < e {
			t := d[k].Tag
			if r < rEnd && base.utTags[r] < t {
				copyRun(r)
				r++
				continue
			}
			var old []Triple
			if r < rEnd && base.utTags[r] == t {
				off, n := int(base.utOff[r]), int(base.utLen[r])
				old = base.triples[off : off+n]
				r++
			}
			te := k
			for te < e && d[te].Tag == t {
				te++
			}
			start := len(s.triples)
			s.triples = mergeByItem(s.triples, old, d[k:te])
			for _, tr := range s.triples[start:] {
				s.userPostings = append(s.userPostings, UserPosting{Item: tr.Item, TF: tr.Count})
			}
			slices.SortFunc(s.userPostings[start:], func(a, b UserPosting) int {
				return byFreq(Posting(a), Posting(b))
			})
			closeRun(t, start)
			k = te
		}
		for ; r < rEnd; r++ { // runs after the last touched tag
			copyRun(r)
		}
		next = u + 1
	}
	copyUsers(next, s.numUsers)
	s.utStart[s.numUsers] = int32(len(s.utTags))
}

// mergeByItem appends the item-ordered union of two item-sorted runs of
// one (user, tag) to dst, summing counts of equal items.
func mergeByItem(dst, a, b []Triple) []Triple {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Item < b[j].Item:
			dst = append(dst, a[i])
			i++
		case a[i].Item > b[j].Item:
			dst = append(dst, b[j])
			j++
		default:
			tr := a[i]
			tr.Count += b[j].Count
			dst = append(dst, tr)
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// mergeGlobal derives the global lists and maxTF from base's plus the
// (tag, item)-sorted delta aggregates agg. Untouched tags share base's
// list; a touched tag's list drops the items agg updates, and the
// updated postings (re-sorted among themselves) are merged back in.
func (s *Store) mergeGlobal(base *Store, agg []Triple) {
	s.global = make([][]Posting, s.numTags)
	copy(s.global, base.global)
	s.maxTF = make([]int32, s.numTags)
	copy(s.maxTF, base.maxTF)
	for k := 0; k < len(agg); {
		t := agg[k].Tag
		e := k
		for e < len(agg) && agg[e].Tag == t {
			e++
		}
		seg := agg[k:e] // item-sorted
		upd := make([]Posting, len(seg))
		for i, a := range seg {
			var tf int32
			if int(a.Item) < base.numItems {
				tf = base.GlobalTF(a.Item, t)
			}
			upd[i] = Posting{Item: a.Item, TF: tf + a.Count}
		}
		slices.SortFunc(upd, byFreq)

		old := s.global[t]
		lst := make([]Posting, 0, len(old)+len(upd))
		u := 0
		for _, p := range old {
			if _, touched := slices.BinarySearchFunc(seg, p.Item, func(a Triple, i ItemID) int {
				return cmp.Compare(a.Item, i)
			}); touched {
				continue
			}
			for u < len(upd) && byFreq(upd[u], p) < 0 {
				lst = append(lst, upd[u])
				u++
			}
			lst = append(lst, p)
		}
		lst = append(lst, upd[u:]...)
		s.global[t] = lst
		s.maxTF[t] = lst[0].TF
		k = e
	}
}

// itemStart is itStart[i] for items inside s's universe and the end of
// the item CSR beyond it.
func (s *Store) itemStart(i int) int {
	if i < len(s.itStart) {
		return int(s.itStart[i])
	}
	return len(s.itTags)
}

// mergeItems derives the item CSR from base's plus the (item, tag)-sorted
// delta aggregates agg: untouched item ranges are block-copied with
// shifted offsets, touched items merge their tag segments.
func (s *Store) mergeItems(base *Store, agg []Triple) {
	s.itStart = make([]int32, s.numItems+1)
	s.itTags = make([]TagID, 0, len(base.itTags)+len(agg))
	s.itTF = make([]int32, 0, len(base.itTags)+len(agg))
	copyItems := func(from, to int) {
		lo, hi := base.itemStart(from), base.itemStart(to)
		shift := int32(len(s.itTags) - lo)
		for i := from; i < to; i++ {
			s.itStart[i] = int32(base.itemStart(i)) + shift
		}
		s.itTags = append(s.itTags, base.itTags[lo:hi]...)
		s.itTF = append(s.itTF, base.itTF[lo:hi]...)
	}
	next := 0
	for k := 0; k < len(agg); {
		it := int(agg[k].Item)
		copyItems(next, it)
		s.itStart[it] = int32(len(s.itTags))
		j, jEnd := base.itemStart(it), base.itemStart(it+1)
		for ; k < len(agg) && int(agg[k].Item) == it; k++ {
			a := agg[k]
			for j < jEnd && base.itTags[j] < a.Tag {
				s.itTags = append(s.itTags, base.itTags[j])
				s.itTF = append(s.itTF, base.itTF[j])
				j++
			}
			tf := a.Count
			if j < jEnd && base.itTags[j] == a.Tag {
				tf += base.itTF[j]
				j++
			}
			s.itTags = append(s.itTags, a.Tag)
			s.itTF = append(s.itTF, tf)
		}
		s.itTags = append(s.itTags, base.itTags[j:jEnd]...)
		s.itTF = append(s.itTF, base.itTF[j:jEnd]...)
		next = it + 1
	}
	copyItems(next, s.numItems)
	s.itStart[s.numItems] = int32(len(s.itTags))
}

// NumUsers reports the user universe size.
func (s *Store) NumUsers() int { return s.numUsers }

// NumItems reports the item universe size.
func (s *Store) NumItems() int { return s.numItems }

// NumTags reports the tag universe size.
func (s *Store) NumTags() int { return s.numTags }

// NumTriples reports the number of distinct (user, item, tag) triples.
func (s *Store) NumTriples() int { return len(s.triples) }

// TotalAnnotations reports the sum of all counts.
func (s *Store) TotalAnnotations() int64 { return s.totalAnnotations }

// Triples returns the canonical sorted triples. The slice aliases
// internal storage and must not be modified.
func (s *Store) Triples() []Triple { return s.triples }

// GlobalList returns the global posting list of tag t, sorted by
// descending total frequency. The slice aliases internal storage.
func (s *Store) GlobalList(t TagID) []Posting { return s.global[t] }

// MaxTF returns the largest global frequency under tag t; it is the
// per-list score ceiling threshold algorithms use.
func (s *Store) MaxTF(t TagID) int32 { return s.maxTF[t] }

// findRun locates the (user u, tag t) run by binary search over u's
// (small, sorted) tag segment in the flat CSR — no hashing, no pointer
// chasing.
func (s *Store) findRun(u int32, t TagID) (int32, bool) {
	lo, hi := s.utStart[u], s.utStart[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if s.utTags[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < s.utStart[u+1] && s.utTags[lo] == t
}

// UserList returns the posting list of (user u, tag t), sorted by
// descending frequency, or nil when u never used t.
func (s *Store) UserList(u int32, t TagID) []UserPosting {
	if r, ok := s.findRun(u, t); ok {
		off, n := s.utOff[r], s.utLen[r]
		return s.userPostings[off : off+n]
	}
	return nil
}

// UserTags returns the sorted distinct tags user u has used. The slice
// aliases internal storage.
func (s *Store) UserTags(u int32) []TagID {
	return s.utTags[s.utStart[u]:s.utStart[u+1]]
}

// TF returns tf(u, i, t): how many times user u applied tag t to item i
// (0 for ids outside the universe). Two binary searches: the (u, t) run
// in u's tag segment, then item i in that run's item-sorted triples.
func (s *Store) TF(u int32, i ItemID, t TagID) int32 {
	if u < 0 || int(u) >= s.numUsers {
		return 0
	}
	r, ok := s.findRun(u, t)
	if !ok {
		return 0
	}
	off, n := s.utOff[r], s.utLen[r]
	run := s.triples[off : off+n]
	if k, ok := slices.BinarySearchFunc(run, i, func(tr Triple, i ItemID) int {
		return cmp.Compare(tr.Item, i)
	}); ok {
		return run[k].Count
	}
	return 0
}

// GlobalTF returns the total frequency of tag t on item i across users:
// a binary search over item i's sorted tag segment in the flat CSR.
func (s *Store) GlobalTF(i ItemID, t TagID) int32 {
	lo, hi := s.itStart[i], s.itStart[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if s.itTags[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.itStart[i+1] && s.itTags[lo] == t {
		return s.itTF[lo]
	}
	return 0
}

// Stats summarizes the corpus; it backs Table 1.
type Stats struct {
	Users, Items, Tags  int
	Triples             int
	Annotations         int64
	AvgTriplesPerUser   float64
	DistinctItemsTagged int
	DistinctTagsUsed    int
	MaxGlobalListLen    int
}

// ComputeStats derives corpus statistics.
func (s *Store) ComputeStats() Stats {
	st := Stats{
		Users:       s.numUsers,
		Items:       s.numItems,
		Tags:        s.numTags,
		Triples:     len(s.triples),
		Annotations: s.totalAnnotations,
	}
	if s.numUsers > 0 {
		st.AvgTriplesPerUser = float64(len(s.triples)) / float64(s.numUsers)
	}
	items := make(map[ItemID]struct{})
	for _, tr := range s.triples {
		items[tr.Item] = struct{}{}
	}
	st.DistinctItemsTagged = len(items)
	for t := range s.global {
		if len(s.global[t]) > 0 {
			st.DistinctTagsUsed++
		}
		if len(s.global[t]) > st.MaxGlobalListLen {
			st.MaxGlobalListLen = len(s.global[t])
		}
	}
	return st
}
