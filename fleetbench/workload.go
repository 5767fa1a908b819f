package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/gen"
	"repro/internal/search"
)

// class is a request class; each has its own latency distribution.
type class int

const (
	classRead  class = iota // single POST /v2/search
	classBatch              // POST /v2/search/batch of batchSize queries
	classWrite              // befriend or tag through the front-end
	numClasses
)

var classNames = [numClasses]string{"read", "batch", "write"}

const (
	batchSize = 8
	topK      = 10
	// zipfS skews hot seekers: with it the hot set fits the replicas'
	// 256-entry seeker caches.
	zipfS = 1.1
)

// workload is one traffic mix at one fixed offered rate.
type workload struct {
	name string
	// rate is the fixed offered rate (requests/s) of the latency phase,
	// about half the workload's max_qps_at_slo at the seed commit.
	rate float64
	// batchPct, writePct: share of requests that are batches or writes;
	// the rest are single searches.
	batchPct, writePct int
	// hot draws seekers Zipf(zipfS) over all users; otherwise uniform.
	hot bool
	// tags per query.
	tags int
}

var workloads = map[string]workload{
	// Repeated hot seekers: the seeker cache answers most horizons, so
	// the wire, routing, admission and batch merge dominate.
	"read-hot": {name: "read-hot", rate: 600, batchPct: 10, hot: true, tags: 1},
	// Uniform seekers over all users: ~667 per replica against 256
	// cache slots, so horizon materialization and merge dominate.
	"read-cold": {name: "read-cold", rate: 650, hot: false, tags: 2},
	// One write in five (3:1 befriend:tag) beside read-hot's single
	// searches, at tens of writes per second: the write path, replica
	// compaction and the invalidations it causes.
	"write-mix": {name: "write-mix", rate: 100, writePct: 20, hot: true, tags: 1},
}

// corpus is the generated dataset's shape the request streams draw from.
type corpus struct {
	users, items int
	// tagDraw holds the tag of every tagging triple, so a uniform pick
	// from it draws tags by popularity.
	tagDraw []int32
	// hot maps a Zipf rank to a user, so the hot users are spread over
	// the graph instead of being its oldest, best-connected members.
	hot []int
}

func newCorpus(ds *gen.Dataset) corpus {
	c := corpus{users: ds.Graph.NumUsers(), items: ds.Store.NumItems()}
	c.hot = rand.New(rand.NewSource(corpusSeed)).Perm(c.users)
	for _, tr := range ds.Store.Triples() {
		c.tagDraw = append(c.tagDraw, int32(tr.Tag))
	}
	return c
}

func userName(u int) string  { return fmt.Sprintf("u%d", u) }
func itemName(i int) string  { return fmt.Sprintf("i%d", i) }
func tagName(t int32) string { return fmt.Sprintf("t%d", t) }
func opKey(r search.Request) string {
	return fmt.Sprintf("%s|%v|%d|%d", r.Seeker, r.Tags, r.K, r.Mode)
}

// op is one request the generator sends.
type op struct {
	class class
	reqs  []search.Request // classRead: 1, classBatch: batchSize
	// Writes: befriend a–b at weight, or tag user/item/tag.
	befriend        bool
	a, b            string
	weight          float64
	user, item, tag string
}

// stream draws a deterministic request sequence and arrival gaps.
type stream struct {
	w    workload
	c    corpus
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newStream(w workload, c corpus, seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	return &stream{
		w:    w,
		c:    c,
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(c.users-1)),
	}
}

// schedule draws the arrival offsets of a phase: rate×dur arrivals at
// sorted uniform times, which is a Poisson process (independent users)
// conditioned on its count, so every run offers the same number of
// requests.
func (s *stream) schedule(rate float64, dur time.Duration) []time.Duration {
	out := make([]time.Duration, int(rate*dur.Seconds()+0.5))
	for i := range out {
		out[i] = time.Duration(s.rng.Int63n(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *stream) seeker() string {
	if s.w.hot {
		return userName(s.c.hot[s.zipf.Uint64()])
	}
	return userName(s.rng.Intn(s.c.users))
}

func (s *stream) query() search.Request {
	tags := make([]string, 0, s.w.tags)
	for len(tags) < s.w.tags {
		t := tagName(s.c.tagDraw[s.rng.Intn(len(s.c.tagDraw))])
		dup := false
		for _, have := range tags {
			dup = dup || have == t
		}
		if !dup {
			tags = append(tags, t)
		}
	}
	// Mode is left at its zero value (auto), as v2 clients send it.
	return search.Request{Seeker: s.seeker(), Tags: tags, K: topK}
}

// readOp draws a request of the workload's read part only (warm-up).
func (s *stream) readOp() op {
	if s.rng.Intn(100) < s.w.batchPct {
		reqs := make([]search.Request, batchSize)
		for i := range reqs {
			reqs[i] = s.query()
		}
		return op{class: classBatch, reqs: reqs}
	}
	return op{class: classRead, reqs: []search.Request{s.query()}}
}

func (s *stream) next() op {
	if s.rng.Intn(100) >= s.w.writePct {
		return s.readOp()
	}
	if s.rng.Intn(4) < 3 {
		a := s.rng.Intn(s.c.users)
		b := s.rng.Intn(s.c.users - 1)
		if b >= a {
			b++
		}
		return op{class: classWrite, befriend: true, a: userName(a), b: userName(b), weight: pairWeight(a, b)}
	}
	return op{class: classWrite,
		user: userName(s.rng.Intn(s.c.users)),
		item: itemName(s.rng.Intn(s.c.items)),
		tag:  tagName(s.c.tagDraw[s.rng.Intn(len(s.c.tagDraw))]),
	}
}

// pairWeight is a pure function of the unordered pair, so the fleet's
// final state does not depend on the order writes arrive in (the graph
// keeps the maximum of duplicate declarations).
func pairWeight(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	h := uint64(a)*0x9E3779B97F4A7C15 ^ uint64(b)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return 0.2 + 0.6*float64(h%1000)/1000
}
