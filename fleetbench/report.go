package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps report order for the human-readable lines.
type metrics struct {
	names  []string
	values map[string]metric
}

func (m *metrics) set(name string, v float64, unit string) {
	if m.values == nil {
		m.values = make(map[string]metric)
	}
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = metric{Value: v, Unit: unit}
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is a phase's end-to-end view.
type summary struct {
	lat                [numClasses][]float64 // successful ops, ms from due
	all                []float64             // every successful op
	attempted, failed  int
	searches, degraded int
	good               int
	goodputQPS         float64
	degradedPct        float64
	failedPct          float64
	lagP99MS           float64
	allP99WithFailures float64 // failures count as +Inf
	backlogGrew        bool
}

func summarize(p *phase) summary {
	var s summary
	withFail := make([]float64, 0, len(p.results))
	var inflight []float64
	for _, r := range p.results {
		s.attempted++
		inflight = append(inflight, float64(r.inflight))
		if r.failed() {
			s.failed++
			withFail = append(withFail, math.Inf(1))
			continue
		}
		withFail = append(withFail, r.latMS)
		s.lat[r.class] = append(s.lat[r.class], r.latMS)
		s.all = append(s.all, r.latMS)
		if r.class != classWrite {
			s.searches++
			if r.degraded {
				s.degraded++
			}
		}
		if !r.degraded && r.latMS <= sloMS {
			s.good++
		}
	}
	// Goodput is over the wall time until the last answer arrived.
	wall := p.dur
	for _, r := range p.results {
		if end := r.due.Sub(p.start) + time.Duration(r.latMS*float64(time.Millisecond)); end > wall {
			wall = end
		}
	}
	s.goodputQPS = float64(s.good) / wall.Seconds()
	if s.searches > 0 {
		s.degradedPct = 100 * float64(s.degraded) / float64(s.searches)
	}
	if s.attempted > 0 {
		s.failedPct = 100 * float64(s.failed) / float64(s.attempted)
	}
	s.lagP99MS = quantile(p.lagMS, 0.99)
	s.allP99WithFailures = quantile(withFail, 0.99)
	// The backlog grows when the requests outstanding at dispatch climb
	// from the first quarter of the phase to the last.
	if n := len(inflight); n >= 8 {
		first, last := mean(inflight[:n/4]), mean(inflight[n-n/4:])
		s.backlogGrew = last > 2*first+8
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// meetsSLO is the max_qps_at_slo probe test: p99 within the SLO with
// failures counted as misses, at most 1% failed, and no growing backlog.
func (s summary) meetsSLO() bool {
	return s.allP99WithFailures <= sloMS && s.failedPct <= 1 && !s.backlogGrew && s.lagP99MS <= lagBoundMS
}

// windows is how many equal time slices a fixed-rate phase's latency
// percentiles are taken over. Each reported percentile is the one of
// the least-disturbed slice: the shared host takes CPU away in bursts
// of seconds, which slow every request in flight, while a change to the
// program moves every slice.
const windows = 10

// windowed is the lowest, over the phase's time slices, of the
// q-quantile of the latencies of the successful results keep selects.
func windowed(p *phase, keep func(*result) bool, q float64) float64 {
	var w [windows][]float64
	for _, r := range p.results {
		if r.failed() || !keep(r) {
			continue
		}
		i := int(r.due.Sub(p.start) * windows / p.dur)
		if i >= windows {
			i = windows - 1
		}
		w[i] = append(w[i], r.latMS)
	}
	best := math.Inf(1)
	for _, xs := range w {
		if len(xs) > 0 {
			best = math.Min(best, quantile(xs, q))
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// endToEnd fills the end-to-end metrics of a fixed-rate phase. A class
// the workload does not send is omitted.
func endToEnd(m *metrics, p *phase, s summary) {
	for c := class(0); c < numClasses; c++ {
		if len(s.lat[c]) == 0 {
			continue
		}
		is := func(r *result) bool { return r.class == c }
		m.set(classNames[c]+"_p50_ms", windowed(p, is, 0.5), "ms")
		m.set(classNames[c]+"_p99_ms", windowed(p, is, 0.99), "ms")
	}
	m.set("goodput_qps", s.goodputQPS, "1/s")
	m.set("degraded_pct", s.degradedPct, "%")
	m.set("failed_pct", s.failedPct, "%")
	m.set("heap_mb", float64(p.heapPeak)/(1<<20), "MB")
	m.set("cpu_ms_per_req", ms(p.cpu)/float64(len(p.results)), "ms")
	m.set("loadgen.lag_p99_ms", s.lagP99MS, "ms")
}

// layerMetrics computes the per-layer metrics of a traced phase from its
// spans and results.
func layerMetrics(m *metrics, spans []*span, p *phase) {
	t := link(spans)
	by := make(map[string][]*span)
	for _, s := range spans {
		by[s.name] = append(by[s.name], s)
	}
	selfs := func(name string, keep func(*span) bool) []float64 {
		var out []float64
		for _, s := range by[name] {
			if keep == nil || keep(s) {
				out = append(out, ms(t.self(s)))
			}
		}
		return out
	}
	durs := func(name string, keep func(*span) bool) []float64 {
		var out []float64
		for _, s := range by[name] {
			if keep == nil || keep(s) {
				out = append(out, ms(s.dur()))
			}
		}
		return out
	}
	pct := func(prefix string, xs []float64) {
		m.set(prefix+"_p50_ms", quantile(xs, 0.5), "ms")
		m.set(prefix+"_p99_ms", quantile(xs, 0.99), "ms")
	}
	isSearch := func(s *span) bool { return s.path == "/v2/search" || s.path == "/v2/search/batch" }

	pct("loadgen.self", selfs(spanLoadgen, nil))
	pct("server.fe.self", selfs(spanFE, nil))
	pct("fleet.read.self", selfs(spanRead, nil))
	pct("fleet.rpc.search", durs(spanRPC, isSearch))
	m.set("fleet.rpc.wire_self_p50_ms", quantile(selfs(spanRPC, isSearch), 0.5), "ms")
	var bytes, queries, rpcErrs float64
	for _, s := range by[spanRPC] {
		if isSearch(s) {
			bytes += float64(s.bytes)
		}
		if s.err {
			rpcErrs++
		}
	}
	for _, s := range by[spanRead] {
		queries += float64(s.queries)
	}
	if queries > 0 {
		bytes /= queries
	}
	m.set("fleet.rpc.bytes_per_query", bytes, "B")
	m.set("fleet.rpc.errors", rpcErrs, "count")
	pct("server.replica.self", selfs(spanReplica, nil))
	pct("social.query", durs(spanQuery, nil))

	// A write's time splits into fleet.write.self (writeMu wait, replog
	// append and fsync), fleet.write.fanout (its serial replica RPCs
	// minus the replicas' apply) and social.apply.
	pct("fleet.write.self", selfs(spanWrite, nil))
	var fanout []float64
	for _, w := range by[spanWrite] {
		var d time.Duration
		for _, rpc := range t.kids[w.id] {
			d += rpc.dur()
			for _, h := range t.kids[rpc.id] {
				for _, a := range t.kids[h.id] {
					if a.name == spanApply {
						d -= a.dur()
					}
				}
			}
		}
		fanout = append(fanout, ms(d))
	}
	pct("fleet.write.fanout", fanout)
	pct("social.apply", durs(spanApply, nil))
	pct("social.compact", durs(spanCompact, nil))
	m.set("social.compact.count", float64(len(by[spanCompact])), "count")
	var edges []float64
	for _, s := range by[spanCompact] {
		edges = append(edges, float64(s.edges))
	}
	m.set("fleet.bcast.edges_per_flush", mean(edges), "count")

	// Blocking-path check: per class, the self times along the path the
	// request waited on, against its latency from due time.
	roots := make(map[uint64]*span)
	for _, s := range by[spanLoadgen] {
		roots[s.req] = s
	}
	var path, lat [numClasses]float64
	for _, r := range p.results {
		root, ok := roots[r.reqID]
		if !ok || r.failed() {
			continue
		}
		path[r.class] += ms(t.blockingPath(root))
		lat[r.class] += r.latMS
	}
	for c := class(0); c < numClasses; c++ {
		share := 0.0
		if lat[c] > 0 {
			share = 100 * path[c] / lat[c]
		}
		m.set("trace."+classNames[c]+".path_pct", share, "%")
	}
}
