package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/search"
	"repro/internal/social"
)

// Spans are recorded only in this file, by wrapping each layer's public
// surface: the front-end and replica http.Handlers, the replica
// clients' RoundTripper, and *fleet.Frontend / *social.Service embedded
// in wrapper structs. Embedding keeps every optional interface the
// server type-asserts (see the assertions in fleetbench_test.go).

// Span names, one per layer boundary.
const (
	spanLoadgen = "loadgen"        // due time to answer: dispatch lag + generator-side client wire
	spanFE      = "server.fe"      // front-end handler: public wire + admission wait
	spanRead    = "fleet.read"     // Frontend.Do / DoBatch: routing, pool, batch merge
	spanWrite   = "fleet.write"    // Frontend.BefriendCtx / TagCtx: writeMu, replog append, fan-out
	spanRPC     = "fleet.rpc"      // one replica RPC on the client side
	spanReplica = "server.replica" // replica handler: wire decode/encode + admission
	spanQuery   = "social.query"   // Service.Do / DoBatch: horizon + merge
	spanApply   = "social.apply"   // Service.BefriendAt / TagAt, lock wait included
	spanCompact = "social.compact" // Service.ApplyInvalidation on a broadcast flush
)

// spanHeader carries the caller's span across the loopback hop; only
// the benchmark's own transport sets it and only its handler reads it.
const spanHeader = "X-Fleetbench-Span"

type spanKey struct{}

// spanRef names a request (req) and the span (id) that is the parent of
// whatever starts under it.
type spanRef struct{ req, id uint64 }

type span struct {
	req, id, parent uint64
	name            string
	path            string // handler and RPC spans: the URL path
	node            int    // replica index for replica-side spans, -1 elsewhere
	start, end      time.Time
	bytes           int64 // RPC spans: request + response body bytes
	queries         int   // fleet.read: queries answered
	edges           int   // social.compact: broadcast edges
	err             bool
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps spans in memory while on; off, every wrapper calls
// straight through.
type recorder struct {
	on  atomic.Bool
	ids atomic.Uint64
	mu  sync.Mutex
	all []*span
}

// beginRequest starts a request's root span at the time it was due;
// every span the request causes shares its id.
func (r *recorder) beginRequest(ctx context.Context, due time.Time) (context.Context, *span) {
	req := r.ids.Add(1)
	sp := &span{req: req, id: r.ids.Add(1), name: spanLoadgen, node: -1, start: due}
	return context.WithValue(ctx, spanKey{}, spanRef{req: req, id: sp.id}), sp
}

// begin starts a span under the request in ctx; nil when recording is
// off or ctx belongs to no request (health probes, broadcasts).
func (r *recorder) begin(ctx context.Context, name string) (context.Context, *span) {
	if !r.on.Load() {
		return ctx, nil
	}
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return ctx, nil
	}
	sp := &span{req: ref.req, parent: ref.id, id: r.ids.Add(1), name: name, node: -1, start: time.Now()}
	return context.WithValue(ctx, spanKey{}, spanRef{req: ref.req, id: sp.id}), sp
}

// beginDetached starts a span for a call that carries no context
// (social.apply, social.compact); analyze links applies to their
// handler span by replica and time.
func (r *recorder) beginDetached(name string, node int) *span {
	if !r.on.Load() {
		return nil
	}
	return &span{id: r.ids.Add(1), name: name, node: node, start: time.Now()}
}

func (r *recorder) end(sp *span) {
	if sp == nil {
		return
	}
	sp.end = time.Now()
	r.mu.Lock()
	r.all = append(r.all, sp)
	r.mu.Unlock()
}

// take returns and clears the recorded spans.
func (r *recorder) take() []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.all
	r.all = nil
	return out
}

// tracedHandler wraps a server's handler in a span. A replica adopts the
// caller's span from spanHeader; the front-end finds the request in the
// context the in-process transport hands it.
type tracedHandler struct {
	rec  *recorder
	name string
	node int
	next http.Handler
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	ctx := r.Context()
	var ref spanRef
	if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &ref.req, &ref.id); err == nil {
		ctx = context.WithValue(ctx, spanKey{}, ref)
	}
	ctx, sp := h.rec.begin(ctx, h.name)
	if sp == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	sp.path, sp.node = r.URL.Path, h.node
	h.next.ServeHTTP(w, r.WithContext(ctx))
	h.rec.end(sp)
}

// tracedTransport wraps a replica client's RoundTripper: one span per
// RPC, ended when the caller closes the response body, with the bytes
// sent and read.
type tracedTransport struct {
	rec  *recorder
	next http.RoundTripper
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, sp := t.rec.begin(req.Context(), spanRPC)
	if sp == nil {
		return t.next.RoundTrip(req)
	}
	sp.path = req.URL.Path
	sp.bytes = req.ContentLength
	ref := ctx.Value(spanKey{}).(spanRef)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.req, ref.id))
	resp, err := t.next.RoundTrip(out)
	if err != nil {
		sp.err = true
		t.rec.end(sp)
		return nil, err
	}
	sp.err = resp.StatusCode >= 400
	resp.Body = &countingBody{ReadCloser: resp.Body, rec: t.rec, sp: sp}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	rec  *recorder
	sp   *span
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.bytes += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.rec.end(b.sp) })
	return err
}

// tracedFrontend is the front-end backend with its read and write
// entry points wrapped.
type tracedFrontend struct {
	*fleet.Frontend
	rec *recorder
}

func (f *tracedFrontend) Do(ctx context.Context, req search.Request) (search.Response, error) {
	ctx, sp := f.rec.begin(ctx, spanRead)
	resp, err := f.Frontend.Do(ctx, req)
	if sp != nil {
		sp.queries, sp.err = 1, err != nil
	}
	f.rec.end(sp)
	return resp, err
}

func (f *tracedFrontend) DoBatch(ctx context.Context, reqs []search.Request) []search.BatchResult {
	ctx, sp := f.rec.begin(ctx, spanRead)
	out := f.Frontend.DoBatch(ctx, reqs)
	if sp != nil {
		sp.queries = len(reqs)
	}
	f.rec.end(sp)
	return out
}

func (f *tracedFrontend) BefriendCtx(ctx context.Context, a, b string, weight float64) error {
	ctx, sp := f.rec.begin(ctx, spanWrite)
	err := f.Frontend.BefriendCtx(ctx, a, b, weight)
	f.rec.end(sp)
	return err
}

func (f *tracedFrontend) TagCtx(ctx context.Context, user, item, tag string) error {
	ctx, sp := f.rec.begin(ctx, spanWrite)
	err := f.Frontend.TagCtx(ctx, user, item, tag)
	f.rec.end(sp)
	return err
}

// tracedService is a replica's backend with its query, apply and
// compaction entry points wrapped.
type tracedService struct {
	*social.Service
	rec  *recorder
	node int
}

func (s *tracedService) Do(ctx context.Context, req search.Request) (search.Response, error) {
	ctx, sp := s.rec.begin(ctx, spanQuery)
	resp, err := s.Service.Do(ctx, req)
	s.rec.end(sp)
	return resp, err
}

func (s *tracedService) DoBatch(ctx context.Context, reqs []search.Request) []search.BatchResult {
	ctx, sp := s.rec.begin(ctx, spanQuery)
	out := s.Service.DoBatch(ctx, reqs)
	s.rec.end(sp)
	return out
}

func (s *tracedService) BefriendAt(lsn uint64, a, b string, weight float64) error {
	sp := s.rec.beginDetached(spanApply, s.node)
	err := s.Service.BefriendAt(lsn, a, b, weight)
	s.rec.end(sp)
	return err
}

func (s *tracedService) TagAt(lsn uint64, user, item, tag string) error {
	sp := s.rec.beginDetached(spanApply, s.node)
	err := s.Service.TagAt(lsn, user, item, tag)
	s.rec.end(sp)
	return err
}

func (s *tracedService) ApplyInvalidation(edges [][2]string, all bool) (int, error) {
	sp := s.rec.beginDetached(spanCompact, s.node)
	n, err := s.Service.ApplyInvalidation(edges, all)
	if sp != nil {
		sp.edges = len(edges)
	}
	s.rec.end(sp)
	return n, err
}

// selfTime is a span's duration minus the union of its children's
// intervals (clipped to the span), so parallel children — a batch
// fanned out to several replicas — are not subtracted twice.
func selfTime(s *span, children []*span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			covered += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.dur() - covered
}

// trees indexes spans by parent so self and blocking-path times can be
// computed per span.
type trees struct {
	kids map[uint64][]*span
}

// link builds the parent index. Applies carry no context; each is
// attached to the mutation handler span on the same replica that
// contains it, which is unambiguous because the front-end's writeMu
// lets only one mutation be in flight at a time.
func link(spans []*span) trees {
	t := trees{kids: make(map[uint64][]*span)}
	var handlers []*span
	for _, s := range spans {
		if s.name == spanReplica && (s.path == "/v1/friend" || s.path == "/v1/tag") {
			handlers = append(handlers, s)
		}
	}
	for _, s := range spans {
		if s.name == spanApply {
			for _, h := range handlers {
				if h.node == s.node && !s.start.Before(h.start) && !s.end.After(h.end) {
					s.req, s.parent = h.req, h.id
					break
				}
			}
		}
		if s.req != 0 && s.parent != 0 {
			t.kids[s.parent] = append(t.kids[s.parent], s)
		}
	}
	return t
}

func (t trees) self(s *span) time.Duration { return selfTime(s, t.kids[s.id]) }

// blockingPath sums self times along the chain of spans the request
// waited on: walking back from the span's end, the child that ended
// last before the cursor blocks, then the one before its start, and so
// on; children overlapping a chosen one ran in parallel and are skipped.
func (t trees) blockingPath(s *span) time.Duration {
	kids := append([]*span(nil), t.kids[s.id]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].end.After(kids[j].end) })
	total := t.self(s)
	cursor := s.end
	for _, c := range kids {
		if c.end.After(cursor) {
			continue
		}
		total += t.blockingPath(c)
		cursor = c.start
	}
	return total
}
