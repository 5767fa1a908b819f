package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/social"
	"repro/internal/vocab"
)

const numReplicas = 3

// system is the fleet under test, wired as cmd/friendserve wires
//
//	friendserve -replica -admit                         (×3, loopback)
//	friendserve -replicas … -replog-dir <tmp> -admit    (front-end)
//
// with every other flag at its default. The generator reaches the
// front-end's handler in-process; the front-end→replica hops are real
// loopback HTTP.
type system struct {
	corpus   corpus
	replicas []*replica
	front    *tracedFrontend
	feAdmit  *admission.Controller
	replog   *fleet.RepLog
	// client is the generator's fleet.Client to the front-end.
	client *fleet.Client
	// replicaTransport is the front-end's pooled transport to the
	// replicas, closed with the system.
	replicaTransport *http.Transport
}

type replica struct {
	svc  *tracedService
	url  string
	hs   *http.Server
	done chan struct{}
}

// replicaCompactEvery matches friendserve -replica: count-triggered
// compaction is off and the front-end's invalidation broadcast is the
// compaction heartbeat.
const replicaCompactEvery = 1 << 30

func replicaConfig() social.ServiceConfig {
	cfg := social.DefaultServiceConfig()
	cfg.AutoCompactEvery = replicaCompactEvery
	return cfg
}

// corpusSeed fixes the dataset and its hot-seeker ranking for every run;
// --seed varies the request stream over it. Seeded corpora differ in
// which users are hubs, which moved read latency between seeds by more
// than any bound a regression check could use.
const corpusSeed = 1

// generate builds the Delicious-shaped corpus (2,000 users at scale 1,
// the paper-sized preset).
func generate(scale float64) (*gen.Dataset, error) {
	p := gen.DeliciousParams()
	if scale != 1 {
		p = p.Scale(scale)
	}
	return gen.Generate(p, corpusSeed)
}

// restore loads a generated corpus into a service, naming users u<i>,
// items i<i> and tags t<i>.
func restore(ds *gen.Dataset, cfg social.ServiceConfig) (*social.Service, error) {
	names := vocab.NewSet()
	for u := 0; u < ds.Graph.NumUsers(); u++ {
		names.Users.MustAdd(userName(u))
	}
	for i := 0; i < ds.Store.NumItems(); i++ {
		names.Items.MustAdd(itemName(i))
	}
	for t := 0; t < ds.Store.NumTags(); t++ {
		names.Tags.MustAdd(tagName(int32(t)))
	}
	return social.Restore(cfg, ds.Graph, ds.Store, names)
}

// reference restores the audit's reference service from its own copy
// of the corpus. Its cache holds every seeker, so the audit expands each
// horizon once; answers do not depend on whether a horizon was cached
// (the replicas' own caches hit and miss on the same requests).
func reference(scale float64) (*social.Service, error) {
	ds, err := generate(scale)
	if err != nil {
		return nil, err
	}
	cfg := replicaConfig()
	cfg.SeekerCacheSize = ds.Graph.NumUsers()
	return restore(ds, cfg)
}

// newServer applies friendserve's defaults: the tracer with default
// sampling, build info, the access log (discarded here) and admission
// control with package defaults.
func newServer(b server.Backend, node string) (*server.Server, *admission.Controller, error) {
	srv, err := server.New(b)
	if err != nil {
		return nil, nil, err
	}
	srv.SetTracer(obs.NewTracer(obs.Config{Node: node}))
	srv.SetBuild(obs.NewBuild(node))
	srv.SetAccessLogger(obs.NewLogger(io.Discard, "text", node))
	srv.SetLogf(func(string, ...interface{}) {})
	ctrl := admission.New(admission.Config{})
	srv.SetAdmission(ctrl)
	return srv, ctrl, nil
}

// inProcess is a RoundTripper that serves requests with a handler in
// the same process: the generator opens no sockets and never waits on a
// connection pool of its own.
type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if req.Body != nil {
		req.Body.Close()
	}
	return rec.Result(), nil
}

// newSystem builds the corpus, the three replicas and the front-end,
// using dir for the replication log.
func newSystem(scale float64, dir string, rec *recorder) (*system, error) {
	ds, err := generate(scale)
	if err != nil {
		return nil, err
	}
	sys := &system{corpus: newCorpus(ds)}
	ok := false
	defer func() {
		if !ok {
			sys.close()
		}
	}()
	for i := 0; i < numReplicas; i++ {
		if i > 0 {
			if ds, err = generate(scale); err != nil {
				return nil, err
			}
		}
		svc, err := restore(ds, replicaConfig())
		if err != nil {
			return nil, err
		}
		r, err := startReplica(&tracedService{Service: svc, rec: rec, node: i}, rec)
		if err != nil {
			return nil, err
		}
		sys.replicas = append(sys.replicas, r)
	}

	sys.replicaTransport = &http.Transport{
		MaxIdleConns:        fleet.DefaultMaxIdleConns,
		MaxIdleConnsPerHost: fleet.DefaultMaxIdleConns,
		IdleConnTimeout:     90 * time.Second,
	}
	var clients []*fleet.Client
	for _, r := range sys.replicas {
		c, err := fleet.NewClient(r.url, fleet.ClientConfig{
			Transport: tracedTransport{rec: rec, next: sys.replicaTransport},
		})
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
	}
	pool, err := fleet.NewPool(clients, fleet.PoolConfig{})
	if err != nil {
		return nil, err
	}
	bcast := fleet.NewBroadcaster(clients, fleet.BroadcasterConfig{})
	front, err := fleet.NewFrontend(pool, bcast)
	if err != nil {
		pool.Close()
		bcast.Close()
		return nil, err
	}
	sys.front = &tracedFrontend{Frontend: front, rec: rec}
	if sys.replog, err = fleet.OpenRepLog(dir); err != nil {
		return nil, err
	}
	if err := front.UseRepLog(sys.replog); err != nil {
		// Not attached, so the front-end's Close would not close it.
		sys.replog.Close()
		return nil, err
	}
	srv, ctrl, err := newServer(sys.front, "frontend")
	if err != nil {
		return nil, err
	}
	sys.feAdmit = ctrl
	sys.client, err = fleet.NewClient("http://frontend.invalid", fleet.ClientConfig{
		Transport: inProcess{tracedHandler{rec: rec, name: spanFE, node: -1, next: srv}},
	})
	if err != nil {
		return nil, err
	}
	ok = true
	return sys, nil
}

func startReplica(svc *tracedService, rec *recorder) (*replica, error) {
	srv, _, err := newServer(svc, fmt.Sprintf("replica%d", svc.node))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &replica{
		svc:  svc,
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: tracedHandler{rec: rec, name: spanReplica, node: svc.node, next: srv}, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(r.done)
		if err := r.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "fleetbench: replica %d: %v\n", svc.node, err)
		}
	}()
	return r, nil
}

// close stops the front-end (pool prober, broadcaster, replication log)
// and the replica servers, and waits for their goroutines.
func (s *system) close() {
	if s.front != nil {
		s.front.Close()
	} else if s.replog != nil {
		s.replog.Close()
	}
	if s.replicaTransport != nil {
		s.replicaTransport.CloseIdleConnections()
	}
	for _, r := range s.replicas {
		r.hs.Close()
		<-r.done
	}
}

// warm sends n requests of the workload's read part, closed-loop from a
// few workers, so seeker caches and the heap reach steady state before
// timing.
func (s *system) warm(st *stream, n int) error {
	ops := make(chan op)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range ops {
				if err := s.send(context.Background(), o).err; err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		ops <- st.readOp()
	}
	close(ops)
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("warm-up: %w", firstErr)
	}
	return nil
}

// outcome is what the front-end answered to one op.
type outcome struct {
	err      error
	degraded bool
	hashes   []uint64 // one per query, for the audit
}

// send issues one op through the generator's client.
func (s *system) send(ctx context.Context, o op) outcome {
	switch o.class {
	case classRead:
		resp, err := s.client.Do(ctx, o.reqs[0])
		if err != nil {
			return outcome{err: err}
		}
		return outcome{degraded: resp.Degraded, hashes: []uint64{hashAnswer(resp)}}
	case classBatch:
		out := outcome{hashes: make([]uint64, len(o.reqs))}
		for i, br := range s.client.DoBatch(ctx, o.reqs) {
			if br.Err != nil {
				return outcome{err: fmt.Errorf("batch entry %d: %w", i, br.Err)}
			}
			out.degraded = out.degraded || br.Response.Degraded
			out.hashes[i] = hashAnswer(br.Response)
		}
		return out
	default:
		var err error
		if o.befriend {
			_, err = s.client.Befriend(ctx, o.a, o.b, o.weight, 0)
		} else {
			_, err = s.client.Tag(ctx, o.user, o.item, o.tag, 0)
		}
		return outcome{err: err}
	}
}

// cacheCounters sums the replicas' seeker-cache counters.
func (s *system) cacheCounters() (hits, misses, invalidations int64) {
	for _, r := range s.replicas {
		c := r.svc.Stats().SeekerCache
		hits += c.Hits
		misses += c.Misses
		invalidations += c.Invalidations
	}
	return
}
