package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// sloMS is the latency limit for every request, as in cmd/loadtest.
	sloMS = 100
	// maxInflight caps the generator's outstanding requests; an arrival
	// over the cap is dropped and counted failed.
	maxInflight = 1024
	// requestTimeout bounds one request; a timeout counts failed.
	requestTimeout = 10 * time.Second
	// lagBoundMS is the dispatcher lag p99 above which a fixed-rate
	// phase is invalid: the generator fell a whole SLO behind its
	// schedule. It is that loose because write-mix's compactions take
	// both CPUs for hundreds of milliseconds and the generator shares
	// them (its lag p99 there is ~40 ms).
	lagBoundMS = sloMS
)

// result is one op's fate.
type result struct {
	op
	due      time.Time
	latMS    float64 // from when the op was due to completion
	dropped  bool    // over the in-flight cap: never sent
	reqID    uint64  // traced phases: the request's span id root
	inflight int64   // generator's in-flight count when it was dispatched
	outcome
	// wrong is set by the audit.
	wrong bool
}

func (r *result) failed() bool { return r.dropped || r.err != nil || r.wrong }

// phase is one open-loop run at a fixed offered rate.
type phase struct {
	dur     time.Duration
	start   time.Time
	results []*result
	lagMS   []float64
	// heapPeak is the highest Go heap in use sampled during the phase.
	heapPeak uint64
	// cpu is the process CPU time (user + system) the phase used: the
	// fleet's and the generator's work, without time the host stole.
	cpu time.Duration
}

// runPhase offers the stream's ops at rate for dur, one goroutine per
// due arrival, timing each from when it was due. With rec set, each
// request carries a span id.
func runPhase(sys *system, st *stream, rate float64, dur time.Duration, rec *recorder) *phase {
	p := &phase{dur: dur}
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
	)
	stopHeap := make(chan struct{})
	heapDone := make(chan uint64)
	go sampleHeap(stopHeap, heapDone)

	cpu0 := cpuTime()
	offsets := st.schedule(rate, dur)
	p.results = make([]*result, len(offsets))
	for i := range p.results {
		p.results[i] = &result{op: st.next()}
	}
	p.lagMS = make([]float64, 0, len(offsets))
	start := time.Now()
	p.start = start
	for i, off := range offsets {
		r := p.results[i]
		r.due = start.Add(off)
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		p.lagMS = append(p.lagMS, ms(time.Since(r.due)))
		r.inflight = inflight.Load()
		if r.inflight >= maxInflight {
			r.dropped = true
			continue
		}
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			defer cancel()
			var root *span
			if rec != nil {
				ctx, root = rec.beginRequest(ctx, r.due)
				r.reqID = root.req
			}
			r.outcome = sys.send(ctx, r.op)
			r.latMS = ms(time.Since(r.due))
			if rec != nil {
				rec.end(root)
			}
		}()
	}
	wg.Wait()
	p.cpu = cpuTime() - cpu0
	close(stopHeap)
	p.heapPeak = <-heapDone
	return p
}

func sampleHeap(stop <-chan struct{}, done chan<- uint64) {
	var peak uint64
	var ms runtime.MemStats
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > peak {
			peak = ms.HeapInuse
		}
		select {
		case <-stop:
			done <- peak
			return
		case <-tick.C:
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
