// Command fleetbench is the repository's end-to-end benchmark. It
// assembles a three-replica fleet behind a replication-log front-end in
// one process (see system.go), drives it open-loop with a seeded request
// stream, checks every answer against an in-process reference, and
// prints the end-to-end metrics; with -trace 1 it also records spans
// around each layer and prints the per-layer metrics.
//
//	bash fleetbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
//
// Earlier lines of standard output list every metric as "name value
// unit"; the last line is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is 1 when the audit finds
// a wrong answer, a write goes missing, or the generator lagged past its
// bound, and 2 on bad arguments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEndNames are the metrics the JSON line carries with -trace 0;
// layerNames those it carries with -trace 1. Both match BENCHMARK.json.
var (
	endToEndNames = []string{"setup_s", "read_p50_ms", "goodput_qps", "heap_mb", "cpu_ms_per_req"}
	layerNames    = []string{
		"read_p99_ms", "batch_p50_ms", "batch_p99_ms", "write_p50_ms", "write_p99_ms",
		"degraded_pct", "failed_pct", "max_qps_at_slo", "trace.overhead_pct",
		"loadgen.lag_p99_ms", "loadgen.self_p50_ms", "loadgen.self_p99_ms",
		"server.fe.self_p50_ms", "server.fe.self_p99_ms", "admission.fe.shed", "admission.fe.degraded",
		"fleet.read.self_p50_ms", "fleet.read.self_p99_ms",
		"fleet.rpc.search_p50_ms", "fleet.rpc.search_p99_ms", "fleet.rpc.wire_self_p50_ms",
		"fleet.rpc.bytes_per_query", "fleet.rpc.errors",
		"server.replica.self_p50_ms", "server.replica.self_p99_ms",
		"social.query_p50_ms", "social.query_p99_ms", "qcache.hit_ratio", "qcache.invalidated",
		"fleet.write.self_p50_ms", "fleet.write.self_p99_ms",
		"fleet.write.fanout_p50_ms", "fleet.write.fanout_p99_ms",
		"social.apply_p50_ms", "social.apply_p99_ms",
		"social.compact_p50_ms", "social.compact_p99_ms", "social.compact.count", "fleet.bcast.edges_per_flush",
		"trace.read.path_pct", "trace.batch.path_pct", "trace.write.path_pct",
	}
)

// classUnits names the unit of each metric a workload may lack, so a
// class the workload does not send still reports its name (value 0).
var classUnits = map[string]string{
	"batch_p50_ms": "ms", "batch_p99_ms": "ms", "write_p50_ms": "ms", "write_p99_ms": "ms",
}

type config struct {
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
	// scale shrinks the corpus (tests); 1 is the paper-sized preset.
	scale float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// warmOps is the warm-up length in requests.
	warmOps int
	// probe is the length of one max_qps_at_slo probe.
	probe time.Duration
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// auditFailures counts wrong answers and write-audit problems.
	auditFailures int
}

func main() {
	name := flag.String("workload", "", "read-hot, read-cold or write-mix")
	seed := flag.Int64("seed", 1, "seed of the request stream and its arrival times")
	seconds := flag.Int("seconds", 10, "length of the fixed-rate timed phase in seconds")
	trace := flag.Int("trace", 0, "1: also run a traced phase and the max_qps_at_slo search, and report per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "fleetbench: want --workload read-hot|read-cold|write-mix, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := config{
		w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		scale: 1, setups: 3, warmOps: 1500, probe: 2 * time.Second,
	}
	rep, err := run(cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run sets the system up, measures, audits and returns the report;
// human-readable metric lines go to out, diagnostics to errw.
func run(cfg config, out, errw io.Writer) (*report, error) {
	tmp, err := os.MkdirTemp("", "fleetbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	fmt.Fprintf(errw, "fleetbench: workload %s seed %d rate %.0f/s GOMAXPROCS %d\n",
		cfg.w.name, cfg.seed, cfg.w.rate, runtime.GOMAXPROCS(0))

	// Set up several times and keep the last system: setup_s is the
	// median, so one slow set-up does not decide it.
	rec := &recorder{}
	var sys *system
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
			runtime.GC()
		}
		t0 := time.Now()
		sys, err = newSystem(cfg.scale, fmt.Sprintf("%s/replog%d", tmp, i), rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := sys.warm(newStream(cfg.w, sys.corpus, cfg.seed^0x3a3a), cfg.warmOps); err != nil {
			sys.close()
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer sys.close()

	st := newStream(cfg.w, sys.corpus, cfg.seed)
	timed := runPhase(sys, st, cfg.w.rate, cfg.seconds, nil)
	// measured holds the fixed-rate phases' results, the ones the read
	// audit checks; all adds the search probes, whose writes the write
	// audit must count.
	measured := append([]*result(nil), timed.results...)

	all := measured
	var traced *phase
	var spans []*span
	m := &metrics{}
	if cfg.trace {
		hits0, misses0, inval0 := sys.cacheCounters()
		adm0 := sys.feAdmit.Snapshot()
		rec.on.Store(true)
		traced = runPhase(sys, st, cfg.w.rate, cfg.seconds, rec)
		rec.on.Store(false)
		spans = rec.take()
		hits, misses, inval := sys.cacheCounters()
		adm := sys.feAdmit.Snapshot()
		measured = append(measured, traced.results...)
		m.set("admission.fe.shed", float64(adm.Shed()-adm0.Shed()), "count")
		m.set("admission.fe.degraded", float64(adm.Degraded-adm0.Degraded), "count")
		ratio := 0.0
		if n := (hits - hits0) + (misses - misses0); n > 0 {
			ratio = float64(hits-hits0) / float64(n)
		}
		m.set("qcache.hit_ratio", ratio, "ratio")
		m.set("qcache.invalidated", float64(inval-inval0), "count")

		maxQPS, probes := searchMaxQPS(sys, st, cfg, errw)
		m.set("max_qps_at_slo", maxQPS, "1/s")
		all = append(measured, probes...)
	}

	// Audit, then summarize: a wrong answer counts failed and is not
	// goodput.
	wrong := 0
	if cfg.w.writePct > 0 {
		problems, err := auditWrites(sys, cfg.seed, cfg.scale, all)
		if err != nil {
			return nil, err
		}
		for _, p := range problems {
			fmt.Fprintf(errw, "fleetbench: audit: %s\n", p)
		}
		wrong = len(problems)
	} else {
		if wrong, err = auditReads(cfg.scale, measured); err != nil {
			return nil, err
		}
		if wrong > 0 {
			fmt.Fprintf(errw, "fleetbench: audit: %d answers differ from the reference\n", wrong)
		}
	}
	correct := wrong == 0

	s := summarize(timed)
	m.set("setup_s", median(setupS), "s")
	endToEnd(m, timed, s)
	if s.lagP99MS > lagBoundMS {
		fmt.Fprintf(errw, "fleetbench: invalid run: generator lag p99 %.1f ms > %d ms\n", s.lagP99MS, lagBoundMS)
		correct = false
	}
	attempted, failed := s.attempted, s.failed
	if traced != nil {
		ts := summarize(traced)
		layerMetrics(m, spans, traced)
		overhead := 0.0
		if base := quantile(s.all, 0.5); base > 0 {
			overhead = 100 * (quantile(ts.all, 0.5) - base) / base
		}
		m.set("trace.overhead_pct", overhead, "%")
		attempted += ts.attempted
		failed += ts.failed
	}
	if cfg.w.writePct > 0 {
		// Write-audit problems are not tied to one request.
		failed += wrong
	}

	for _, n := range m.names {
		fmt.Fprintf(out, "%-30s %14.4f %s\n", n, m.values[n].Value, m.values[n].Unit)
	}
	names := endToEndNames
	if cfg.trace {
		names = layerNames
	}
	rep := &report{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric), auditFailures: wrong}
	var missing []string
	for _, n := range names {
		v, ok := m.values[n]
		if !ok {
			if unit, lacks := classUnits[n]; lacks {
				v = metric{Unit: unit}
			} else {
				missing = append(missing, n)
			}
		}
		rep.Metrics[n] = v
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return rep, nil
}

// searchMaxQPS finds the highest offered rate of the workload's mix that
// meets the SLO: it doubles from an eighth of the fixed rate until a
// probe misses, then bisects between the last pass and the first miss.
// It returns 0 when even the first probe misses, and every probe's
// results (their writes join the write audit).
func searchMaxQPS(sys *system, st *stream, cfg config, errw io.Writer) (float64, []*result) {
	const (
		maxRate     = 20000
		bisectSteps = 4
	)
	var all []*result
	probe := func(rate float64) bool {
		p := runPhase(sys, st, rate, cfg.probe, nil)
		all = append(all, p.results...)
		s := summarize(p)
		ok := s.meetsSLO()
		fmt.Fprintf(errw, "fleetbench: probe %.0f/s: p99 %.1f ms, failed %.2f%%, lag p99 %.1f ms, backlog grew %v -> pass %v\n",
			rate, s.allP99WithFailures, s.failedPct, s.lagP99MS, s.backlogGrew, ok)
		return ok
	}
	lo, hi := 0.0, 0.0
	for rate := cfg.w.rate / 8; rate <= maxRate; rate *= 2 {
		if !probe(rate) {
			hi = rate
			break
		}
		lo = rate
	}
	if lo == 0 || hi == 0 {
		return lo, all
	}
	for i := 0; i < bisectSteps; i++ {
		mid := (lo + hi) / 2
		if probe(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, all
}
