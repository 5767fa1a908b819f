package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/social"
)

// The traced wrappers must keep every optional server surface the
// wrapped types offer, or the server would silently take another path.
var (
	_ server.Backend                    = (*tracedService)(nil)
	_ server.LSNApplier                 = (*tracedService)(nil)
	_ server.LSNSkipper                 = (*tracedService)(nil)
	_ server.Invalidator                = (*tracedService)(nil)
	_ server.SnapshotSource             = (*tracedService)(nil)
	_ server.SnapshotImporter           = (*tracedService)(nil)
	_ server.CacheWarmer                = (*tracedService)(nil)
	_ interface{ Stats() social.Stats } = (*tracedService)(nil)

	_ server.Backend                   = (*tracedFrontend)(nil)
	_ server.CtxMutator                = (*tracedFrontend)(nil)
	_ server.Statser                   = (*tracedFrontend)(nil)
	_ server.ReplogSource              = (*tracedFrontend)(nil)
	_ server.FleetResizer              = (*tracedFrontend)(nil)
	_ server.RoleReporter              = (*tracedFrontend)(nil)
	_ interface{ AppliedLSN() uint64 } = (*tracedService)(nil)
)

const testScale = 0.25

func shortConfig(name string) config {
	return config{
		w: workloads[name], seed: 3, seconds: time.Second, trace: true,
		scale: testScale, setups: 1, warmOps: 200, probe: 300 * time.Millisecond,
	}
}

func TestShortRunsPassAudit(t *testing.T) {
	for _, name := range []string{"read-hot", "read-cold", "write-mix"} {
		t.Run(name, func(t *testing.T) {
			rep, err := run(shortConfig(name), io.Discard, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if rep.auditFailures != 0 || !rep.Correct {
				t.Fatalf("audit failures %d, correct %v", rep.auditFailures, rep.Correct)
			}
			if rep.Attempted == 0 || len(rep.Metrics) != len(layerNames) {
				t.Fatalf("attempted %d, %d metrics", rep.Attempted, len(rep.Metrics))
			}
		})
	}
}

func TestAuditReadsCatchesPlantedWrongAnswer(t *testing.T) {
	const seed = 5
	ref, err := reference(testScale)
	if err != nil {
		t.Fatal(err)
	}
	q := search.Request{Seeker: userName(1), Tags: []string{tagName(0)}, K: topK}
	resp, err := ref.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	good := &result{op: op{class: classRead, reqs: []search.Request{q}}, outcome: outcome{hashes: []uint64{hashAnswer(resp)}}}
	planted := &result{op: op{class: classRead, reqs: []search.Request{q}}, outcome: outcome{hashes: []uint64{hashAnswer(resp) + 1}}}
	wrong, err := auditReads(testScale, []*result{good, planted})
	if err != nil {
		t.Fatal(err)
	}
	if wrong != 1 || good.wrong || !planted.wrong || !planted.failed() {
		t.Fatalf("wrong %d, good marked %v, planted marked %v", wrong, good.wrong, planted.wrong)
	}
}

func TestAuditWritesCatchesDivergentReplica(t *testing.T) {
	const seed = 7
	sys, err := newSystem(testScale, t.TempDir(), &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	st := newStream(workloads["write-mix"], sys.corpus, seed)
	p := runPhase(sys, st, 50, time.Second, nil)
	if problems, err := auditWrites(sys, seed, testScale, p.results); err != nil || len(problems) != 0 {
		t.Fatalf("clean run: err %v, problems %v", err, problems)
	}
	// A write that reached one replica outside the replication log: the
	// replica's answers for the seeker diverge from the reference.
	probes := probeSet(sys, seed, nil)
	if err := sys.replicas[1].svc.Befriend(probes[0].Seeker, userName(0), 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.replicas[1].svc.Flush(); err != nil {
		t.Fatal(err)
	}
	problems, err := auditWrites(sys, seed, testScale, p.results)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) == 0 {
		t.Fatal("divergent replica passed the audit")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := &span{req: 1, id: 1, start: at(0), end: at(10)}
	kids := []*span{
		{req: 1, id: 2, parent: 1, start: at(1), end: at(5)}, // overlaps the next: a parallel fan-out
		{req: 1, id: 3, parent: 1, start: at(2), end: at(7)},
		{req: 1, id: 4, parent: 1, start: at(8), end: at(9)},
		{req: 1, id: 5, parent: 3, start: at(3), end: at(4)},
	}
	if got := selfTime(parent, kids[:3]); got != 3*time.Millisecond {
		t.Fatalf("self %v, want 3ms (10 minus the union [1,7]+[8,9])", got)
	}
	tr := link(append([]*span{parent}, kids...))
	// Blocking path: parent self 3 + [8,9] 1 + [2,7] 5 (its self 4 plus
	// its child's 1); [1,5] overlaps [2,7] and ran in parallel.
	if got := tr.blockingPath(parent); got != 9*time.Millisecond {
		t.Fatalf("blocking path %v, want 9ms", got)
	}
}

// The metric names the JSON line carries must be the ones
// BENCHMARK.json declares, in both modes.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !reflect.DeepEqual(got, endToEndNames) {
		t.Errorf("end_to_end %v, program reports %v", got, endToEndNames)
	}
	if got := names(b.PerLayer); !reflect.DeepEqual(got, layerNames) {
		t.Errorf("per_layer %v, program reports %v", got, layerNames)
	}
}
