package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/fleet"
	"repro/internal/search"
	"repro/internal/social"
)

// hashAnswer fingerprints an answer bit for bit: every item and the
// IEEE-754 bits of its score, in order.
func hashAnswer(resp search.Response) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range resp.Results {
		h.Write([]byte(r.Item))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Score))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// auditReads compares every undegraded answer with a reference service
// restored from the same corpus and asked the same request. It is built
// after the timed phases so it never competes with them for CPU or
// heap. Wrong answers are marked on their results; the count is
// returned.
func auditReads(scale float64, results []*result) (int, error) {
	ref, err := reference(scale)
	if err != nil {
		return 0, fmt.Errorf("audit reference: %w", err)
	}
	want := make(map[string]uint64)
	var todo []search.Request
	for _, r := range results {
		if r.failed() || r.degraded || r.class == classWrite {
			continue
		}
		for _, q := range r.reqs {
			k := opKey(q)
			if _, ok := want[k]; !ok {
				want[k] = 0
				todo = append(todo, q)
			}
		}
	}
	hashes, err := answerAll(ref, todo)
	if err != nil {
		return 0, err
	}
	for i, q := range todo {
		want[opKey(q)] = hashes[i]
	}
	wrong := 0
	for _, r := range results {
		if r.failed() || r.degraded || r.class == classWrite {
			continue
		}
		for i, q := range r.reqs {
			if r.hashes[i] != want[opKey(q)] {
				r.wrong = true
			}
		}
		if r.wrong {
			wrong++
		}
	}
	return wrong, nil
}

// answerAll asks the reference every request on two workers.
func answerAll(ref *social.Service, reqs []search.Request) ([]uint64, error) {
	out := make([]uint64, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += workers {
				resp, err := ref.Do(context.Background(), reqs[i])
				out[i], errs[i] = hashAnswer(resp), err
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("audit reference: %s: %w", opKey(reqs[i]), err)
		}
	}
	return out, nil
}

// probeCount is the size of the fixed probe set the write audit asks.
const probeCount = 48

// auditWrites checks the fleet after a run with writes: once flushed,
// the replication log head equals the acked writes, every replica's
// cursor equals the head, and each replica (through its own client) and
// the front-end answer a fixed probe set bit-identically to a reference
// that applied the acked writes. It returns one line per problem.
func auditWrites(sys *system, seed int64, scale float64, results []*result) ([]string, error) {
	var acked, failed []op
	for _, r := range results {
		if r.class != classWrite {
			continue
		}
		if r.failed() {
			failed = append(failed, r.op)
		} else {
			acked = append(acked, r.op)
		}
	}
	var problems []string
	if err := sys.front.Flush(); err != nil {
		problems = append(problems, fmt.Sprintf("flush: %v", err))
	}
	head := sys.replog.Head()
	if head != uint64(len(acked)) {
		problems = append(problems, fmt.Sprintf("replication log head %d != %d acked writes (%d writes reported failed)",
			head, len(acked), len(failed)))
	}

	ref, err := reference(scale)
	if err != nil {
		return nil, fmt.Errorf("audit reference: %w", err)
	}
	for _, o := range acked {
		if o.befriend {
			err = ref.Befriend(o.a, o.b, o.weight)
		} else {
			err = ref.Tag(o.user, o.item, o.tag)
		}
		if err != nil {
			return nil, fmt.Errorf("audit reference: applying %+v: %w", o, err)
		}
	}
	if err := ref.Flush(); err != nil {
		return nil, fmt.Errorf("audit reference: flush: %w", err)
	}
	probes := probeSet(sys, seed, acked)
	want, err := answerAll(ref, probes)
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	ask := func(name string, c *fleet.Client) {
		for i, q := range probes {
			resp, err := c.Do(ctx, q)
			switch {
			case err != nil:
				problems = append(problems, fmt.Sprintf("%s: probe %s: %v", name, opKey(q), err))
			case resp.Degraded || hashAnswer(resp) != want[i]:
				problems = append(problems, fmt.Sprintf("%s: probe %s differs from the reference", name, opKey(q)))
			}
		}
	}
	for i, r := range sys.replicas {
		c, err := fleet.NewClient(r.url, fleet.ClientConfig{})
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("replica %d", i)
		cursor, err := c.Healthz(ctx)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", name, err))
		} else if cursor != head {
			problems = append(problems, fmt.Sprintf("%s: cursor %d != log head %d", name, cursor, head))
		}
		ask(name, c)
	}
	ask("front-end", sys.client)
	return problems, nil
}

// probeSet draws the write audit's queries: the endpoints of the last
// befriends and hot seekers, each with a popular tag.
func probeSet(sys *system, seed int64, acked []op) []search.Request {
	st := newStream(workloads["read-hot"], sys.corpus, seed^0x5eed)
	var out []search.Request
	for i := len(acked) - 1; i >= 0 && len(out) < probeCount/2; i-- {
		if acked[i].befriend {
			q := st.query()
			q.Seeker = acked[i].a
			out = append(out, q)
		}
	}
	for len(out) < probeCount {
		out = append(out, st.query())
	}
	return out
}
