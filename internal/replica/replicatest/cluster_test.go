package replicatest

import (
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// scrapeCounter fetches the router's /metrics and sums the samples of
// one family.
func scrapeCounter(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("scrape parse: %v", err)
	}
	total := 0.0
	for _, s := range exp.Samples {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// mutateSome drives a slice of the spare pool through the writer:
// appends in small batches, deletes a third of what it appended, and
// compacts one shard — every frame kind ends up in the log.
func (c *Cluster) mutateSome(t *testing.T, spares int) {
	t.Helper()
	if spares > len(c.Extra) {
		t.Fatalf("mutateSome(%d): only %d spare points", spares, len(c.Extra))
	}
	batch := c.Extra[:spares]
	c.Extra = c.Extra[spares:]
	var appended []int32
	for len(batch) > 0 {
		n := min(5, len(batch))
		var out idsResponse
		if _, err := c.Writer.call("POST", "/append", map[string]any{"points": batch[:n]}, &out); err != nil {
			t.Fatalf("append: %v", err)
		}
		appended = append(appended, out.IDs...)
		batch = batch[n:]
	}
	var dead []int32
	for i := 0; i < len(appended); i += 3 {
		dead = append(dead, appended[i])
	}
	if _, err := c.Writer.call("POST", "/delete", map[string]any{"ids": dead}, nil); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.Writer.call("POST", "/compact", map[string]any{"shard": 0}, nil); err != nil {
		t.Fatalf("compact: %v", err)
	}
}

func TestClusterConvergesUnderWrites(t *testing.T) {
	c := New(t, Config{})
	c.mutateSome(t, 60)
	c.WaitCaughtUp(10 * time.Second)
	c.AssertConverged()

	// The router answers too, and from converged state.
	status, ids, err := c.QueryRouter(c.Queries[0])
	if err != nil || status != http.StatusOK {
		t.Fatalf("router query: status %d, err %v", status, err)
	}
	want, _ := c.Writer.Query(c.Queries[0])
	if len(ids) != len(want) {
		t.Fatalf("router answered %d ids, writer %d", len(ids), len(want))
	}
}

// TestRouterZeroErrorsDuringReplicaCrash is the headline chaos case:
// one of two replicas dies mid-traffic and every single routed query
// still answers 200 — the dead replica is demoted (not removed), and
// rejoining promotes it back.
func TestRouterZeroErrorsDuringReplicaCrash(t *testing.T) {
	c := New(t, Config{Replicas: 2})
	c.mutateSome(t, 30)
	c.WaitCaughtUp(10 * time.Second)

	const total = 150
	for i := 0; i < total; i++ {
		if i == total/3 {
			c.Nodes[0].Kill()
		}
		q := c.Queries[i%len(c.Queries)]
		status, _, err := c.QueryRouter(q)
		if err != nil || status != http.StatusOK {
			t.Fatalf("query %d: status %d, err %v (zero routed failures required)", i, status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if v := scrapeCounter(t, c.RouterURL, "hybridlsh_router_demotions_total"); v < 1 {
		t.Fatalf("demotions_total = %v after a replica crash, want >= 1", v)
	}

	c.Nodes[0].Restart()
	deadline := time.Now().Add(10 * time.Second)
	for c.Router.Healthy() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never promoted; healthy = %d", c.Router.Healthy())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v := scrapeCounter(t, c.RouterURL, "hybridlsh_router_promotions_total"); v < 1 {
		t.Fatalf("promotions_total = %v after rejoin, want >= 1", v)
	}
	c.WaitCaughtUp(10 * time.Second)
	c.AssertConverged()
}

// TestRouterSurvivesMidStreamResets aims the server-side fault at one
// replica: its accepted connections die after a handful of bytes, and
// the router still answers every query from the other replica.
func TestRouterSurvivesMidStreamResets(t *testing.T) {
	c := New(t, Config{Replicas: 2})
	c.WaitCaughtUp(10 * time.Second)

	c.Nodes[0].ServeFaults.KillAcceptedAfter(5, 32)
	for i := 0; i < 30; i++ {
		status, _, err := c.QueryRouter(c.Queries[i%len(c.Queries)])
		if err != nil || status != http.StatusOK {
			t.Fatalf("query %d: status %d, err %v", i, status, err)
		}
	}
}

// TestFollowerConvergesThroughDeltaFaults sabotages the tail itself:
// dropped polls, truncated and reset delta bodies, slow fetches. The
// follower must keep retrying and still converge id-identically.
func TestFollowerConvergesThroughDeltaFaults(t *testing.T) {
	c := New(t, Config{Replicas: 1})
	n := c.Nodes[0]
	for round := 0; round < 8; round++ {
		switch round % 4 {
		case 0:
			n.TailFaults.TruncateNext(2)
		case 1:
			n.TailFaults.ResetNext(2)
		case 2:
			n.TailFaults.DropNext(2)
		case 3:
			n.TailFaults.DelayNext(2, 15*time.Millisecond)
		}
		c.mutateSome(t, 15)
		time.Sleep(10 * time.Millisecond)
	}
	// A real node's tail loop backs off from its 100ms poll interval, so
	// riding out six consecutive sabotaged polls alone takes ~10s.
	c.WaitCaughtUp(45 * time.Second)
	c.AssertConverged()
}

// TestPartitionedFollowerRehydrates partitions the only follower long
// enough for the writer's small delta log to trim past its cursor; on
// heal the follower must notice 410 Gone, throw its state away,
// re-hydrate and converge.
func TestPartitionedFollowerRehydrates(t *testing.T) {
	c := New(t, Config{Replicas: 1, LogCap: 8})
	c.WaitCaughtUp(10 * time.Second)
	n := c.Nodes[0]

	n.TailFaults.DropNext(1 << 30) // full partition
	for i := 0; i < 6; i++ {       // way past the 8-frame retention
		c.mutateSome(t, 8)
	}
	if c.Writer.Status().Seq < 16 {
		t.Fatalf("writer produced only %d frames, need > 2x the log cap", c.Writer.Status().Seq)
	}
	time.Sleep(50 * time.Millisecond) // let a few polls fail into the partition

	n.TailFaults.DropNext(0) // heal
	c.WaitCaughtUp(15 * time.Second)
	c.AssertConverged()
	if n.Rehydrates() < 2 {
		t.Fatalf("rehydrates = %d, want >= 2 (initial hydrate + post-trim recovery)", n.Rehydrates())
	}
}

// TestSnapshotDeltaRace hydrates fresh replicas while the writer is
// mutating at full tilt: the snapshot's sequence stamp and the replay
// tail overlap, and the idempotent replay must absorb it exactly.
func TestSnapshotDeltaRace(t *testing.T) {
	c := New(t, Config{Replicas: 1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.mutateSome(t, 5)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Hydrate two more replicas mid-stream, staggered.
	for i := 0; i < 2; i++ {
		time.Sleep(10 * time.Millisecond)
		c.Nodes = append(c.Nodes, c.newNode())
	}
	close(stop)
	wg.Wait()

	c.WaitCaughtUp(15 * time.Second)
	c.AssertConverged()
}

// TestCrashedReplicaRejoinsAndConverges kills a replica, keeps writing,
// rejoins it under the same URL and demands full convergence.
func TestCrashedReplicaRejoinsAndConverges(t *testing.T) {
	c := New(t, Config{Replicas: 2})
	c.mutateSome(t, 20)
	c.WaitCaughtUp(10 * time.Second)

	c.Nodes[0].Kill()
	c.mutateSome(t, 40) // the crashed replica misses all of this
	c.Nodes[0].Restart()

	c.WaitCaughtUp(15 * time.Second)
	c.AssertConverged()
}

// TestFailoverThroughRealNodes needs real nodes end to end: followers
// refuse all five mutating endpoints, the writer dies, a follower is
// promoted through the router, the other follower re-hydrates onto the
// new epoch, and the router's answers are id-identical to the promoted
// writer's.
func TestFailoverThroughRealNodes(t *testing.T) {
	c := New(t, Config{Replicas: 2})
	c.mutateSome(t, 30)
	c.WaitCaughtUp(10 * time.Second)
	oldEpoch := c.Writer.Status().Epoch

	for _, n := range c.Nodes {
		for _, path := range []string{"/append", "/delete", "/compact", "/recalibrate", "/snapshot"} {
			if code, _ := n.call("POST", path, map[string]any{}, nil); code != http.StatusForbidden {
				t.Fatalf("follower %s answered POST %s with %d, want 403", n.URL, path, code)
			}
		}
	}

	c.Writer.Kill()
	c.Promote(0)
	if st := c.Writer.Status(); st.Role != "source" || st.Epoch <= oldEpoch {
		t.Fatalf("promoted node status %+v, want a source above epoch %d", st, oldEpoch)
	}
	// The new writer takes mutations (every frame kind) at the new epoch.
	c.mutateSome(t, 30)

	// The other follower's epoch died with the old writer: it rejoins the
	// promoted node from scratch and converges onto the new epoch.
	c.Nodes[1].Restart()
	c.WaitCaughtUp(15 * time.Second)
	c.AssertConverged()
	if st := c.Nodes[1].Status(); st.Role != "follower" || st.Epoch != c.Writer.Status().Epoch {
		t.Fatalf("rejoined follower status %+v, want a follower on the promoted epoch", st)
	}

	// Both members are on the new epoch, so the router serves from either;
	// whichever answers must match the promoted writer id for id.
	deadline := time.Now().Add(10 * time.Second)
	for c.Router.Healthy() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("router sees %d healthy members after failover, want 2", c.Router.Healthy())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for round := 0; round < 2; round++ { // round-robin: both members answer
		for qi, q := range c.Queries {
			want, err := c.Writer.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			status, got, err := c.QueryRouter(q)
			if err != nil || status != http.StatusOK {
				t.Fatalf("routed query %d: status %d, err %v", qi, status, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("routed query %d: got %v, promoted writer %v", qi, got, want)
			}
		}
	}
}
