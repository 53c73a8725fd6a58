//go:build e2e

package e2e

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// lingering waits for an oodbsim run to end and returns its metrics URL.
func lingering(t *testing.T, sim *proc) string {
	t.Helper()
	base := "http://" + sim.match(t, `serving metrics at http://(\S+)/metrics`)[1]
	sim.match(t, `metrics endpoint up for another`)
	return base
}

// TestMetricsEndpoint: oodbsim's -metrics-addr serves the lock, pool and
// engine registries on /metrics and the flight recorder on /events.
func TestMetricsEndpoint(t *testing.T) {
	base := lingering(t, start(t, "oodbsim", "-workload", "banking", "-protocol", "open-nested",
		"-workers", "2", "-txns", "10", "-metrics-addr", "127.0.0.1:0", "-metrics-linger", "1m"))
	var m map[string]any
	get(t, base+"/metrics", &m)
	for _, k := range []string{"lock", "pool", "engine"} {
		if _, ok := m[k]; !ok {
			t.Errorf("/metrics has no %q", k)
		}
	}
	if code, _ := get(t, base+"/events?n=5", nil); code != 200 {
		t.Errorf("/events answered %d", code)
	}
}

// trace is the part of a span trace the tests read.
type trace struct {
	Txn, Status, Remote string
	Spans               []struct {
		Kind  string
		Edges []struct{ Kind, Peer string }
	}
}

// TestTraceEndpoint: after a lock-stress run /trace lists transactions,
// and an aborted deadlock victim's trace names the one it was a victim of.
func TestTraceEndpoint(t *testing.T) {
	base := lingering(t, start(t, "oodbsim", "-workload", "lockstress", "-workers", "16", "-txns", "20",
		"-conflict", "100", "-hold", "1ms", "-metrics-addr", "127.0.0.1:0", "-metrics-linger", "1m"))
	var slowest, aborted []trace
	if get(t, base+"/trace/slowest?n=3", &slowest); len(slowest) == 0 || slowest[0].Txn == "" {
		t.Errorf("/trace/slowest = %+v, want traces with a txn", slowest)
	}
	var index struct{ Txns []string }
	if get(t, base+"/trace", &index); len(index.Txns) == 0 {
		t.Error("/trace lists no txns")
	}
	if get(t, base+"/trace/aborted?n=3", &aborted); len(aborted) == 0 {
		t.Fatal("/trace/aborted is empty")
	}
	victimOf := false
	for _, s := range aborted[0].Spans {
		for _, e := range s.Edges {
			victimOf = victimOf || e.Kind == "victim-of" && e.Peer != ""
		}
	}
	if aborted[0].Status != "aborted" || !victimOf {
		t.Errorf("first aborted trace has status %q and victim-of edge %v: %+v", aborted[0].Status, victimOf, aborted[0])
	}
}

// TestServerDrain: a pooled client burst against oodbd commits, leaks no
// admission slot, and SIGTERM drains the server to a clean exit.
func TestServerDrain(t *testing.T) {
	srv, addr, base := oodbd(t, "-install", "banking", "-max-inflight", "64")
	run(t, "oodbload", "-addr", addr, "-workload", "banking", "-workers", "32", "-txns", "25")
	var m map[string]any
	get(t, base+"/metrics", &m)
	if m["engine.inflight"] != 0.0 {
		t.Errorf("engine.inflight = %v after the burst", m["engine.inflight"])
	}
	if _, ok := m["server.requests"]; !ok {
		t.Error("/metrics has no server.requests")
	}
	drain(t, srv, "")
}

// TestPartitionedServer: the same burst against four partitions leaks no
// slot on any of them.
func TestPartitionedServer(t *testing.T) {
	srv, addr, base := oodbd(t, "-partitions", "4", "-install", "banking", "-accounts", "32", "-max-inflight", "64")
	run(t, "oodbload", "-addr", addr, "-workload", "banking", "-partitions", "4", "-accounts", "32",
		"-workers", "32", "-txns", "25")
	var m map[string]any
	get(t, base+"/metrics", &m)
	for i := 0; i < 4; i++ {
		if k := fmt.Sprintf("p%d.engine.inflight", i); m[k] != 0.0 {
			t.Errorf("%s = %v after the burst", k, m[k])
		}
	}
	if m["cluster.partitions"] != 4.0 {
		t.Errorf("cluster.partitions = %v", m["cluster.partitions"])
	}
	drain(t, srv, "")
}

// TestWireTracing: a client-stamped trace id reaches the server's session
// span, Prometheus samples carry partition labels, and /healthz turns from
// ready to draining on SIGTERM.
func TestWireTracing(t *testing.T) {
	srv, addr, base := oodbd(t, "-partitions", "2", "-install", "banking", "-accounts", "32",
		"-max-inflight", "64", "-slow-query", "1ms", "-metrics-linger", "3s")
	out := run(t, "oodbload", "-addr", addr, "-workload", "banking", "-partitions", "2", "-accounts", "32",
		"-workers", "4", "-txns", "5", "-trace", "-trace-url", base)
	id := regexp.MustCompile(`(?m)^oodbload: trace=([0-9a-f]+) `).FindStringSubmatch(out)
	if id == nil {
		t.Fatal("oodbload printed no trace= line")
	}
	var traces []trace
	get(t, base+"/trace?trace="+id[1], &traces)
	found := false
	for _, tr := range traces {
		for _, s := range tr.Spans {
			found = found || tr.Remote == id[1] && s.Kind == "session"
		}
	}
	if !found {
		t.Errorf("/trace?trace=%s has no session span under that remote id: %+v", id[1], traces)
	}
	if _, prom := get(t, base+"/metrics/prom", nil); !strings.Contains(string(prom), "# TYPE") ||
		!strings.Contains(string(prom), `partition="p1"`) {
		t.Errorf("/metrics/prom lacks # TYPE or partition=\"p1\":\n%.500s", prom)
	}
	var h health
	if get(t, base+"/healthz", &h); h.Status != "ready" {
		t.Errorf("/healthz status %q before SIGTERM", h.Status)
	}
	drain(t, srv, base)
}

// TestReplicationFailover: a three-node oodbd cluster elects a leader that
// takes writes, directly and by redirect from a follower, and after its
// SIGKILL another node leads at a higher term and takes writes. Then chaos
// kills leaders and isolates one, checking every acked commit.
func TestReplicationFailover(t *testing.T) {
	const k = 3
	replAddrs, dir := freeAddrs(t, k), t.TempDir()
	nodes, addrs, bases := make([]*proc, k), make([]string, k), make([]string, k)
	for i := range nodes {
		peers := fmt.Sprintf("n%d=%s,n%d=%s", (i+1)%k, replAddrs[(i+1)%k], (i+2)%k, replAddrs[(i+2)%k])
		nodes[i], addrs[i], bases[i] = oodbd(t, "-repl-node", fmt.Sprintf("n%d", i), "-repl-addr", replAddrs[i],
			"-repl-peers", peers, "-durability", "group-commit",
			"-waldir", filepath.Join(dir, fmt.Sprintf("n%d", i)), "-install", "banking")
	}
	healthz := func(i int) (h health) {
		get(t, bases[i]+"/healthz", &h)
		return h
	}
	// leader polls for a leader other than skip, which may be dead.
	leader := func(skip int) (l int, h health) {
		eventually(t, 15*time.Second, "leader", func() bool {
			for l = range nodes {
				if l != skip {
					if h = healthz(l); h.Repl.Role == "leader" {
						return true
					}
				}
			}
			return false
		})
		return l, h
	}

	l, h := leader(-1)
	run(t, "oodbload", "-addr", addrs[l], "-workload", "banking", "-workers", "8", "-txns", "20")
	eventually(t, 15*time.Second, "follower /healthz", func() bool {
		h := healthz((l + 1) % k)
		return h.Status == "replica" && h.Repl.Role == "follower"
	})
	// Each follower names the leader by the address it printed, not the
	// -addr 127.0.0.1:0 it was given, so a burst sent to a follower reaches
	// the leader by redirect.
	for f := range nodes {
		if f != l {
			eventually(t, 15*time.Second, "follower's leader hint", func() bool {
				return healthz(f).Repl.Leader == addrs[l]
			})
		}
	}
	run(t, "oodbload", "-addr", addrs[(l+1)%k], "-workload", "banking", "-workers", "8", "-txns", "20")
	_ = nodes[l].cmd.Process.Kill()
	<-nodes[l].done
	nl, nh := leader(l)
	if nh.Repl.Term <= h.Repl.Term {
		t.Fatalf("n%d leads at term %d after n%d led at term %d", nl, nh.Repl.Term, l, h.Repl.Term)
	}
	run(t, "oodbload", "-addr", addrs[nl], "-workload", "banking", "-workers", "8", "-txns", "20")

	run(t, "chaos", "-seed", "1", "-workers", "6", "-txns", "60", "-round", "leader-kill", "-iters", "20")
	run(t, "chaos", "-seed", "1", "-workers", "6", "-txns", "60", "-round", "repl-partition")
}

// TestChaos: two seeds of the in-process fault rounds keep the no-loss,
// typed-error and no-livelock invariants.
func TestChaos(t *testing.T) {
	for _, seed := range []string{"1", "2"} {
		run(t, "chaos", "-seed", seed, "-workers", "6", "-txns", "60")
	}
}

// TestCrashCheckpoint: SIGKILL rounds with a 40ms fuzzy-checkpoint interval
// recover from the newest complete checkpoint, and SIGKILL rounds on a
// four-partition child recover every partition's WAL on its own.
func TestCrashCheckpoint(t *testing.T) {
	run(t, "chaos", "-round", "crash", "-iters", "6", "-checkpoint", "40ms")
	run(t, "chaos", "-round", "crash", "-iters", "3", "-partitions", "4")
}

// TestOpenNestedValidates: open-nested runs of the encyclopedia and
// co-editing workloads are oo-serializable under Definition 16's checker.
func TestOpenNestedValidates(t *testing.T) {
	for _, w := range []string{"encyclopedia", "coedit"} {
		out := run(t, "oodbsim", "-workload", w, "-protocol", "open-nested", "-workers", "4", "-txns", "20", "-validate")
		if !strings.Contains(out, "oo-serializable=true") {
			t.Errorf("%s is not oo-serializable:\n%s", w, out)
		}
	}
}
