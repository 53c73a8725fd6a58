// Command oodbload drives an oodbd server over the wire protocol from
// many concurrent client connections: the network-facing counterpart of
// oodbsim's in-process workloads, used by the e2e server tests and for
// hand-driven load experiments such as partition scale-out.
//
// Usage examples:
//
//	oodbload -addr 127.0.0.1:7437 -workload banking -workers 64 -txns 100
//	oodbload -addr 127.0.0.1:7437 -workload encyclopedia -keys 500 -ops 4
//	oodbload -addr 127.0.0.1:7437 -workload ping -workers 8
//
// The server must have the matching schema installed (oodbd -install).
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/partition"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7437", "oodbd server address")
		wl       = flag.String("workload", "banking", "workload: banking | encyclopedia | ping")
		workers  = flag.Int("workers", 16, "concurrent client workers (each runs on its own pooled connection)")
		txns     = flag.Int("txns", 100, "transactions per worker")
		accounts = flag.Int("accounts", 16, "account space (banking; must match the server's -accounts)")
		keys     = flag.Int("keys", 500, "key space (encyclopedia)")
		ops      = flag.Int("ops", 4, "operations per transaction (encyclopedia)")
		seed     = flag.Int64("seed", 1, "random seed")
		retryOv  = flag.Bool("retry-overload", false, "retry typed overload refusals instead of failing")
		stats    = flag.Bool("stats", false, "print the server's STATS snapshot and the client-side pool/retry counters after the run")
		parts    = flag.Int("partitions", 1, "server partition count: keep each transaction on one partition (must match oodbd -partitions)")
		trace    = flag.Bool("trace", false, "stamp every transaction with a distributed trace id and print one trace line per logical transaction")
		traceURL = flag.String("trace-url", "", "oodbd metrics base URL (http://host:port): fetch server-side blame chains for retried/failed traces after the run (implies -trace)")
	)
	flag.Parse()

	// With a partitioned server every transaction must stay on the
	// partition of its first-touched object; the driver mirrors the
	// server's router (same pure hash) to build co-located access sets.
	n := *parts
	if n < 1 {
		n = 1
	}
	acctsByPart := make([][]int, n)
	for i := 0; i < *accounts; i++ {
		p := partition.RouteName("Acct"+strconv.Itoa(i), n)
		acctsByPart[p] = append(acctsByPart[p], i)
	}
	// Transfer pools: partitions holding at least two accounts.
	var pools [][]int
	for _, pool := range acctsByPart {
		if len(pool) >= 2 {
			pools = append(pools, pool)
		}
	}
	if *wl == "banking" && len(pools) == 0 {
		fmt.Fprintf(os.Stderr, "oodbload: no partition holds 2 of the %d accounts; raise -accounts\n", *accounts)
		os.Exit(2)
	}
	encNames := make([]string, n)
	for p := range encNames {
		encNames[p] = partition.NameFor("Enc", p, n)
	}

	tracing := *trace || *traceURL != ""
	clientReg := obs.New()
	cl, err := client.Dial(*addr, client.Options{
		PoolSize: *workers,
		Trace:    tracing,
		Obs:      clientReg,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "oodbload: %v\n", err)
		os.Exit(1)
	}
	defer cl.Close()

	var retries, failures atomic.Int64
	policy := client.RetryPolicy{
		MaxAttempts:   100,
		RetryOverload: *retryOv,
		OnRetry:       func(int, error) { retries.Add(1) },
	}
	latMu := sync.Mutex{}
	lats := make([]time.Duration, 0, *workers**txns)
	// Retried or failed trace ids, kept for the -trace-url blame fetch.
	var interestingMu sync.Mutex
	var interesting []string

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(*seed + int64(w)*6151))
			local := make([]time.Duration, 0, *txns)
			for i := 0; i < *txns; i++ {
				t0 := time.Now()
				var err error
				// Per-iteration retry policy: with tracing on, the attempt
				// count and the logical transaction's trace id are captured
				// for the trace line (and the -trace-url blame fetch).
				p := policy
				var traceID string
				var extraAttempts int
				if tracing {
					p.OnRetry = func(a int, e error) {
						retries.Add(1)
						extraAttempts = a
					}
				}
				run := func(body func(tx *client.Tx) error) error {
					return cl.RunWithRetry(p, func(tx *client.Tx) error {
						traceID = tx.TraceID()
						return body(tx)
					})
				}
				switch *wl {
				case "banking":
					// Pick both accounts from one partition's pool so the
					// transfer never strays off its pinned partition.
					pool := pools[rr.Intn(len(pools))]
					from := pool[rr.Intn(len(pool))]
					to := pool[rr.Intn(len(pool))]
					for to == from {
						to = pool[rr.Intn(len(pool))]
					}
					amt := strconv.Itoa(1 + rr.Intn(100))
					err = run(func(tx *client.Tx) error {
						if _, err := tx.Invoke("account", "Acct"+strconv.Itoa(from), "debit", amt); err != nil {
							return err
						}
						_, err := tx.Invoke("account", "Acct"+strconv.Itoa(to), "credit", amt)
						return err
					})
				case "encyclopedia":
					// One encyclopedia object per partition ("Enc" when
					// unpartitioned); the whole transaction stays on one.
					enc := encNames[rr.Intn(n)]
					err = run(func(tx *client.Tx) error {
						for j := 0; j < *ops; j++ {
							k := fmt.Sprintf("k%06d", rr.Intn(*keys))
							var ierr error
							if rr.Intn(100) < 30 {
								_, ierr = tx.Invoke("encyclopedia", enc, "insert", k, fmt.Sprintf("text%d-%d", i, j))
							} else {
								_, ierr = tx.Invoke("encyclopedia", enc, "search", k)
							}
							if ierr != nil {
								return ierr
							}
						}
						return nil
					})
				case "ping":
					err = cl.Ping()
				default:
					fmt.Fprintf(os.Stderr, "oodbload: unknown workload %q\n", *wl)
					os.Exit(2)
				}
				if tracing && traceID != "" {
					status := "ok"
					if err != nil {
						status = "err"
					}
					fmt.Printf("oodbload: trace=%s worker=%d txn=%d attempts=%d status=%s\n",
						traceID, w, i, extraAttempts+1, status)
					if err != nil || extraAttempts > 0 {
						interestingMu.Lock()
						if len(interesting) < 8 {
							interesting = append(interesting, traceID)
						}
						interestingMu.Unlock()
					}
				}
				if err != nil {
					failures.Add(1)
					fmt.Fprintf(os.Stderr, "oodbload: worker %d txn %d: %v\n", w, i, err)
					return
				}
				local = append(local, time.Since(t0))
			}
			latMu.Lock()
			lats = append(lats, local...)
			latMu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	done := len(lats)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) time.Duration {
		if done == 0 {
			return 0
		}
		i := int(p * float64(done-1))
		return lats[i]
	}
	fmt.Printf("oodbload: %s: %d/%d txns in %v  (%.0f txn/s, p50 %v, p99 %v, retries %d)\n",
		*wl, done, *workers**txns, elapsed.Round(time.Millisecond),
		float64(done)/elapsed.Seconds(), pct(0.50), pct(0.99), retries.Load())

	if *stats {
		s, err := cl.Stats()
		if err != nil {
			fmt.Fprintf(os.Stderr, "oodbload: stats: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(s)
		fmt.Println("oodbload: client-side counters:")
		if err := clientReg.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "oodbload: client stats: %v\n", err)
		}
		fmt.Println()
	}
	if *traceURL != "" {
		fetchBlame(*traceURL, interesting)
	}
	if failures.Load() > 0 {
		os.Exit(1)
	}
}

// fetchBlame pulls the server-side blame chains for the retried/failed
// trace ids from oodbd's metrics endpoint: the cross-process half of the
// trace — client attempt, session span, lock waits, causal abort edges —
// rendered by /trace?trace=<id>&format=text.
func fetchBlame(base string, ids []string) {
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "oodbload: no retried or failed traces to fetch")
		return
	}
	base = strings.TrimRight(base, "/")
	hc := &http.Client{Timeout: 5 * time.Second}
	for _, id := range ids {
		u := base + "/trace?trace=" + url.QueryEscape(id) + "&format=text"
		res, err := hc.Get(u)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oodbload: blame fetch %s: %v\n", id, err)
			continue
		}
		body, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "oodbload: blame fetch %s: %s: %s\n", id, res.Status, strings.TrimSpace(string(body)))
			continue
		}
		fmt.Printf("oodbload: server-side blame for trace %s:\n%s", id, body)
	}
}
