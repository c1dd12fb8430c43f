package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/wire"
)

// liveRun is one live workload: its deployment, how to build its streams,
// and which extra phases and checks it needs.
type liveRun struct {
	spec *liveSpec
	// streams builds fresh per-connection generators; the traced run calls
	// it again to replay the same operations against each layer.
	streams      func() []stream
	finalQueries bool   // check quiesced query results against ground truth
	ladderPath   opKind // the blocking path the traced run's ladder follows
	reopen       bool   // close, cold-reopen over the same data, then drain
	mustMove     func(rep *report, srv *wire.Server, lgs ledgerSet)
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// userPerm spreads Zipf ranks over the population: rank k maps to user
// k·a mod n, a bijection because a is coprime to every population size
// used here.
func userPerm(k, n int) int { return int((uint64(k) * 2654435761) % uint64(n)) }

// runSubmitBurst: closed loop, 2 connections × 32 in flight, 100k users on
// 8 servers, one recipient per message, bodies ≤512 B, memory stores, term
// index off. Every 64th operation retrieves the previous recipient's mail.
func runSubmitBurst(cfg runConfig, rep *report) error {
	dep := newDeployment(100_000, 2, 4)
	corp := newCorpus(rand.New(rand.NewSource(cfg.seed)), 1024, 32, 512, 4096)
	users := len(dep.names)
	run := &liveRun{
		spec: &liveSpec{dep: dep, corp: corp},
		streams: func() []stream {
			out := make([]stream, clientConns)
			for k := range out {
				rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(k)))
				last := 0
				out[k] = stream{stop: secondsDur(cfg.seconds), next: func(i int) (op, bool) {
					if i%64 == 63 {
						return op{kind: opGetMail, user: last}, true
					}
					from, to := rng.Intn(users), rng.Intn(users)
					last = to
					return op{kind: opSubmit, from: from, to: []int{to},
						subject: rng.Intn(len(corp.subjects)), body: rng.Intn(len(corp.bodies))}, true
				}}
			}
			return out
		},
		mustMove: func(rep *report, srv *wire.Server, lgs ledgerSet) {
			rep.nonZero("accepted submits", float64(lgs.accepted()))
			rep.nonZero("wire_bytes_out", float64(srv.Cluster().Obs().Get("wire_bytes_out")))
		},
	}
	return runLive(cfg, rep, run)
}

// runReadMostly: closed loop, 2 connections × 32 in flight, 10 getmail : 1
// submit with ~1% content queries, Zipf-skewed users, 1–4 recipients, bodies
// 64 B–4 KB, term index on (maild's default).
func runReadMostly(cfg runConfig, rep *report) error {
	dep := newDeployment(100_000, 2, 4)
	corp := newCorpus(rand.New(rand.NewSource(cfg.seed)), 2048, 64, 4096, 4096)
	users := len(dep.names)
	run := &liveRun{
		spec:         &liveSpec{dep: dep, corp: corp, termIndex: true},
		finalQueries: true,
		ladderPath:   opGetMail,
		streams: func() []stream {
			out := make([]stream, clientConns)
			for k := range out {
				rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(k)))
				zipf := rand.NewZipf(rng, 1.1, 1, uint64(users-1))
				pick := func() int { return userPerm(int(zipf.Uint64()), users) }
				out[k] = stream{
					stop: secondsDur(cfg.seconds),
					next: func(i int) (op, bool) {
						switch r := rng.Intn(1000); {
						case r < 10:
							return op{kind: opQuery, query: corp.pickQuery(rng)}, true
						case r < 100:
							n := 1 + rng.Intn(4)
							from := pick()
							to := make([]int, 0, n)
							for len(to) < n {
								u := pick()
								if !slices.Contains(to, u) {
									to = append(to, u)
								}
							}
							return op{kind: opSubmit, from: from, to: to,
								subject: rng.Intn(len(corp.subjects)), body: rng.Intn(len(corp.bodies))}, true
						default:
							return op{kind: opGetMail, user: pick()}, true
						}
					},
				}
			}
			return out
		},
		mustMove: func(rep *report, srv *wire.Server, lgs ledgerSet) {
			qs, _ := lgs.queryStats()
			rep.nonZero("sketch visited servers", float64(qs.Visited))
			rep.nonZero("sketch pruned servers", float64(qs.Pruned))
			retrieved := 0
			for _, lg := range lgs {
				retrieved += len(lg.retrieved)
			}
			rep.nonZero("retrieved copies", float64(retrieved))
		},
	}
	return runLive(cfg, rep, run)
}

// durableOpsPerSecond fixes durable-restart's lifetime volume per measured
// second, so recovery and disk figures compare across commits.
const durableOpsPerSecond = 28_000

// durableInFlight is durable-restart's requests in flight per connection.
// At 32 the phase is a queue behind WAL compaction stalls, and its p50
// tracks how the stalls line up (0.95–1.34 ms over five seeds on the
// reference machine); at 4 the server stays about as busy, and latency is
// the cost of one pipelined operation.
const durableInFlight = 4

// durableShards is the per-server store shard count of durable-restart: few
// enough that each shard's WAL passes the default compaction threshold
// within the fixed volume, so snapshot and compaction run in every run.
const durableShards = 2

// runDurableRestart: closed loop, 2 connections × 4 in flight, alternating
// submit and a getmail of a random user over durable stores (fsync=never)
// for a fixed volume, then a close and cold reopen over the same data
// directory.
func runDurableRestart(cfg runConfig, rep *report) error {
	dep := newDeployment(20_000, 2, 4)
	corp := newCorpus(rand.New(rand.NewSource(cfg.seed)), 1024, 32, 512, 4096)
	users := len(dep.names)
	// The volume has a floor so that even a short run compacts.
	perConn := int(durableOpsPerSecond*max(cfg.seconds, 10)) / clientConns
	dataDir, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("data-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)
	run := &liveRun{
		spec:   &liveSpec{dep: dep, corp: corp, dataDir: dataDir, shards: durableShards, inFlight: durableInFlight},
		reopen: true,
		streams: func() []stream {
			out := make([]stream, clientConns)
			for k := range out {
				rng := rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(k)))
				out[k] = stream{next: func(i int) (op, bool) {
					if i >= perConn {
						return op{}, false
					}
					if i%2 == 1 {
						return op{kind: opGetMail, user: rng.Intn(users)}, true
					}
					return op{kind: opSubmit, from: rng.Intn(users), to: []int{rng.Intn(users)},
						subject: rng.Intn(len(corp.subjects)), body: rng.Intn(len(corp.bodies))}, true
				}}
			}
			return out
		},
		mustMove: func(rep *report, srv *wire.Server, lgs ledgerSet) {
			ws, _ := srv.Cluster().DurabilityStats()
			rep.nonZero("WAL appends", float64(ws.Appends))
			rep.nonZero("WAL compactions", float64(ws.Compactions))
			rep.setExtra("wal_appends", float64(ws.Appends), "count")
			rep.setExtra("wal_compactions", float64(ws.Compactions), "count")
		},
	}
	return runLive(cfg, rep, run)
}

// runLive is the common body of the live workloads: set up, run the
// measured phase, check every output, then (traced runs only) replay the
// operations against each layer.
func runLive(cfg runConfig, rep *report, run *liveRun) error {
	spec := run.spec
	srv, setupS, err := spec.setup()
	if err != nil {
		return err
	}
	defer func() { srv.Close() }()
	rep.setE2E("setup_s", setupS, "s")

	streams := run.streams()
	if cfg.trace {
		// Alternate one-second windows with and without client spans, so
		// the tracing overhead is measured under the same load.
		for k := range streams {
			streams[k].traced = func(at time.Duration) bool { return int(at.Seconds())%2 == 1 }
		}
	}
	snap0 := srv.Cluster().Snapshot()
	r0, w0 := procIO()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	lgs, wall, err := spec.phase(srv.Addr(), streams)
	if err != nil {
		return err
	}
	tChecks := time.Now()
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	r1, w1 := procIO()
	snap1 := srv.Cluster().Snapshot()
	ledgers := ledgerSet(lgs)
	attempted, failed, errs := ledgers.totals()
	for _, e := range errs {
		fmt.Printf("error: %s\n", e)
	}

	samples := ledgers.samples()
	// Throughput and p50 are taken over the whole phase; p99 is the median
	// of the windows' p99s, which a single stalled window cannot move.
	lats := make([]float64, len(samples))
	var perKind [numOpKinds]int
	for i := range samples {
		lats[i] = float64(samples[i].lat) / 1e6
		perKind[samples[i].kind]++
	}
	sort.Float64s(lats)
	rep.setE2E("ops_per_s", float64(len(samples))/wall.Seconds(), "1/s")
	rep.setE2E("cpu_us_per_op", cpu.Seconds()*1e6/float64(attempted), "us")
	rep.setE2E("latency_p50_ms", quantile(lats, 0.5), "ms")
	rep.setE2E("latency_p99_ms", windowedQuantile(samples, wall, 0.99), "ms")
	rep.setExtra("phase_s", wall.Seconds(), "s")
	rep.setExtra("latency_samples", float64(len(samples)), "count")
	rep.setExtra("phase_p99_ms", quantile(lats, 0.99), "ms")
	rep.setExtra("submit_msgs_per_s", float64(perKind[opSubmit])/wall.Seconds(), "1/s")
	lats = nil
	for k := opKind(0); k < numOpKinds; k++ {
		kindStats(rep, samples, k)
	}
	var tracedOverhead float64
	if cfg.trace {
		tracedOverhead = overhead(samples)
		var spans []span
		for _, lg := range ledgers {
			spans = append(spans, lg.spans...)
		}
		if err := saveSpans(rep.workload, cfg.seed, spans); err != nil {
			return err
		}
	}
	ops := float64(attempted)
	var sketchStats *wire.QueryStats
	if qs, n := ledgers.queryStats(); n > 0 {
		sketchStats = &qs
	}

	// Correctness: quiesced queries, then drain everything still owed.
	run.mustMove(rep, srv, ledgers)
	owed := ledgers.outstanding()
	if run.finalQueries {
		if err := checkQueries(rep, spec, srv.Addr(), ledgers, owed, cfg.seed); err != nil {
			return err
		}
	}
	if run.reopen {
		acceptedMsgs := ledgers.accepted()
		srv.Close()
		disk := dirBytes(spec.dataDir)
		rep.setExtra("disk_bytes_per_msg", float64(disk)/float64(max(acceptedMsgs, 1)), "B")
		t0 := time.Now()
		srv, err = spec.start()
		if err != nil {
			return fmt.Errorf("cold reopen: %w", err)
		}
		rep.setExtra("recovery_s", time.Since(t0).Seconds(), "s")
		if err := spec.register(srv.Addr()); err != nil {
			return err
		}
	}
	tDrain := time.Now()
	drained, err := spec.drain(srv.Addr(), owed)
	if err != nil {
		return err
	}
	fmt.Printf("final drain: %d getmails in %.2fs\n", drained.getmails(), time.Since(tDrain).Seconds())
	settle(owed, drained)
	checkExactlyOnce(rep, "every accepted copy retrieved once", owed)
	da, df, derrs := drained.totals()
	attempted += da
	failed += df
	for _, e := range derrs {
		fmt.Printf("error: %s\n", e)
	}
	rep.attempted, rep.failed = attempted, failed
	rep.setE2E("polls_per_getmail", append(ledgers, drained...).pollsPerGetMail(), "count")
	acceptedMsgs := ledgers.accepted()
	cl := srv.Cluster()
	tracesRetained := cl.Tracer().Len()
	failovers := cl.Obs().Get("deposit_failovers")
	spooled := cl.Obs().Get("submit_spooled")
	rep.check("fault-free: no failovers or spooling", failovers == 0 && spooled == 0,
		"%d failovers, %d spooled", failovers, spooled)

	var replayOps []op
	if cfg.trace {
		replayOps = firstOps(run.streams(), replayLen)
	}
	// Drop the client-side bookkeeping so the heap figure is the server's.
	ledgers, drained, samples, owed, lgs, streams = nil, nil, nil, nil, nil, nil
	rep.setE2E("heap_bytes_per_msg", retainedHeap()/float64(max(acceptedMsgs, 1)), "B")
	fmt.Printf("checks after the phase took %.2fs\n", time.Since(tChecks).Seconds())

	if !cfg.trace {
		return nil
	}
	rep.setLayer("wire.syscr_per_op", float64(r1-r0)/ops, "count")
	rep.setLayer("wire.syscw_per_op", float64(w1-w0)/ops, "count")
	rep.setLayer("wire.bytes_out_per_op", float64(snap1.Counters["wire_bytes_out"]-snap0.Counters["wire_bytes_out"])/ops, "B")
	rep.setLayer("wire.decode_p50_us", histDelta(snap0, snap1, "lat_wire_decode").Quantile(0.5)/1e3, "us")
	rep.setLayer("proc.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/ops, "count")
	rep.setLayer("obs.traces_retained", float64(tracesRetained), "count")
	rep.setLayer("livenet.failovers", float64(failovers), "count")
	rep.setLayer("livenet.spooled", float64(spooled), "count")
	rep.setLayer("trace.overhead_frac", tracedOverhead, "ratio")
	return replayLayers(rep, replayInput{
		dep: spec.dep, corp: spec.corp, ops: replayOps,
		termIndex: spec.termIndex, durable: spec.dataDir != "",
		e2eNsPerOp: wall.Seconds() * 1e9 / float64(max(perKind[run.ladderPath], 1)), ladderPath: run.ladderPath,
		sketch: sketchStats, seed: cfg.seed,
	})
}

// overhead compares the traced windows' median latency with the untraced
// windows'.
func overhead(samples []sample) float64 {
	var on, off []float64
	for _, s := range samples {
		if s.traced {
			on = append(on, float64(s.lat))
		} else {
			off = append(off, float64(s.lat))
		}
	}
	sort.Float64s(on)
	sort.Float64s(off)
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return quantile(on, 0.5)/quantile(off, 0.5) - 1
}

// queryStats sums the fan-out of every query the ledgers saw answered, and
// counts those queries.
func (ls ledgerSet) queryStats() (wire.QueryStats, int) {
	var qs wire.QueryStats
	n := 0
	for _, lg := range ls {
		n += lg.queries
		qs.Servers += lg.query.Servers
		qs.Visited += lg.query.Visited
		qs.Pruned += lg.query.Pruned
		qs.SketchFP += lg.query.SketchFP
	}
	return qs, n
}

// histDelta is the distribution of observations made between two snapshots.
func histDelta(a, b obs.Snapshot, name string) obs.HistogramSnapshot {
	h1 := b.Histograms[name]
	h0, ok := a.Histograms[name]
	if !ok || len(h0.Counts) != len(h1.Counts) {
		return h1
	}
	d := h1
	d.Counts = make([]uint64, len(h1.Counts))
	d.Count = h1.Count - h0.Count
	for i := range d.Counts {
		d.Counts[i] = h1.Counts[i] - h0.Counts[i]
	}
	return d
}

// checkQueries runs content queries over the quiesced system and compares
// every match set with the ground truth the generator tracked: the users
// still owed a message whose terms include every query term.
func checkQueries(rep *report, spec *liveSpec, addr string, ls ledgerSet, owed map[copyKey]int, seed int64) error {
	byID := make(map[string]*accepted)
	for _, lg := range ls {
		for i := range lg.accepted {
			byID[lg.accepted[i].id] = &lg.accepted[i]
		}
	}
	held := make(map[int]map[string]bool) // user → terms of mail still held
	var heldTerms []string
	for k, n := range owed {
		if n <= 0 {
			continue
		}
		a := byID[k.id]
		if a == nil {
			continue
		}
		ts := held[k.user]
		if ts == nil {
			ts = make(map[string]bool)
			held[k.user] = ts
		}
		for _, t := range spec.corp.terms(&op{subject: a.subject, body: a.body}) {
			ts[t] = true
			if len(heldTerms) < 4096 {
				heldTerms = append(heldTerms, t)
			}
		}
	}
	sort.Strings(heldTerms)
	rng := rand.New(rand.NewSource(seed))
	var queries [][]string
	for i := 0; i < 48; i++ {
		queries = append(queries, spec.corp.pickQuery(rng))
	}
	for i := 0; i < 16 && len(heldTerms) > 0; i++ {
		queries = append(queries, []string{heldTerms[rng.Intn(len(heldTerms))]})
	}
	c, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	bad, nonEmpty := 0, 0
	var example string
	for _, q := range queries {
		var want []string
		for u, ts := range held {
			all := true
			for _, t := range q {
				all = all && ts[t]
			}
			if all {
				want = append(want, spec.dep.names[u])
			}
		}
		sort.Strings(want)
		res, err := c.Query(queryText(q))
		if err != nil {
			return fmt.Errorf("final query %q: %w", queryText(q), err)
		}
		if len(want) > 0 {
			nonEmpty++
		}
		if strings.Join(res.Matches, ",") != strings.Join(want, ",") {
			bad++
			if example == "" {
				example = fmt.Sprintf(" (e.g. %q: got %d matches, want %d)", queryText(q), len(res.Matches), len(want))
			}
		}
	}
	rep.check("quiesced queries match ground truth", bad == 0 && nonEmpty > 0,
		"%d queries, %d with matches, %d mismatched%s", len(queries), nonEmpty, bad, example)
	return nil
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
