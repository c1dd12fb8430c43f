package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/loadgen"
	"github.com/largemail/largemail/internal/mail"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/names"
	"github.com/largemail/largemail/internal/obs"
	"github.com/largemail/largemail/internal/server"
	"github.com/largemail/largemail/internal/sim"
	"github.com/largemail/largemail/internal/wire"
)

// replayLen is how many of the workload's generated operations the traced
// run replays against each layer.
const replayLen = 20_000

// Binary-frame op bytes of the v3 wire protocol (see internal/wire's
// binframe.go): hot verbs have native layouts, the rest ride a JSON wrapper.
const (
	binOpJSON    = 0
	binOpSubmit  = 1
	binOpGetMail = 3
)

// firstOps takes the first n operations of the streams, interleaved the way
// the connections issue them.
func firstOps(streams []stream, n int) []op {
	var out []op
	idx := make([]int, len(streams))
	live := len(streams)
	done := make([]bool, len(streams))
	for len(out) < n && live > 0 {
		for k := range streams {
			if done[k] || len(out) >= n {
				continue
			}
			o, ok := streams[k].next(idx[k])
			idx[k]++
			if !ok {
				done[k] = true
				live--
				continue
			}
			out = append(out, o)
		}
	}
	return out
}

// withProbes returns ops unchanged when they contain queries; otherwise it
// inserts one content query per 50 operations, so the search layers are
// measured on every workload's own mail. Probes alternate between a term of
// the latest submitted message (present) and a drawn query (often absent).
func withProbes(ops []op, corp *corpus, seed int64) []op {
	for _, o := range ops {
		if o.kind == opQuery {
			return ops
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]op, 0, len(ops)+len(ops)/50)
	var recent []string
	for i, o := range ops {
		out = append(out, o)
		if o.kind == opSubmit {
			recent = corp.terms(&o)
		}
		if i%50 != 49 {
			continue
		}
		q := corp.pickQuery(rng)
		if i%100 == 49 && len(recent) > 0 {
			q = []string{recent[rng.Intn(len(recent))]}
		}
		out = append(out, op{kind: opQuery, query: q, probe: true})
	}
	return out
}

// replayInput is what the layer replay needs from the workload.
type replayInput struct {
	dep        *deployment
	corp       *corpus
	ops        []op
	termIndex  bool
	durable    bool
	e2eNsPerOp float64          // the phase's wall time per operation of ladderPath's kind
	ladderPath opKind           // opSubmit or opGetMail: which blocking path the ladder follows
	sketch     *wire.QueryStats // end-to-end query fan-out, nil when the workload sent no queries
	loadgen    *loadgenStats    // nil: run a small seeded sim at the workload's scale
	seed       int64
}

type loadgenStats struct {
	runS                float64
	retrievals, polls   int
	callNs, stepNsPerOp float64 // sim-syntax ladder: driver-call vs event-loop time per operation
}

// timer accumulates the wall time of individually timed calls.
type timer struct {
	total time.Duration
	n     int
}

func (t *timer) since(start time.Time) { t.total += time.Since(start); t.n++ }

func (t *timer) ns() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.total) / float64(t.n)
}

// replayLayers replays the operations against each layer's public
// functions, one layer at a time, and records the per-layer metrics and the
// layer ladder. Every span is timed from here, around the call; nothing
// inside the program is instrumented.
func replayLayers(rep *report, in replayInput) error {
	ops := withProbes(in.ops, in.corp, in.seed)
	nameCache := make(map[int]names.Name)
	name := func(u int) names.Name {
		n, ok := nameCache[u]
		if !ok {
			n = in.dep.pop.Name(u)
			nameCache[u] = n
		}
		return n
	}
	var msgs []mail.Message // one per submit, in op order
	copies := 0
	for _, o := range ops {
		if o.kind != opSubmit {
			continue
		}
		to := make([]names.Name, len(o.to))
		for i, u := range o.to {
			to[i] = name(u)
		}
		copies += len(o.to)
		msgs = append(msgs, mail.Message{
			ID:   mail.MessageID{Node: 1, Seq: uint64(len(msgs) + 1)},
			From: name(o.from), To: to,
			Subject: in.corp.subjects[o.subject], Body: in.corp.bodies[o.body],
		})
	}
	submits := len(msgs)
	tmp, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("replay-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	st, err := replayStore(rep, in, ops, msgs, name, filepath.Join(tmp, "store"))
	if err != nil {
		return err
	}
	lv, err := replayLivenet(rep, in, ops, msgs, name, tmp)
	if err != nil {
		return err
	}
	replayWire(rep, in, ops, lv.responses)
	replayHandoff(rep, ops)
	replayTracer(rep, ops, msgs)
	lg := in.loadgen
	if lg == nil {
		if lg, err = smallSim(in.dep, in.seed); err != nil {
			return err
		}
	}
	rep.setLayer("loadgen.run_s", lg.runS, "s")
	rep.setLayer("loadgen.retrievals", float64(lg.retrievals), "count")
	rep.setLayer("loadgen.polls", float64(lg.polls), "count")

	// The ladder: each layer's self time along the blocking path, as a share
	// of the phase's wall time per operation of the path's kind (which also
	// carries the other operations the closed loop interleaves).
	var rungs []rung
	switch {
	case in.loadgen != nil:
		rungs = []rung{
			{"sim driver calls (Submit/Retrieve)", lg.callNs},
			{"engine + netsim event loop", lg.callNs + lg.stepNsPerOp},
		}
	case in.ladderPath == opGetMail:
		// The primary's poll carries the mail; the agent rung includes any
		// further (empty) polls of the authority list.
		rungs = []rung{
			{"mailstore drain", st.drainNs},
			{"livenet server checkmail", lv.checkmail.ns()},
			{"livenet agent getmail", lv.getmail.ns()},
			{"wire and the rest (wall per getmail)", in.e2eNsPerOp},
		}
	default:
		per := float64(copies) / float64(max(submits, 1))
		rungs = []rung{
			{"mailstore deposit", st.depositNs * per},
			{"livenet server deposit", lv.deposit.ns() * per},
			{"livenet cluster submit", lv.submit.ns()},
			{"wire and the rest (wall per submit)", in.e2eNsPerOp},
		}
	}
	printLadder(rep, rungs)
	return nil
}

// rung is one layer's inclusive time per operation along the blocking path.
type rung struct {
	name string
	ns   float64
}

func printLadder(rep *report, rungs []rung) {
	top := rungs[len(rungs)-1].ns
	fmt.Println("-- ladder (self time per op along the blocking path, share of end-to-end)")
	prev := 0.0
	ok := true
	for _, r := range rungs {
		self := r.ns - prev
		ok = ok && self >= 0
		fmt.Printf("  %-36s self %10.2f us  %5.1f%%  (inclusive %.2f us)\n",
			r.name, self/1e3, 100*self/top, r.ns/1e3)
		prev = r.ns
	}
	rep.check("ladder self times >= 0", ok, "%d rungs", len(rungs))
}

type storeTimes struct{ depositNs, drainNs float64 }

// replayStore replays deposits, drains and searches against three mailbox
// stores: plain, term-indexed, and durable (fsync=never), then reopens the
// durable one cold. The durable store has one shard and a 256 KiB
// compaction threshold, so the replay's few megabytes of WAL compact.
func replayStore(rep *report, in replayInput, ops []op, msgs []mail.Message, name func(int) names.Name, dir string) (storeTimes, error) {
	plain := mailstore.New(0)
	indexed := mailstore.New(0)
	indexed.EnableTermIndex()
	opts := mailstore.Options{Dir: dir, Shards: 1, Fsync: mailstore.FsyncNever, CompactBytes: 256 << 10}
	durable, err := mailstore.OpenOptions(opts)
	if err != nil {
		return storeTimes{}, err
	}
	var dep, depIdx, depDur, drain, drainIdx, drainDur, search timer
	next := 0
	for _, o := range ops {
		switch o.kind {
		case opSubmit:
			m := msgs[next]
			next++
			for _, r := range m.To {
				t := time.Now()
				plain.Deposit(r, m, 0)
				dep.since(t)
				t = time.Now()
				indexed.Deposit(r, m, 0)
				depIdx.since(t)
				t = time.Now()
				durable.Deposit(r, m, 0)
				depDur.since(t)
			}
		case opGetMail:
			u := name(o.user)
			t := time.Now()
			plain.Drain(u)
			drain.since(t)
			t = time.Now()
			indexed.Drain(u)
			drainIdx.since(t)
			t = time.Now()
			durable.Drain(u)
			drainDur.since(t)
		case opQuery:
			t := time.Now()
			indexed.SearchTerms(o.query)
			search.since(t)
		}
	}
	ws, _ := durable.WALStats()
	if err := durable.Close(); err != nil {
		return storeTimes{}, err
	}
	t := time.Now()
	reopened, err := mailstore.OpenOptions(opts)
	if err != nil {
		return storeTimes{}, fmt.Errorf("reopen replay store: %w", err)
	}
	openS := time.Since(t).Seconds()
	rs, _ := reopened.RecoveryStats()
	_ = reopened.Close()

	rep.setLayer("mailstore.deposit_ns", dep.ns(), "ns")
	rep.setLayer("mailstore.deposit_indexed_ns", depIdx.ns(), "ns")
	rep.setExtra("mailstore.deposit_durable_ns", depDur.ns(), "ns")
	rep.setLayer("mailstore.search_ns", search.ns(), "ns")
	rep.setLayer("mailstore.wal_append_ns", float64(ws.AppendNs)/float64(max(ws.Appends, 1)), "ns")
	rep.setLayer("mailstore.wal_bytes_per_msg", float64(ws.Bytes)/float64(max(dep.n, 1)), "B")
	rep.setLayer("mailstore.wal_compactions", float64(ws.Compactions), "count")
	rep.setLayer("mailstore.open_s", openS, "s")
	rep.setLayer("mailstore.replayed_records", float64(rs.Records), "count")
	rep.nonZero("replayed WAL appends", float64(ws.Appends))
	rep.nonZero("replayed WAL compactions", float64(ws.Compactions))
	rep.nonZero("replayed WAL records", float64(rs.Records))

	// The workload's own store configuration sets drain_ns and the ladder's
	// store rung.
	out := storeTimes{depositNs: dep.ns(), drainNs: drain.ns()}
	switch {
	case in.durable:
		out = storeTimes{depositNs: depDur.ns(), drainNs: drainDur.ns()}
	case in.termIndex:
		out = storeTimes{depositNs: depIdx.ns(), drainNs: drainIdx.ns()}
	}
	rep.setLayer("mailstore.drain_ns", out.drainNs, "ns")
	return out, nil
}

type livenetTimes struct {
	submit, getmail, deposit, checkmail timer
	responses                           []wire.Response // per op, what the wire would carry back
}

// newCluster builds a replay cluster shaped like the workload's server.
func newCluster(in replayInput, ops []op, termIndex bool, dataDir string) (*livenet.Cluster, error) {
	c := livenet.NewClusterWith(livenet.ClusterConfig{DataDir: dataDir, Fsync: mailstore.FsyncNever, TermIndex: termIndex})
	for _, s := range in.dep.servers() {
		if _, err := c.AddServer(s); err != nil {
			c.Close()
			return nil, err
		}
	}
	if err := c.EnableSpool(livenet.SpoolConfig{}); err != nil {
		c.Close()
		return nil, err
	}
	seen := make(map[int]bool)
	reg := func(u int) {
		if !seen[u] {
			seen[u] = true
			c.Directory().SetAuthority(in.dep.pop.Name(u), in.dep.authority(u))
		}
	}
	for _, o := range ops {
		switch o.kind {
		case opSubmit:
			reg(o.from)
			for _, u := range o.to {
				reg(u)
			}
		case opGetMail:
			reg(o.user)
		}
	}
	return c, nil
}

// replayLivenet replays the operations three ways: through the cluster
// (Submit and agent GetMail), directly against each user's primary server
// (Deposit and CheckMail), and as sketch-probed searches on an indexed
// cluster.
func replayLivenet(rep *report, in replayInput, ops []op, msgs []mail.Message, name func(int) names.Name, tmp string) (*livenetTimes, error) {
	dirA, dirB := "", ""
	if in.durable {
		dirA, dirB = filepath.Join(tmp, "a"), filepath.Join(tmp, "b")
	}
	a, err := newCluster(in, ops, in.termIndex, dirA)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	b, err := newCluster(in, ops, in.termIndex, dirB)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	s, err := newCluster(in, ops, true, "")
	if err != nil {
		return nil, err
	}
	defer s.Close()
	primary := func(c *livenet.Cluster, u int) *livenet.Server {
		srv, _ := c.Server(in.dep.authority(u)[0])
		return srv
	}

	lv := &livenetTimes{responses: make([]wire.Response, len(ops))}
	agents := make(map[int]*livenet.Agent)
	var maycontain, search timer
	var qs wire.QueryStats
	next := 0
	for i, o := range ops {
		switch o.kind {
		case opSubmit:
			m := msgs[next]
			next++
			t := time.Now()
			id, err := a.Submit(m.From, m.To, m.Subject, m.Body)
			lv.submit.since(t)
			if err != nil {
				return nil, fmt.Errorf("replay submit: %w", err)
			}
			lv.responses[i] = wire.Response{OK: true, ID: id.String()}
			for j, u := range o.to {
				srv := primary(b, u)
				t := time.Now()
				err := srv.Deposit(m, m.To[j])
				lv.deposit.since(t)
				if err != nil {
					return nil, fmt.Errorf("replay deposit: %w", err)
				}
				if err := primary(s, u).Deposit(m, m.To[j]); err != nil {
					return nil, err
				}
			}
		case opGetMail:
			ag := agents[o.user]
			if ag == nil {
				if ag, err = a.NewAgent(name(o.user)); err != nil {
					return nil, err
				}
				agents[o.user] = ag
			}
			t := time.Now()
			got := ag.GetMail()
			lv.getmail.since(t)
			wm := make([]wire.Message, len(got))
			for j, m := range got {
				wm[j] = wire.Message{ID: m.ID.String(), From: m.From.String(), Subject: m.Subject, Body: m.Body}
			}
			lv.responses[i] = wire.Response{OK: true, Messages: wm, Polls: ag.Polls(),
				LastChecking: ag.LastCheckingTime().UnixNano()}
			u := name(o.user)
			t = time.Now()
			_, err := primary(b, o.user).CheckMail(u)
			lv.checkmail.since(t)
			if err != nil {
				return nil, err
			}
			if _, err := primary(s, o.user).CheckMail(u); err != nil {
				return nil, err
			}
		case opQuery:
			matches := make(map[string]bool)
			for _, sn := range in.dep.servers() {
				srv, _ := s.Server(sn)
				f, _, err := srv.Sketch()
				if err != nil {
					return nil, err
				}
				qs.Servers++
				pruned := false
				for _, term := range o.query {
					t := time.Now()
					may := f.MayContain(term)
					maycontain.since(t)
					if !may {
						pruned = true
						break
					}
				}
				if pruned {
					qs.Pruned++
					continue
				}
				t := time.Now()
				users, err := srv.Search(o.query)
				search.since(t)
				if err != nil {
					return nil, err
				}
				qs.Visited++
				if len(users) == 0 {
					qs.SketchFP++
				}
				for _, u := range users {
					matches[u.String()] = true
				}
			}
			ms := make([]string, 0, len(matches))
			for m := range matches {
				ms = append(ms, m)
			}
			sort.Strings(ms)
			lv.responses[i] = wire.Response{OK: true, Matches: ms, QueryStats: &wire.QueryStats{Servers: len(in.dep.servers())}}
		}
	}
	rep.setLayer("livenet.submit_ns", lv.submit.ns(), "ns")
	rep.setLayer("livenet.deposit_ns", lv.deposit.ns(), "ns")
	rep.setLayer("livenet.getmail_ns", lv.getmail.ns(), "ns")
	rep.setLayer("livenet.checkmail_ns", lv.checkmail.ns(), "ns")
	rep.setLayer("livenet.search_ns", search.ns(), "ns")
	rep.setLayer("sketch.maycontain_ns", maycontain.ns(), "ns")
	if in.sketch != nil {
		qs = *in.sketch // the workload sent queries: report its own fan-out
	}
	rep.setLayer("sketch.pruned_frac", float64(qs.Pruned)/float64(max(qs.Servers, 1)), "ratio")
	rep.setLayer("sketch.fp_frac", float64(qs.SketchFP)/float64(max(qs.Visited, 1)), "ratio")
	rep.nonZero("replayed sketch probes", float64(maycontain.n))
	rep.nonZero("replayed searches", float64(search.n))
	if _, isLive := rep.layer["livenet.failovers"]; !isLive {
		rep.setLayer("livenet.failovers", float64(a.Obs().Get("deposit_failovers")), "count")
		rep.setLayer("livenet.spooled", float64(a.Obs().Get("submit_spooled")), "count")
	}
	return lv, nil
}

// buildRequest is the wire request a live client sends for o.
func buildRequest(dep *deployment, corp *corpus, o *op) wire.Request {
	switch o.kind {
	case opSubmit:
		to := make([]string, len(o.to))
		for i, u := range o.to {
			to[i] = dep.name(u)
		}
		return wire.Request{Op: "submit", From: dep.name(o.from), To: to,
			Subject: corp.subjects[o.subject], Body: corp.bodies[o.body]}
	case opGetMail:
		return wire.Request{Op: "getmail", User: dep.name(o.user)}
	default:
		return wire.Request{Op: "query", Query: queryText(o.query)}
	}
}

// replayWire encodes and decodes every request the workload sent and its
// replayed response with the binary codec. ns/op figures are the median of
// three passes.
func replayWire(rep *report, in replayInput, ops []op, replies []wire.Response) {
	var requests []wire.Request
	var resps []wire.Response // replies, aligned with requests
	var codes []byte
	for i := range ops {
		if ops[i].probe {
			continue
		}
		requests = append(requests, buildRequest(in.dep, in.corp, &ops[i]))
		resps = append(resps, replies[i])
		switch ops[i].kind {
		case opSubmit:
			codes = append(codes, binOpSubmit)
		case opGetMail:
			codes = append(codes, binOpGetMail)
		default:
			codes = append(codes, binOpJSON)
		}
	}
	n := len(requests)
	reqFrames := make([][]byte, n)
	respFrames := make([][]byte, n)
	var enc, dec []float64
	frameBytes := 0
	for pass := 0; pass < 3; pass++ {
		var buf []byte
		t := time.Now()
		for i := range requests {
			buf, _ = wire.AppendBinaryRequest(buf[:0], requests[i], uint32(i+1))
			if pass == 0 {
				reqFrames[i] = append([]byte(nil), buf...)
			}
			buf, _ = wire.AppendBinaryResponse(buf[:0], codes[i], uint32(i+1), resps[i])
			if pass == 0 {
				respFrames[i] = append([]byte(nil), buf...)
				frameBytes += len(reqFrames[i]) + len(respFrames[i])
			}
		}
		enc = append(enc, float64(time.Since(t))/float64(n))
	}
	payload := func(f []byte) []byte { return f[4 : len(f)-4] } // length header | payload | CRC
	for pass := 0; pass < 3; pass++ {
		t := time.Now()
		for i := range reqFrames {
			_, _, _ = wire.DecodeBinaryRequest(payload(reqFrames[i]))
			_, _, _ = wire.DecodeBinaryResponse(payload(respFrames[i]))
		}
		dec = append(dec, float64(time.Since(t))/float64(n))
	}
	perCall := make([]float64, n)
	bad := 0
	for i := range reqFrames {
		t := time.Now()
		_, _, err := wire.DecodeBinaryRequest(payload(reqFrames[i]))
		perCall[i] = float64(time.Since(t))
		if err != nil {
			bad++
		}
	}
	sort.Float64s(perCall)
	rep.check("replayed frames decode", bad == 0, "%d of %d request frames failed to decode", bad, n)
	rep.setLayer("wire.encode_ns_per_op", median(enc), "ns")
	rep.setLayer("wire.decode_ns_per_op", median(dec), "ns")
	rep.setLayer("wire.frame_bytes_per_op", float64(frameBytes)/float64(n), "B")
	if _, isLive := rep.layer["wire.decode_p50_us"]; !isLive {
		rep.setLayer("wire.decode_p50_us", quantile(perCall, 0.5)/1e3, "us")
	}
}

// replayHandoff times the worker pool's hand-off: from WorkQueue.Enqueue
// until the item starts running on an idle worker, one item at a time.
func replayHandoff(rep *report, ops []op) {
	pool := server.NewWorkPool(0)
	defer pool.Close()
	q := pool.NewQueue(0)
	defer q.Close()
	started := make(chan time.Duration)
	var handoff timer
	for range ops[:min(len(ops), 5000)] {
		t := time.Now()
		q.Enqueue(func() { started <- time.Since(t) })
		handoff.total += <-started
		handoff.n++
	}
	rep.setLayer("server.handoff_ns", handoff.ns(), "ns")
}

// replayTracer stamps every replayed message through the stages a submit
// records (submit, then resolve and deposit per recipient copy).
func replayTracer(rep *report, ops []op, msgs []mail.Message) {
	tr := obs.NewTracer(obs.WallClock, obs.NewRegistry())
	var stamp timer
	for _, m := range msgs {
		id := strconv.FormatUint(m.ID.Seq, 10)
		t := time.Now()
		tr.Stamp(id, obs.StageSubmit, "cluster")
		stamp.since(t)
		for range m.To {
			t := time.Now()
			tr.Stamp(id, obs.StageResolve, "directory")
			tr.Stamp(id, obs.StageDeposit, "S0")
			stamp.total += time.Since(t)
			stamp.n += 2
		}
	}
	rep.setLayer("obs.stamp_ns", stamp.ns(), "ns")
	if _, isLive := rep.layer["obs.traces_retained"]; !isLive {
		rep.setLayer("obs.traces_retained", float64(tr.Len()), "count")
	}
}

// smallSim measures the loadgen layer for the live workloads, which bypass
// it: a seeded netsim run at the workload's population and server count.
func smallSim(dep *deployment, seed int64) (*loadgenStats, error) {
	d, err := loadgen.NewSimDriver(loadgen.SimConfig{Seed: seed, Pop: dep.pop, RetryTimeout: 200 * sim.Unit})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	t := time.Now()
	r := loadgen.New(d, loadgen.Config{Seed: seed, Messages: 2000, Sessions: 64, Ticks: 100}).Run()
	if !r.Ok {
		return nil, fmt.Errorf("small sim: auditor violations %v", r.Violations)
	}
	return &loadgenStats{runS: time.Since(t).Seconds(), retrievals: r.Retrievals, polls: r.Polls}, nil
}
