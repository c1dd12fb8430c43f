package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/largemail/largemail/internal/livenet"
	"github.com/largemail/largemail/internal/mail/mailstore"
	"github.com/largemail/largemail/internal/wire"
)

// Load generation uses at most this many client connections and goroutine
// pairs, one per CPU of the 2-vCPU reference machine.
const (
	clientConns = 2
	pipeDepth   = 32
	setupRounds = 3 // setups per run; setup_s is their median
)

// liveSpec describes one live deployment: an in-process wire server (the
// code maild runs) over loopback.
type liveSpec struct {
	dep       *deployment
	corp      *corpus
	termIndex bool
	dataDir   string // non-empty: durable stores, fsync=never
	shards    int    // per-server store shards (0: the store default)
	inFlight  int    // requests in flight per connection (0: pipeDepth)
}

func (s *liveSpec) start() (*wire.Server, error) {
	return wire.NewServerWith("127.0.0.1:0", s.dep.servers(), wire.ServerConfig{
		Cluster: livenet.ClusterConfig{DataDir: s.dataDir, Fsync: mailstore.FsyncNever, TermIndex: s.termIndex, StoreShards: s.shards},
	})
}

// setup starts the server and registers the whole population over the wire,
// setupRounds times; every round but the last is torn down again. It
// returns the last server and the median setup time.
func (s *liveSpec) setup() (*wire.Server, float64, error) {
	var times []float64
	var srv *wire.Server
	for round := 0; round < setupRounds; round++ {
		if s.dataDir != "" {
			if err := os.RemoveAll(s.dataDir); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		srv, err = s.start()
		if err != nil {
			return nil, 0, fmt.Errorf("start server: %w", err)
		}
		if err := s.register(srv.Addr()); err != nil {
			srv.Close()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if round < setupRounds-1 {
			srv.Close()
		}
	}
	return srv, median(times), nil
}

// register sends one register request per user, pipelined over the client
// connections.
func (s *liveSpec) register(addr string) error {
	users := len(s.dep.names)
	return parallel(clientConns, func(k int) error {
		c, err := dialPipe(addr)
		if err != nil {
			return err
		}
		defer c.close()
		futures := make(chan *wire.Future, pipeDepth) // the pipeline itself bounds what is in flight
		errc := make(chan error, 1)
		go func() {
			var first error
			for f := range futures {
				if resp, err := f.Response(); (err != nil || !resp.OK) && first == nil {
					first = fmt.Errorf("register: %v %s", err, resp.Error)
				}
			}
			errc <- first
		}()
		for u := k; u < users; u += clientConns {
			futures <- c.p.Do(wire.Request{Op: "register", User: s.dep.names[u], Servers: s.dep.authority(u)})
		}
		close(futures)
		return <-errc
	})
}

// parallel runs fn(0..n-1) on n goroutines and returns the first error.
func parallel(n int, fn func(k int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = fn(k)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pipe is one binary-framed client connection with a request pipeline.
type pipe struct {
	c *wire.Client
	p *wire.Pipeline
}

func dialPipe(addr string) (*pipe, error) {
	c, err := wire.DialOptions(addr, wire.Options{Timeout: 30 * time.Second})
	if err != nil {
		return nil, err
	}
	p, err := c.Pipeline(context.Background(), pipeDepth)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	if !c.BinaryFraming() {
		_ = p.Close()
		_ = c.Close()
		return nil, fmt.Errorf("server declined binary framing")
	}
	return &pipe{c: c, p: p}, nil
}

func (p *pipe) close() {
	_ = p.p.Close()
	_ = p.c.Close()
}

// sample is one completed operation: its latency and when it completed,
// relative to the start of the measured phase.
type sample struct {
	kind   opKind
	traced bool
	lat    int64 // ns, from sending the request to its response
	done   int64 // ns since the phase began
}

type accepted struct {
	id      string
	to      []int
	subject int
	body    int
}

type copyKey struct {
	id   string
	user int
}

// span is one client-side request span recorded by a traced run.
type span struct {
	op         opKind
	start, end int64
}

// ledger is one connection's record of what it sent and what came back.
// The collector goroutine owns it; it is merged after the phase ends.
type ledger struct {
	samples   []sample
	accepted  []accepted
	retrieved []copyKey
	polls     map[int]int // user → highest cumulative poll count seen
	getmails  int
	query     wire.QueryStats
	queries   int
	attempted int64
	failed    int64
	errs      []string
	spans     []span
}

func newLedger() *ledger { return &ledger{polls: make(map[int]int)} }

func (lg *ledger) record(o *op, resp wire.Response, err error) bool {
	lg.attempted++
	if err == nil && !resp.OK {
		err = fmt.Errorf("%s", resp.Error)
	}
	if err != nil {
		lg.failed++
		if len(lg.errs) < 5 {
			lg.errs = append(lg.errs, fmt.Sprintf("%s: %v", o.kind, err))
		}
		return false
	}
	switch o.kind {
	case opSubmit:
		lg.accepted = append(lg.accepted, accepted{id: resp.ID, to: o.to, subject: o.subject, body: o.body})
	case opGetMail:
		lg.getmails++
		for _, m := range resp.Messages {
			lg.retrieved = append(lg.retrieved, copyKey{m.ID, o.user})
		}
		if resp.Polls > lg.polls[o.user] {
			lg.polls[o.user] = resp.Polls
		}
	case opQuery:
		lg.queries++
		if qs := resp.QueryStats; qs != nil {
			lg.query.Servers += qs.Servers
			lg.query.Visited += qs.Visited
			lg.query.Pruned += qs.Pruned
			lg.query.SketchFP += qs.SketchFP
		}
	}
	return true
}

// stream is one connection's generated operation source.
type stream struct {
	next   func(i int) (op, bool) // op i; false ends the stream
	stop   time.Duration          // > 0: send nothing after this offset
	traced func(at time.Duration) bool
}

// drive runs one connection's stream as a closed loop: s.inFlight requests
// (pipeDepth if unset) stay in flight, and each is timed from when it was
// sent.
func (s *liveSpec) drive(p *pipe, t0 time.Time, st stream, lg *ledger) {
	type inflight struct {
		o      op
		f      *wire.Future
		sent   time.Time
		traced bool
	}
	depth := s.inFlight
	if depth == 0 {
		depth = pipeDepth
	}
	slots := make(chan struct{}, depth)
	pending := make(chan inflight, depth) // at most depth requests are in flight
	done := make(chan struct{})
	go func() {
		defer close(done)
		for it := range pending {
			resp, err := it.f.Response()
			end := time.Now()
			<-slots
			if lg.record(&it.o, resp, err) {
				lg.samples = append(lg.samples, sample{kind: it.o.kind, traced: it.traced,
					lat: int64(end.Sub(it.sent)), done: int64(end.Sub(t0))})
			}
			if it.traced {
				lg.spans = append(lg.spans, span{it.o.kind, int64(it.sent.Sub(t0)), int64(end.Sub(t0))})
			}
		}
	}()
	for i := 0; ; i++ {
		o, ok := st.next(i)
		if !ok {
			break
		}
		slots <- struct{}{}
		sent := time.Now()
		if st.stop > 0 && sent.Sub(t0) >= st.stop {
			<-slots
			break
		}
		traced := st.traced != nil && st.traced(sent.Sub(t0))
		pending <- inflight{o: o, f: p.p.Do(buildRequest(s.dep, s.corp, &o)), sent: sent, traced: traced}
	}
	close(pending)
	<-done
}

// phase runs one stream per connection against addr and returns the
// per-connection ledgers and the phase's wall time.
func (s *liveSpec) phase(addr string, streams []stream) ([]*ledger, time.Duration, error) {
	pipes := make([]*pipe, len(streams))
	for k := range streams {
		p, err := dialPipe(addr)
		if err != nil {
			for _, q := range pipes[:k] {
				q.close()
			}
			return nil, 0, err
		}
		pipes[k] = p
	}
	lgs := make([]*ledger, len(streams))
	for k := range lgs {
		lgs[k] = newLedger()
	}
	t0 := time.Now()
	_ = parallel(len(streams), func(k int) error {
		s.drive(pipes[k], t0, streams[k], lgs[k])
		return nil
	})
	wall := time.Since(t0)
	for _, p := range pipes {
		p.close()
	}
	return lgs, wall, nil
}

// ledgerSet is the merged view of a run's ledgers.
type ledgerSet []*ledger

func (ls ledgerSet) totals() (attempted, failed int64, errs []string) {
	for _, lg := range ls {
		attempted += lg.attempted
		failed += lg.failed
		errs = append(errs, lg.errs...)
	}
	return
}

func (ls ledgerSet) accepted() int {
	n := 0
	for _, lg := range ls {
		n += len(lg.accepted)
	}
	return n
}

func (ls ledgerSet) getmails() int {
	n := 0
	for _, lg := range ls {
		n += lg.getmails
	}
	return n
}

// pollsPerGetMail is total server polls over total getmails: each user's
// highest cumulative poll count is their total.
func (ls ledgerSet) pollsPerGetMail() float64 {
	top := make(map[int]int)
	for _, lg := range ls {
		for u, p := range lg.polls {
			if p > top[u] {
				top[u] = p
			}
		}
	}
	polls := 0
	for _, p := range top {
		polls += p
	}
	return float64(polls) / float64(max(ls.getmails(), 1))
}

// outstanding returns, per recipient copy, how many deliveries are still
// owed: +1 per accepted copy, −1 per retrieval. A negative entry is a
// duplicate or unexpected delivery.
func (ls ledgerSet) outstanding() map[copyKey]int {
	owed := make(map[copyKey]int)
	for _, lg := range ls {
		for _, a := range lg.accepted {
			for _, u := range a.to {
				owed[copyKey{a.id, u}]++
			}
		}
	}
	for _, lg := range ls {
		for _, r := range lg.retrieved {
			owed[r]--
		}
	}
	return owed
}

// drain retrieves every user that is still owed mail, once, and returns the
// ledgers of the drain phase.
func (s *liveSpec) drain(addr string, owed map[copyKey]int) (ledgerSet, error) {
	seen := make(map[int]bool)
	var users []int
	for k, n := range owed {
		if n > 0 && !seen[k.user] {
			seen[k.user] = true
			users = append(users, k.user)
		}
	}
	sort.Ints(users)
	streams := make([]stream, clientConns)
	for k := range streams {
		streams[k] = stream{next: func(i int) (op, bool) {
			j := i*clientConns + k
			if j >= len(users) {
				return op{}, false
			}
			return op{kind: opGetMail, user: users[j]}, true
		}}
	}
	lgs, _, err := s.phase(addr, streams)
	return lgs, err
}

// checkExactlyOnce fails the run unless every accepted recipient copy was
// retrieved exactly once and nothing else was retrieved.
func checkExactlyOnce(rep *report, name string, owed map[copyKey]int) {
	missing, dup := 0, 0
	var example string
	for k, n := range owed {
		if n == 0 {
			continue
		}
		if n > 0 {
			missing += n
		} else {
			dup -= n
		}
		if example == "" {
			example = fmt.Sprintf(" (e.g. %s for user %d: %+d)", k.id, k.user, n)
		}
	}
	rep.check(name, missing == 0 && dup == 0, "%d copies, %d missing, %d duplicated or unexpected%s",
		len(owed), missing, dup, example)
}

// settle subtracts a drain's retrievals from owed.
func settle(owed map[copyKey]int, drained ledgerSet) {
	for _, lg := range drained {
		for _, r := range lg.retrieved {
			owed[r]--
		}
	}
}

// windowSeconds is the width of the windows windowedQuantile splits a phase
// into.
const windowSeconds = 0.25

// windowedQuantile is the median over the phase's windows of each window's
// q-quantile latency in ms, counting only windows with at least 1000
// samples; a single stalled window cannot move it. Without such a window it
// is the whole phase's quantile.
func windowedQuantile(samples []sample, span time.Duration, q float64) float64 {
	nw := max(int(span.Seconds()/windowSeconds+0.5), 1)
	width := float64(span) / float64(nw)
	lats := make([][]float64, nw)
	var all []float64
	for i := range samples {
		w := min(int(float64(samples[i].done)/width), nw-1)
		l := float64(samples[i].lat) / 1e6
		lats[w] = append(lats[w], l)
		all = append(all, l)
	}
	var qs []float64
	for _, l := range lats {
		if len(l) >= 1000 {
			sort.Float64s(l)
			qs = append(qs, quantile(l, q))
		}
	}
	if len(qs) == 0 {
		sort.Float64s(all)
		return quantile(all, q)
	}
	return median(qs)
}

// samples flattens the ledgers' samples.
func (ls ledgerSet) samples() []sample {
	var out []sample
	for _, lg := range ls {
		out = append(out, lg.samples...)
	}
	return out
}

// kindStats reports one op kind's percentiles over the whole phase with its
// sample count; p99 only with at least 1000 samples.
func kindStats(rep *report, samples []sample, k opKind) {
	var l []float64
	for i := range samples {
		if samples[i].kind == k {
			l = append(l, float64(samples[i].lat)/1e6)
		}
	}
	if len(l) == 0 {
		return
	}
	sort.Float64s(l)
	rep.setExtra(k.String()+"_p50_ms", quantile(l, 0.5), "ms")
	rep.setExtra(k.String()+"_samples", float64(len(l)), "count")
	if len(l) >= 1000 {
		rep.setExtra(k.String()+"_p99_ms", quantile(l, 0.99), "ms")
	}
}

// retainedHeap forces a collection and reports the live heap.
func retainedHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// cpuTime is the process's user plus system CPU time: client and server
// together, since both run in this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procIO reads the syscall counters of /proc/self/io.
func procIO() (syscr, syscw int64) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		switch k {
		case "syscr":
			syscr = n
		case "syscw":
			syscw = n
		}
	}
	return syscr, syscw
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
