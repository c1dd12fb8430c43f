// Command perfbench is the repository's benchmark: four named workloads over
// the live mail path (an in-process wire server over loopback, the code maild
// runs) and the seeded network simulator, each checked for correctness, plus
// a separately traced run that times every layer the workload's operations
// pass through. See README.md for the metric glossary and the layer map.
//
//	bash perfbench/run.sh --workload submit-burst --seed 1 --seconds 15 --trace 0
//
// run from the repository root; everything it writes goes under .bench_build.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is the seed later performance claims confirm on: it is never
// used while a change is being written or tuned.
const heldOutSeed = 7919

// buildDir holds everything the benchmark writes, relative to the checkout
// root it runs from.
const buildDir = ".bench_build"

// workload is one named traffic mix. run measures it for cfg.seconds and
// fills rep; an error means the run could not complete at all.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig, rep *report) error
}

var workloads = []workload{
	{"submit-burst", "closed-loop pipelined submits: wire codec, worker pool, livenet, memory store and tracer dominate", runSubmitBurst},
	{"read-mostly", "closed-loop 10 getmail : 1 submit : ~1% query with the term index on: GetMail path, agent map, term index and sketch", runReadMostly},
	{"durable-restart", "closed-loop submit/getmail over durable stores, then a cold reopen: WAL append, compaction and recovery", runDurableRestart},
	{"sim-syntax", "seeded 1M-user x 64-server netsim syntax run through loadgen with auditors on: server, netsim, client, loadgen", runSimSyntax},
}

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's numbers and checks.
type report struct {
	workload  string
	e2e       map[string]metric
	layer     map[string]metric
	extra     map[string]metric // printed and saved, not part of the result line
	attempted int64
	failed    int64
	failures  []string
}

func newReport() *report {
	return &report{
		e2e:   make(map[string]metric),
		layer: make(map[string]metric),
		extra: make(map[string]metric),
	}
}

func (r *report) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *report) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }
func (r *report) setExtra(name string, v float64, unit string) { r.extra[name] = metric{v, unit} }

// check records one correctness check; a failed check fails the run.
func (r *report) check(name string, ok bool, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	status := "ok"
	if !ok {
		status = "FAIL"
		r.failures = append(r.failures, name+": "+detail)
	}
	fmt.Printf("check %-34s %-4s %s\n", name, status, detail)
}

// nonZero is the silent-zero guard: a counter the workload must move that
// reads 0 means the measurement is lying, so the run fails.
func (r *report) nonZero(name string, v float64) {
	r.check("nonzero "+name, v != 0, "%s = %g", name, v)
}

func main() {
	name := flag.String("workload", "", "workload name: submit-burst, read-mostly, durable-restart, sim-syntax")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	env := captureEnv(w, cfg)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	rep := newReport()
	rep.workload = w.name
	start := time.Now()
	if err := w.run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if rep.attempted < 1 {
		rep.failures = append(rep.failures, "no operations attempted")
	}
	if rep.failed != 0 {
		rep.failures = append(rep.failures, fmt.Sprintf("%d of %d operations failed", rep.failed, rep.attempted))
	}
	res := result{
		Correct:   len(rep.failures) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.e2e,
	}
	if cfg.trace {
		res.Metrics = rep.layer
	}
	printTable("end-to-end", rep.e2e)
	printTable("per-layer", rep.layer)
	printTable("workload extras", rep.extra)
	fmt.Printf("failed_frac %.6f (%d failed of %d attempted); run took %.1fs\n",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted, time.Since(start).Seconds())
	if err := saveResult(env, rep, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: saving result: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, f := range rep.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func printTable(title string, ms map[string]metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Printf("-- %s\n", title)
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-32s %16.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// environment is recorded with every result so numbers from different
// machines or commits are never compared blind.
type environment struct {
	Workload    string  `json:"workload"`
	Why         string  `json:"why"`
	Seed        int64   `json:"seed"`
	HeldOutSeed int64   `json:"held_out_seed"`
	Seconds     float64 `json:"seconds"`
	Traced      bool    `json:"traced"`
	CPU         string  `json:"cpu"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Transport   string  `json:"transport"`
	Fsync       string  `json:"fsync"`
}

func captureEnv(w *workload, cfg runConfig) environment {
	env := environment{
		Workload:    w.name,
		Why:         w.why,
		Seed:        cfg.seed,
		HeldOutSeed: heldOutSeed,
		Seconds:     cfg.seconds,
		Traced:      cfg.trace,
		CPU:         cpuModel(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      commit(),
		Transport:   "in-process server over loopback",
		Fsync:       "n/a (memory stores)",
	}
	switch w.name {
	case "durable-restart":
		env.Fsync = "never"
	case "sim-syntax":
		env.Transport = "in-process netsim (event time)"
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git when the checkout has one;
// an exported tree reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// saveResult writes the run's full record — environment, every metric and
// the checks that failed — under .bench_build/results.
func saveResult(env environment, rep *report, res result) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Env      environment       `json:"env"`
		Result   result            `json:"result"`
		E2E      map[string]metric `json:"end_to_end"`
		Layer    map[string]metric `json:"per_layer"`
		Extra    map[string]metric `json:"extras"`
		Failures []string          `json:"failures,omitempty"`
	}{env, res, rep.e2e, rep.layer, rep.extra, rep.failures}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if env.Traced {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", env.Workload, env.Seed, trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// maxSpans caps the client spans a traced run writes out.
const maxSpans = 100_000

// saveSpans writes a traced run's client spans (op, start and end in ns
// from the start of the measured phase) as CSV next to the result file.
func saveSpans(workload string, seed int64, spans []span) error {
	var b strings.Builder
	b.WriteString("op,start_ns,end_ns\n")
	for _, s := range spans[:min(len(spans), maxSpans)] {
		fmt.Fprintf(&b, "%s,%d,%d\n", s.op, s.start, s.end)
	}
	path := filepath.Join(buildDir, "results", fmt.Sprintf("%s-seed%d-spans.csv", workload, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fmt.Printf("wrote %d client spans to %s\n", min(len(spans), maxSpans), path)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
