// Command tpchbench is the repository's end-to-end benchmark. It sets up
// an in-process testbed cluster with TPC-H data, drives a fixed,
// seeded stream of TPC-H Q3/Q5/Q7/Q8/Q9/Q10 through System.Query from one
// or two closed-loop clients, and checks every answer against a single
// throttle-free reference engine holding all the tables.
//
//	tpchbench --workload adhoc-lan --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
// the stream twice — untraced in a child process, then traced — checks
// that the two runs produced identical counts, and prints the per-layer
// metrics; the traced run's spans are written to a JSON file under -out.
// The last line of standard output is always one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// METRICS.md maps every metric to the layer it measures and to the
// end-to-end metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"xdb/internal/tpch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tpchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "adhoc-lan", "workload to run (adhoc-lan, dashboard-unshaped, refresh-lan)")
	seed := fs.Int64("seed", 1, "seed of the query order and the refresh batches")
	seconds := fs.Int("seconds", 35, "nominal run length; sizes the fixed query stream")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "tpchbench:", err)
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "tpchbench: --seconds must be at least 1, --trace 0 or 1")
		return 2
	}

	sp := spec{w: w, seed: *seed, seconds: *seconds}
	var rep report
	if *trace == 0 {
		rep, err = untracedRun(sp, stdout)
	} else {
		spanFile := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		rep, err = tracedRun(sp, spanFile, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "tpchbench:", err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "tpchbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// report is the result line.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

// dataSeed is the TPC-H generator seed of testbed.NewTPCH and
// Cluster.LoadTPCH, so the benchmark runs on the data every experiment of
// the repository uses. It is fixed rather than drawn from --seed because
// the optimizer's placements depend on the data: across generator seeds
// one query's shipped bytes range over an order of magnitude (Q7: 7 KB to
// 99 KB at sf 0.002), which would drown any change under test.
const dataSeed = 42

// spec is one invocation's inputs.
type spec struct {
	w *workload
	// seed orders the query stream and draws the refresh batches.
	seed    int64
	seconds int
}

// setups is how many times a run sets up; setup_s is their median, and
// the last cluster runs the stream.
const setups = 5

// setupRepeated sets up setups times and keeps the last cluster; it
// returns the set-up times in seconds. Every run
// of one seed sets up the same number of times before its stream, so the
// process-wide query ids — and with them the names of deployed objects
// and the bytes of every DDL statement — repeat exactly.
func setupRepeated(sp spec) (*rig, []float64, error) {
	var secs []float64
	var r *rig
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		if r, err = setup(sp); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < setups-1 {
			r.close()
		}
	}
	return r, secs, nil
}

// untracedRun sets up several times, runs the stream once on the last
// set-up cluster, and returns the end-to-end metrics. Before the result
// it prints the pass summary that a traced run reads from its child.
func untracedRun(sp spec, log io.Writer) (report, error) {
	r, setupS, err := setupRepeated(sp)
	if err != nil {
		return report{}, err
	}
	defer r.close()
	p := r.run(sp.w.streams(sp.seed, sp.seconds), nil)

	m := metrics{}
	lat := make([]float64, 0, len(p.outcomes))
	correct := 0
	for _, o := range p.outcomes {
		if o.failed() {
			lat = append(lat, failedMs)
			continue
		}
		correct++
		lat = append(lat, ms(o.lat))
	}
	n := float64(len(p.outcomes))
	m.set("query_p50_ms", quantile(lat, 0.50), "ms")
	m.set("query_p95_ms", quantile(lat, 0.95), "ms")
	m.set("geomean_ms", geomean(perQueryMedians(p.outcomes, true)), "ms")
	m.set("goodput_qps", float64(correct)/p.wall.Seconds(), "1/s")
	m.set("bytes_per_query", float64(p.bytes)/n, "B")
	m.set("setup_s", median(setupS), "s")
	printQueries(log, sp.w, p)
	b, err := json.Marshal(summarize(p))
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(log, "%s%s\n", summaryPrefix, b)
	rep := report{Correct: correct == len(p.outcomes), Attempted: len(p.outcomes), Failed: len(p.outcomes) - correct}

	// The heap is read with only the cluster left to hold: the pass and
	// the reference side are dropped first.
	p = nil
	r.dropReference()
	m.set("heap_mb", heapMB(), "MB")
	printMetrics(log, m)
	rep.Metrics = m
	return rep, nil
}

// passSummary is what an untraced run hands to the traced run that
// started it: its counts, per-query medians (failures counted with their
// time) and runtime costs.
type passSummary struct {
	Counts  counts
	Medians []float64
	Queries int
	// Runtime costs per query.
	CPUms, AllocMB, GCs, PauseMs float64
}

const summaryPrefix = "tpchbench-untraced-pass "

func summarize(p *pass) passSummary {
	n := float64(len(p.outcomes))
	b, a := p.before, p.after
	return passSummary{
		Counts:  countsOf(p),
		Medians: perQueryMedians(p.outcomes, false),
		Queries: len(p.outcomes),
		CPUms:   ratio(ms(a.cpu-b.cpu), n),
		AllocMB: ratio(float64(a.alloc-b.alloc)/(1<<20), n),
		GCs:     ratio(float64(a.numGC-b.numGC), n),
		PauseMs: ratio(float64(a.pause-b.pause)/1e6, n),
	}
}

// untracedChild runs the untraced run of the same workload, seed and
// length in a fresh process — one with the same query-id history as the
// traced run here — and returns its summary.
func untracedChild(sp spec, stderr io.Writer) (passSummary, error) {
	self, err := os.Executable()
	if err != nil {
		return passSummary{}, err
	}
	cmd := exec.Command(self, "--workload", sp.w.name, "--seed", strconv.FormatInt(sp.seed, 10),
		"--seconds", strconv.Itoa(sp.seconds), "--trace", "0")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return passSummary{}, fmt.Errorf("untraced run: %w", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, summaryPrefix); ok {
			var s passSummary
			return s, json.Unmarshal([]byte(rest), &s)
		}
	}
	return passSummary{}, fmt.Errorf("untraced run printed no summary")
}

// tracedRun runs the stream untraced in a child process and then traced
// here, checks that both runs counted the same work, and returns the
// per-layer metrics.
func tracedRun(sp spec, spanFile string, log, stderr io.Writer) (report, error) {
	plain, err := untracedChild(sp, stderr)
	if err != nil {
		return report{}, err
	}
	r, _, err := setupRepeated(sp)
	if err != nil {
		return report{}, err
	}
	rec := newRecorder()
	traced := r.run(sp.w.streams(sp.seed, sp.seconds), rec)
	pr := probeLayers(r, traced, rec)
	r.close()

	m := layerMetrics(plain, traced, pr, rec)
	tc := countsOf(traced)
	selfCheckOK := selfCheck(log, plain.Counts, tc)
	if sp.w.clients > 1 {
		fmt.Fprintln(log, "note: with concurrent clients, warm deployments shared by two live queries report kind=shared flows; netsim.data_bytes_per_query counts them as data, and their attribution between the queries is approximate")
	}
	printQueries(log, sp.w, traced)
	printMetrics(log, m)
	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return report{}, err
	}
	spans, err := rec.writeJSON(spanFile)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(log, "spans: %d written to %s\n", spans, spanFile)

	failed := plain.Counts.Wrong + plain.Counts.Errors + tc.Wrong + tc.Errors
	return report{
		Correct:   failed == 0 && selfCheckOK,
		Attempted: plain.Queries + len(traced.outcomes),
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// perQueryMedians returns the median latency of each query name, in the
// paper's query order. With failedAsOver, a failed run counts as longer
// than any limit; otherwise every run counts with the time it took.
func perQueryMedians(outs []outcome, failedAsOver bool) []float64 {
	by := map[string][]float64{}
	for _, o := range outs {
		v := ms(o.lat)
		if failedAsOver && o.failed() {
			v = failedMs
		}
		by[o.name] = append(by[o.name], v)
	}
	var meds []float64
	for _, q := range tpch.QueryNames {
		if xs := by[q]; len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return meds
}

// counts are the work counters that must repeat exactly for one seed.
type counts struct {
	Bytes, Frames, DDL, ConsultRounds, Statements int64
	Wrong, Errors                                 int
}

func countsOf(p *pass) counts {
	c := counts{Bytes: p.bytes, Frames: p.frames, Statements: p.after.statements - p.before.statements}
	for _, o := range p.outcomes {
		c.DDL += int64(o.bd.DDLCount)
		c.ConsultRounds += int64(o.bd.ConsultRounds)
		if o.err != nil {
			c.Errors++
		} else if o.wrong {
			c.Wrong++
		}
	}
	return c
}

// selfCheck compares the counts of two runs of the same seed.
func selfCheck(log io.Writer, ca, cb counts) bool {
	ok := ca == cb
	verdict := "identical"
	if !ok {
		verdict = "DIFFER"
	}
	fmt.Fprintf(log, "self-check (untraced vs traced run of one seed): %s\n  untraced %+v\n  traced   %+v\n", verdict, ca, cb)
	return ok
}

func printQueries(log io.Writer, w *workload, p *pass) {
	type row struct {
		n, errs, wrong int
		bytes          int64
		lat            []float64
	}
	by := map[string]*row{}
	for _, o := range p.outcomes {
		r := by[o.name]
		if r == nil {
			r = &row{}
			by[o.name] = r
		}
		r.n++
		r.bytes += o.wireBytes
		switch {
		case o.err != nil:
			r.errs++
		case o.wrong:
			r.wrong++
		default:
			r.lat = append(r.lat, ms(o.lat))
		}
	}
	fmt.Fprintf(log, "workload %s: %d queries, %d client(s), wall %.2fs\n", w.name, len(p.outcomes), w.clients, p.wall.Seconds())
	fmt.Fprintf(log, "%-5s %6s %6s %6s %10s %10s %12s\n", "query", "runs", "errors", "wrong", "p50_ms", "p95_ms", "bytes/query")
	for _, q := range tpch.QueryNames {
		r := by[q]
		if r == nil {
			continue
		}
		// A query's own bytes are known only when one client runs alone.
		bytes := "-"
		if w.clients == 1 {
			bytes = strconv.FormatInt(r.bytes/int64(r.n), 10)
		}
		fmt.Fprintf(log, "%-5s %6d %6d %6d %10.2f %10.2f %12s\n", q, r.n, r.errs, r.wrong, median(r.lat), quantile(r.lat, 0.95), bytes)
	}
}

func printMetrics(log io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if m[k].Value == failedMs {
			fmt.Fprintf(log, "%-36s %14s %s\n", k, "failed", m[k].Unit)
			continue
		}
		fmt.Fprintf(log, "%-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
