package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"xdb/internal/core"
	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/obs"
	"xdb/internal/sqltypes"
	"xdb/internal/testbed"
	"xdb/internal/tpch"
	"xdb/internal/wire"
)

// rig is one set-up cluster with TPC-H data loaded, the reference engine
// holding the same data, and the reference answer of every query.
type rig struct {
	w    *workload
	td   tpch.Distribution
	tb   *testbed.Testbed
	ref  *engine.Engine
	want map[string][]sqltypes.Row
	// refresh is nil on read-only workloads.
	refresh *refresher
}

// setup generates the data, starts the cluster, loads it, builds the
// reference engine and its answers, and warms the cluster up with one run
// of each query.
func setup(sp spec) (*rig, error) {
	w := sp.w
	td, err := tpch.TD(w.td)
	if err != nil {
		return nil, err
	}
	data := tpch.NewGenerator(w.sf, dataSeed).GenAll()
	tb, err := testbed.New(td.Nodes(), testbed.Config{
		Scenario:  netsim.ScenarioLAN,
		Options:   w.opts,
		TimeScale: w.timeScale,
	})
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, td: td, tb: tb, ref: engine.New(engine.Config{Name: "ref", Vendor: engine.VendorTest})}
	if err := r.load(data); err != nil {
		tb.Close()
		return nil, err
	}
	if w.refreshEvery > 0 {
		r.refresh = newRefresher(w.sf, sp.seed, data[tpch.Orders], data[tpch.Lineitem])
	}
	for _, q := range tpch.QueryNames {
		res, err := tb.System.Query(tpch.Queries[q])
		if err != nil {
			tb.Close()
			return nil, fmt.Errorf("warm-up %s: %w", q, err)
		}
		if !equalResultSets(res.Rows, r.want[q]) {
			tb.Close()
			return nil, fmt.Errorf("warm-up %s: rows differ from the reference engine", q)
		}
	}
	return r, nil
}

// load puts every table on its node and into the reference engine, then
// recomputes the reference answers.
func (r *rig) load(data map[string][]sqltypes.Row) error {
	for _, table := range tpch.TableNames {
		rows, ok := data[table]
		if !ok {
			continue
		}
		schema, err := tpch.Schema(table)
		if err != nil {
			return err
		}
		if err := r.tb.LoadTable(r.td[table], table, schema, rows); err != nil {
			return err
		}
		if err := r.ref.LoadTable(table, schema, rows); err != nil {
			return err
		}
	}
	return r.answer(nil)
}

// answer recomputes the reference answer of every query; each call into
// the reference engine gets a span under parent.
func (r *rig) answer(parent *obs.Span) error {
	r.want = map[string][]sqltypes.Row{}
	for _, q := range tpch.QueryNames {
		sp := child(parent, "engine", "engine.QueryAll")
		res, err := r.ref.QueryAll(tpch.Queries[q])
		sp.Finish()
		if err != nil {
			return fmt.Errorf("reference %s: %w", q, err)
		}
		r.want[q] = res.Rows
	}
	return nil
}

func (r *rig) close() { r.tb.Close() }

// dropReference lets go of everything the rig holds beside the cluster:
// the reference engine, its answers and the refresh tables.
func (r *rig) dropReference() { r.ref, r.want, r.refresh = nil, nil, nil }

// outcome is one query of the stream.
type outcome struct {
	qid       int
	name      string
	lat       time.Duration
	err       error
	wrong     bool
	bd        core.Breakdown
	dataBytes int64
	// wireBytes is the ledger's growth over the query, recorded when one
	// client runs alone and the growth is the query's own.
	wireBytes int64
}

func (o outcome) failed() bool { return o.err != nil || o.wrong }

// snapshot is the set of program counters a pass reads before and after
// its stream.
type snapshot struct {
	transport    wire.TransportStats
	plans        core.PlanCacheStats
	consults     core.ConsultCacheStats
	statements   int64
	cpu          time.Duration
	alloc, numGC uint64
	pause        uint64
}

func (r *rig) snapshot() snapshot {
	st := r.tb.System.Stats()
	s := snapshot{transport: st.Transport, plans: st.PlanCache, consults: st.ConsultCache}
	for _, n := range r.tb.Nodes {
		s.statements += n.Engine.QueriesServed()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.alloc, s.numGC, s.pause = m.TotalAlloc, uint64(m.NumGC), m.PauseTotalNs
	return s
}

// pass is the record of one run of the stream against one rig.
type pass struct {
	outcomes []outcome
	// wall is the stream's elapsed time, excluding the time spent keeping
	// the reference engine in step with refreshes.
	wall          time.Duration
	loads         []time.Duration
	before, after snapshot
	bytes, frames int64
	linkWait      time.Duration
	// lastRows is the latest result of each query, for the codec probe.
	lastRows map[string][]sqltypes.Row
}

// run drives the streams (one per client) against the rig.
func (r *rig) run(streams [][]string, rec *recorder) *pass {
	p := &pass{lastRows: map[string][]sqltypes.Row{}}
	r.tb.Topo.Ledger().Reset()
	p.before = r.snapshot()

	var mu sync.Mutex
	var oracleTime time.Duration
	var wg sync.WaitGroup
	start := time.Now()
	for c, stream := range streams {
		wg.Add(1)
		go func(c int, stream []string) {
			defer wg.Done()
			for i, name := range stream {
				qid := i*len(streams) + c
				before := r.tb.Topo.Ledger().Total()
				o := r.query(qid, name, rec)
				if len(streams) == 1 {
					o.wireBytes = r.tb.Topo.Ledger().Total() - before
				}
				mu.Lock()
				p.outcomes = append(p.outcomes, o.outcome)
				if o.rows != nil {
					p.lastRows[name] = o.rows
				}
				mu.Unlock()
				if r.refresh != nil && (i+1)%r.w.refreshEvery == 0 && i+1 < len(stream) {
					load, oracle := r.reload(rec)
					mu.Lock()
					p.loads = append(p.loads, load)
					oracleTime += oracle
					mu.Unlock()
				}
			}
		}(c, stream)
	}
	wg.Wait()
	p.wall = time.Since(start) - oracleTime

	p.after = r.snapshot()
	ledger := r.tb.Topo.Ledger()
	p.bytes, p.frames = ledger.Total(), ledger.TotalFrames()
	p.linkWait = r.modelLinkWait(ledger, p.after.transport.Dials-p.before.transport.Dials)
	return p
}

// heapMB returns the heap in use after a forced GC, in MB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

type queried struct {
	outcome
	rows []sqltypes.Row
}

// query runs one query of the stream and checks it against the reference.
func (r *rig) query(qid int, name string, rec *recorder) queried {
	root := rec.root(qid, "bench", "bench.query")
	defer root.Finish()
	// QueryContext nests the program's span tree under call.
	call := child(root, "xdb", "System.QueryContext")
	ctx := obs.ContextWithSpan(context.Background(), call)
	t0 := time.Now()
	res, err := r.tb.System.QueryContext(ctx, tpch.Queries[name])
	lat := time.Since(t0)
	call.Finish()
	o := queried{outcome: outcome{qid: qid, name: name, lat: lat, err: err}}
	if err != nil {
		return o
	}
	check := child(root, "oracle", "oracle.compare")
	o.wrong = !equalResultSets(res.Rows, r.want[name])
	check.Finish()
	o.bd = res.Breakdown
	o.rows = res.Rows
	for _, f := range res.Flows {
		switch f.Kind {
		case "implicit", "explicit", "result", "shared":
			o.dataBytes += f.Bytes()
		}
	}
	return o
}

// reload applies the next refresh batch through the cluster's load path
// and keeps the reference engine in step. It returns the time the
// cluster's loads took and the time spent on the reference engine.
func (r *rig) reload(rec *recorder) (load, oracle time.Duration) {
	orders, lineitem := r.refresh.batch(r.w.refreshOrders)
	root := rec.root(-1, "bench", "bench.refresh")
	defer root.Finish()
	timed := func(layer, name string, fn func() error) time.Duration {
		sp := child(root, layer, name)
		t0 := time.Now()
		if err := fn(); err != nil {
			panic(err) // the tables, nodes and queries all worked during set-up
		}
		d := time.Since(t0)
		sp.Finish()
		return d
	}
	for _, t := range []struct {
		table string
		rows  []sqltypes.Row
	}{{tpch.Orders, orders}, {tpch.Lineitem, lineitem}} {
		schema, err := tpch.Schema(t.table)
		if err != nil {
			panic(err)
		}
		load += timed("testbed", "Testbed.LoadTable", func() error { return r.tb.LoadTable(r.td[t.table], t.table, schema, t.rows) })
		oracle += timed("engine", "ref.LoadTable", func() error { return r.ref.LoadTable(t.table, schema, t.rows) })
	}
	t0 := time.Now()
	if err := r.answer(root); err != nil {
		panic(err)
	}
	return load, oracle + time.Since(t0)
}

// modelLinkWait prices the ledger with the topology's link specs: each
// frame pays the link latency plus its bytes over the bandwidth, and each
// fresh connection pays a handshake of two latencies. Shaping is divided
// by the topology's time scale, as netsim does.
func (r *rig) modelLinkWait(l *netsim.Ledger, dials int64) time.Duration {
	topo := r.tb.Topo
	frames := l.FrameSnapshot()
	var total float64
	for e, bytes := range l.Snapshot() {
		spec := topo.Link(e.From, e.To)
		total += float64(frames[e]) * float64(spec.Latency)
		if spec.Bandwidth > 0 {
			total += float64(bytes) / spec.Bandwidth * float64(time.Second)
		}
	}
	total += float64(dials) * 2 * float64(topo.Link(testbed.MiddlewareNode, r.tb.Order[0]).Latency)
	if topo.TimeScale > 1 {
		total /= topo.TimeScale
	}
	return time.Duration(total)
}
