package main

import (
	"sort"
	"time"

	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
	"xdb/internal/tpch"
)

// refReps is how many times the layer probe re-runs each query on the
// reference engine.
const refReps = 5

// probes holds the layer probes' timings, taken after the traced stream
// on one thread so that they neither perturb nor are perturbed by the
// queries.
type probes struct {
	parse                      time.Duration
	parses                     int
	enc, dec, encText, decText time.Duration
	codecRows                  int64
}

// probeLayers times the calls the stream implies into layers that the
// program's own trace does not split out: parsing each query text of the
// stream, and encoding and decoding each answer of the stream with the
// binary and text row codecs. It then re-runs every query on the
// reference engine refReps times.
func probeLayers(r *rig, p *pass, rec *recorder) probes {
	outs := append([]outcome(nil), p.outcomes...)
	sort.Slice(outs, func(i, j int) bool { return outs[i].qid < outs[j].qid })
	var pr probes
	var buf []byte
	timed := func(qid int, layer, name string, fn func()) time.Duration {
		sp := rec.root(qid, layer, name)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		sp.Finish()
		return d
	}
	for _, o := range outs {
		pr.parse += timed(o.qid, "sqlparser", "sqlparser.Parse", func() {
			if _, err := sqlparser.Parse(tpch.Queries[o.name]); err != nil {
				panic(err) // the six queries are fixed and parse
			}
		})
		pr.parses++
		rows := p.lastRows[o.name]
		if len(rows) == 0 {
			continue
		}
		pr.codecRows += int64(len(rows))
		pr.enc += timed(o.qid, "sqltypes", "sqltypes.AppendRow", func() {
			buf = buf[:0]
			for _, row := range rows {
				buf = sqltypes.AppendRow(buf, row)
			}
		})
		pr.dec += timed(o.qid, "sqltypes", "sqltypes.DecodeRow", func() { decodeAll(buf, sqltypes.DecodeRow) })
		pr.encText += timed(o.qid, "sqltypes", "sqltypes.AppendRowText", func() {
			buf = buf[:0]
			for _, row := range rows {
				buf = sqltypes.AppendRowText(buf, row)
			}
		})
		pr.decText += timed(o.qid, "sqltypes", "sqltypes.DecodeRowText", func() { decodeAll(buf, sqltypes.DecodeRowText) })
	}
	for i := 0; i < refReps; i++ {
		root := rec.root(-1, "bench", "bench.reference")
		err := r.answer(root)
		root.Finish()
		if err != nil {
			panic(err) // the same calls succeeded during set-up
		}
	}
	return pr
}

func decodeAll(b []byte, decode func([]byte) (sqltypes.Row, int, error)) {
	for len(b) > 0 {
		_, n, err := decode(b)
		if err != nil {
			panic(err) // the benchmark encoded these bytes itself
		}
		b = b[n:]
	}
}

// layerMetrics derives the per-layer metrics: counters and phase times
// from the traced run, runtime costs from the untraced one (whose only
// extra work is the oracle's row comparison), and the tracing overhead
// from both.
func layerMetrics(plain passSummary, traced *pass, pr probes, rec *recorder) metrics {
	m := metrics{}
	n := float64(len(traced.outcomes))
	var ok float64
	var wall, adm, prep, lopt, ann, deleg, exec time.Duration
	var consult, cached, ddl, samples, reopts, dataBytes float64
	failed := map[string]float64{}
	for _, o := range traced.outcomes {
		if o.failed() {
			failed[o.name]++
		}
		if o.err != nil {
			continue
		}
		ok++
		bd := o.bd
		wall += o.lat
		adm += bd.AdmissionWait
		prep += bd.Prep
		lopt += bd.Lopt
		ann += bd.Ann
		deleg += bd.Deleg
		exec += bd.Exec
		consult += float64(bd.ConsultRounds)
		cached += float64(bd.CachedProbes)
		ddl += float64(bd.DDLCount)
		samples += float64(bd.SampleProbes)
		reopts += float64(bd.Reopts)
		dataBytes += float64(o.dataBytes)
	}
	perQ := func(d time.Duration) float64 { return ratio(ms(d), ok) }
	wallMs := perQ(wall)
	m.set("core.wall_ms", wallMs, "ms")
	m.set("core.admission_wait_ms", perQ(adm), "ms")
	m.set("core.prep_ms", perQ(prep), "ms")
	m.set("core.lopt_ms", perQ(lopt), "ms")
	m.set("core.ann_ms", perQ(ann), "ms")
	m.set("core.deleg_ms", perQ(deleg), "ms")
	m.set("core.exec_ms", perQ(exec), "ms")
	m.set("core.unaccounted_ms", perQ(wall-adm-prep-lopt-ann-deleg-exec), "ms")
	m.set("core.consult_rounds", ratio(consult, ok), "count")
	m.set("core.cached_probes", ratio(cached, ok), "count")
	m.set("core.ddl_per_query", ratio(ddl, ok), "count")
	m.set("core.sample_probes", ratio(samples, ok), "count")
	m.set("core.reopts", ratio(reopts, ok), "count")

	b, a := traced.before, traced.after
	hits, misses := float64(a.plans.Hits-b.plans.Hits), float64(a.plans.Misses-b.plans.Misses)
	m.set("core.plancache_hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("core.plancache_invalidations", float64(a.plans.Invalidations-b.plans.Invalidations), "count")
	hits, misses = float64(a.consults.Hits-b.consults.Hits), float64(a.consults.Misses-b.consults.Misses)
	m.set("core.consultcache_hit_ratio", ratio(hits, hits+misses), "ratio")

	linkMs := ratio(ms(traced.linkWait), n)
	m.set("netsim.frames_per_query", ratio(float64(traced.frames), n), "count")
	m.set("netsim.data_bytes_per_query", ratio(dataBytes, n), "B")
	m.set("netsim.control_bytes_per_query", ratio(float64(traced.bytes)-dataBytes, n), "B")
	m.set("netsim.link_wait_ms", linkMs, "ms")

	dials, reuses := float64(a.transport.Dials-b.transport.Dials), float64(a.transport.Reuses-b.transport.Reuses)
	m.set("wire.dials", dials, "count")
	m.set("wire.reuse_ratio", ratio(reuses, dials+reuses), "ratio")
	m.set("wire.retries", float64(a.transport.Retries-b.transport.Retries), "count")
	m.set("wire.timeouts", float64(a.transport.Timeouts-b.transport.Timeouts), "count")

	rows := float64(pr.codecRows)
	m.set("sqltypes.encode_ns_per_row", ratio(float64(pr.enc), rows), "ns")
	m.set("sqltypes.decode_ns_per_row", ratio(float64(pr.dec), rows), "ns")
	m.set("sqltypes.encode_text_ns_per_row", ratio(float64(pr.encText), rows), "ns")
	m.set("sqltypes.decode_text_ns_per_row", ratio(float64(pr.decText), rows), "ns")
	m.set("sqlparser.parse_us", ratio(float64(pr.parse)/float64(time.Microsecond), float64(pr.parses)), "us")

	m.set("engine.statements_per_query", ratio(float64(a.statements-b.statements), n), "count")
	refTotal, refs := rec.total("engine.QueryAll")
	m.set("engine.ref_exec_ms", ratio(ms(refTotal), float64(refs)), "ms")
	var load time.Duration
	for _, d := range traced.loads {
		load += d
	}
	m.set("engine.load_ms", ratio(ms(load), float64(len(traced.loads))), "ms")

	m.set("runtime.cpu_ms_per_query", plain.CPUms, "ms")
	m.set("runtime.alloc_mb_per_query", plain.AllocMB, "MB")
	m.set("runtime.gc_per_query", plain.GCs, "count")
	m.set("runtime.gc_pause_ms", plain.PauseMs, "ms")

	m.set("obs.trace_overhead_pct", 100*(ratio(geomean(perQueryMedians(traced.outcomes, false)), geomean(plain.Medians))-1), "%")

	self := rec.selfTime()
	for _, l := range []string{"core", "rpc", "exec", "oracle"} {
		m.set("selftime."+l+"_ms", ratio(ms(self[l]), n), "ms")
	}
	m.set("selftime.harness_ms", ratio(ms(self["bench"]+self["xdb"]), n), "ms")
	for _, q := range tpch.QueryNames {
		m.set("oracle.failed."+q, failed[q], "count")
	}
	return m
}
