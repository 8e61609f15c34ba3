package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"xdb/internal/obs"
)

// The benchmark's own trace. In a traced pass every public call the
// benchmark makes into the program gets an obs span, tagged with the
// layer it calls into and, on a root, the position of its query in the
// stream. System.QueryContext nests the program's own span tree under
// the span the benchmark puts on its context. Spans stay in memory and
// are written out as one JSON file when the run ends.

// Attributes the benchmark sets on its own spans.
const (
	attrLayer = "bench.layer"
	attrQID   = "bench.qid" // position in the query stream; -1 outside it
)

// recorder collects the benchmark's root spans. A nil recorder records
// nothing: its roots are nil spans, whose children are nil too, so
// untraced passes call it unconditionally.
type recorder struct {
	mu    sync.Mutex
	roots []*obs.Span
}

func newRecorder() *recorder { return &recorder{} }

// root starts a root span.
func (r *recorder) root(qid int, layer, name string) *obs.Span {
	if r == nil {
		return nil
	}
	sp := obs.NewSpan(name)
	sp.Set(attrLayer, layer)
	sp.Set(attrQID, strconv.Itoa(qid))
	r.mu.Lock()
	r.roots = append(r.roots, sp)
	r.mu.Unlock()
	return sp
}

// child starts a span under parent; under a nil parent it returns nil.
func child(parent *obs.Span, layer, name string) *obs.Span {
	sp := parent.Child(name)
	sp.Set(attrLayer, layer)
	return sp
}

// walk visits every recorded span.
func (r *recorder) walk(fn func(*obs.Span)) {
	if r == nil {
		return
	}
	for _, root := range r.roots {
		root.Walk(func(_ int, sp *obs.Span) { fn(sp) })
	}
}

// layerOf is the layer a span's self time is charged to: the one the
// benchmark tagged it with, or for a span of the program's own tree the
// layer that does the work. Control-plane round trips (metadata
// fetches, consultation and sample probes, deployment and cleanup DDL)
// go through the connector and wire layers; execution and
// re-optimization barriers are the decentralized data path (engines
// plus links); everything else is the middleware's own planning and
// bookkeeping.
func layerOf(sp *obs.Span) string {
	if l := sp.Attr(attrLayer); l != "" {
		return l
	}
	switch sp.Name() {
	case "metadata", "probe", "sample", "ddl", "cleanup":
		return "rpc"
	case "execute", "observe":
		return "exec"
	default:
		return "core"
	}
}

// selfTime returns each layer's self time: a span's duration minus the
// part of its interval that its children cover.
func (r *recorder) selfTime() map[string]time.Duration {
	out := map[string]time.Duration{}
	r.walk(func(sp *obs.Span) {
		out[layerOf(sp)] += sp.Duration() - covered(sp, sp.Children())
	})
	return out
}

// covered returns how much of s's interval the union of the kids'
// intervals covers.
func covered(s *obs.Span, kids []*obs.Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		lo, hi := later(k.Start(), s.Start()), earlier(k.End(), s.End())
		if hi.After(lo) {
			iv = append(iv, [2]time.Time{lo, hi})
		}
	}
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	curLo, curHi := iv[0][0], iv[0][1]
	for _, v := range iv[1:] {
		if v[0].After(curHi) {
			total += curHi.Sub(curLo)
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = later(curHi, v[1])
	}
	return total + curHi.Sub(curLo)
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func earlier(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// writeJSON writes every recorded tree to path and returns how many
// spans they hold.
func (r *recorder) writeJSON(path string) (int, error) {
	trees := make([]obs.SpanJSON, len(r.roots))
	n := 0
	for i, root := range r.roots {
		trees[i] = root.Export()
		n += root.Count("")
	}
	b, err := json.Marshal(trees)
	if err != nil {
		return 0, err
	}
	return n, os.WriteFile(path, b, 0o644)
}

// total returns the summed duration and number of the spans with a name.
func (r *recorder) total(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	r.walk(func(sp *obs.Span) {
		if sp.Name() == name {
			d += sp.Duration()
			n++
		}
	})
	return d, n
}
