package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"xdb/internal/engine"
	"xdb/internal/obs"
	"xdb/internal/sqlparser"
)

// Overlap tests: the control-plane round trips of one query that do not
// depend on each other run concurrently — a Rule-4 candidate's probes, a
// child subtree's DDL and its consumer's server and foreign-table DDL, and
// the cleanup drops on different nodes — without changing what is issued.

// inFlightCoster is a fakeCoster that records how many probes are in
// flight on each node at once. Each probe waits (up to a deadline) until
// gather probes are in flight on its node, so probes that are issued
// together are seen together however the goroutines are scheduled.
type inFlightCoster struct {
	fakeCoster
	gather int

	mu       sync.Mutex
	inflight map[string]int
	peak     map[string]int
}

func (c *inFlightCoster) CostOperator(ctx context.Context, node string, kind engine.CostKind, l, r, o float64) (float64, error) {
	c.mu.Lock()
	c.inflight[node]++
	if c.inflight[node] > c.peak[node] {
		c.peak[node] = c.inflight[node]
	}
	c.mu.Unlock()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		c.mu.Lock()
		n := c.peak[node]
		c.mu.Unlock()
		if n >= c.gather {
			break
		}
	}
	defer func() {
		c.mu.Lock()
		c.inflight[node]--
		c.mu.Unlock()
	}()
	return c.fakeCoster.CostOperator(ctx, node, kind, l, r, o)
}

// annotateWith runs the logical pipeline and the annotation pass against
// the given coster.
func annotateWith(t *testing.T, sql string, coster Coster, opts Options) *Annotation {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	b, conjs, canon, err := buildLogical(newTestCatalog(), sel)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := orderJoins(b, conjs, opts)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := annotate(context.Background(), &Final{In: joined, Sel: canon}, coster, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ann
}

// TestAnnotateCandidateProbesInFlight checks that one candidate's three
// distinct probes (stream join, join, scan of the explicit side) are in
// flight together, while SerialAnnotation issues them one at a time. The
// candidates of one decision sit on different nodes, so the per-node peak
// is the per-candidate concurrency. Either way the counts stay those of
// TestAnnotateProbeCounts.
func TestAnnotateCandidateProbesInFlight(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     Options
		wantPeak int
	}{
		{"concurrent", Options{}, 3},
		{"serial", Options{SerialAnnotation: true}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &inFlightCoster{
				fakeCoster: fakeCoster{nodes: []string{"db1", "db2", "db3"}},
				gather:     tc.wantPeak,
				inflight:   map[string]int{},
				peak:       map[string]int{},
			}
			ann := annotateWith(t, sqlThreeTables, c, tc.opts)
			if ann.ConsultRounds != 12 || ann.CachedProbes != 0 {
				t.Errorf("ConsultRounds/CachedProbes = %d/%d, want 12/0", ann.ConsultRounds, ann.CachedProbes)
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			if len(c.peak) == 0 {
				t.Fatal("no probes issued")
			}
			for node, peak := range c.peak {
				if peak != tc.wantPeak {
					t.Errorf("node %s: peak in-flight probes = %d, want %d", node, peak, tc.wantPeak)
				}
			}
		})
	}
}

// ddlSpans indexes a trace's DDL spans by object name.
func ddlSpans(root *obs.Span) map[string]*obs.Span {
	out := map[string]*obs.Span{}
	root.Walk(func(_ int, sp *obs.Span) {
		if sp.Name() == "ddl" {
			out[sp.Attr("object")+"@"+sp.Attr("kind")] = sp
		}
	})
	return out
}

func spansOverlap(a, b *obs.Span) bool {
	return a.Start().Before(b.End()) && b.Start().Before(a.End())
}

// TestDelegationOverlapsChildSubtree slows the producing node so that its
// CREATE VIEW takes about 40 ms, and the consumer so that each of its DDLs
// takes about 10 ms, and checks that the consumer's CREATE SERVER and
// CREATE FOREIGN TABLE run while the producer's view is in flight — the
// foreign table does not wait for it — while the consumer's own CREATE
// VIEW still starts after both inputs are in place.
func TestDelegationOverlapsChildSubtree(t *testing.T) {
	cl := newChaosCluster(t, traceOptions())
	plan, _, err := cl.sys.Plan(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Root.Inputs) != 1 {
		t.Fatalf("root task has %d inputs, want 1:\n%v", len(plan.Root.Inputs), plan.Tasks)
	}
	parent, child := plan.Root.Node, plan.Root.Inputs[0].From.Node
	cl.topo.SlowNode(child, 20*time.Millisecond)
	cl.topo.SlowNode(parent, 5*time.Millisecond)
	res, err := cl.sys.Query(chaosQuery)
	cl.topo.SlowNode(child, 0)
	cl.topo.SlowNode(parent, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Plan.Root.Node; got != parent {
		t.Fatalf("root moved from %s to %s under the slow node", parent, got)
	}
	edge := res.Plan.Root.Inputs[0]
	spans := ddlSpans(res.Trace)
	childView := spans[edge.From.ViewName+"@view"]
	server := spans["xdbsrv_"+child+"@server"]
	ft := spans[edge.Placeholder.Rel+"@foreign_table"]
	rootView := spans[res.Plan.Root.ViewName+"@view"]
	if childView == nil || server == nil || ft == nil || rootView == nil {
		t.Fatalf("missing ddl spans (child view %v, server %v, ft %v, root view %v):\n%s",
			childView != nil, server != nil, ft != nil, rootView != nil, res.Trace)
	}
	if server.Attr("node") != parent || ft.Attr("node") != parent {
		t.Errorf("server/ft spans on %s/%s, want %s", server.Attr("node"), ft.Attr("node"), parent)
	}
	if !spansOverlap(childView, server) || !spansOverlap(childView, ft) {
		t.Errorf("consumer DDL did not overlap the producer's view: child view %v..%v, server %v..%v, ft %v..%v",
			childView.Start(), childView.End(), server.Start(), server.End(), ft.Start(), ft.End())
	}
	if rootView.Start().Before(childView.End()) || rootView.Start().Before(ft.End()) {
		t.Error("the consumer's CREATE VIEW started before its inputs were deployed")
	}
	if len(res.Rows) != 400 {
		t.Errorf("rows = %d, want 400", len(res.Rows))
	}
	cl.assertNoXDBObjects(t)
}

// TestDelegationOverlapKeepsFailoverReuse kills the join node after
// deployment: the replanned suffix must adopt the surviving producer views
// of the first attempt — the foreign table deployed concurrently with the
// adoption must point at the adopted name — and return the baseline rows.
func TestDelegationOverlapKeepsFailoverReuse(t *testing.T) {
	opts := failoverOptions()
	opts.Trace = true
	cl := newFailoverCluster(t, opts)
	baseline, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	requireTaskOn(t, baseline, "db3")

	fired := false
	cl.sys.hookBeforeAttempt = func(attempt int) {
		if attempt == 0 && !fired {
			fired = true
			cl.topo.CrashNode("db3")
		}
	}
	res, err := cl.sys.Query(failoverQuery)
	cl.sys.hookBeforeAttempt = nil
	if err != nil {
		t.Fatalf("query did not survive the crash: %v", err)
	}
	if got, want := rowsText(res), rowsText(baseline); got != want {
		t.Errorf("failed-over result differs from baseline:\ngot:\n%s\nwant:\n%s", got, want)
	}
	own := fmt.Sprintf("xdb%d_", res.QID)
	adopted := 0
	for _, e := range res.Plan.Edges {
		if !strings.HasPrefix(e.From.ViewName, own) {
			adopted++
		}
	}
	if adopted == 0 {
		t.Errorf("replanned deployment adopted no producer view from the first attempt (qid %d):\n%s", res.QID, res.Trace)
	}
	cl.assertNoXDBObjects(t, "db3")
	cl.topo.ReviveNode("db3")
	if _, remaining, err := cl.sys.SweepOrphans(); err != nil || remaining != 0 {
		t.Errorf("post-revival sweep: remaining=%d err=%v", remaining, err)
	}
	cl.assertNoXDBObjects(t)
}

// TestCleanupPerNodeWithOpenBreaker sweeps a deployment spread over three
// nodes while one node's breaker is open: the other nodes still drop
// everything, and the open node's items fail fast, are parked as orphans,
// are named in reverse creation order in the error, and are retained on
// the deployment in the order a direct retry expects.
func TestCleanupPerNodeWithOpenBreaker(t *testing.T) {
	opts := chaosOptions()
	opts.BreakerBackoff = time.Minute // keep the breaker open for the sweep
	cl := newChaosCluster(t, opts)

	dep := &Deployment{}
	for i := 1; i <= 6; i++ {
		node := fmt.Sprintf("db%d", (i-1)%3+1)
		name := fmt.Sprintf("xdb9_t%d", i)
		if err := cl.engines[node].Exec("CREATE VIEW " + name + " AS SELECT 1 AS one"); err != nil {
			t.Fatal(err)
		}
		dep.cleanup = append(dep.cleanup, cleanupItem{node: node, sql: "DROP VIEW IF EXISTS " + name})
	}
	cl.sys.health.tripNode("db2", errors.New("injected outage"))

	err := cl.sys.cleanupDeployment(context.Background(), dep)
	if err == nil {
		t.Fatal("cleanup reported success with db2's breaker open")
	}
	msg := err.Error()
	i5 := strings.Index(msg, "DROP VIEW IF EXISTS xdb9_t5 on db2")
	i2 := strings.Index(msg, "DROP VIEW IF EXISTS xdb9_t2 on db2")
	if i5 < 0 || i2 < 0 || i5 > i2 {
		t.Errorf("error must name db2's drops in reverse creation order: %v", msg)
	}
	if strings.Contains(msg, "db1") || strings.Contains(msg, "db3") {
		t.Errorf("error names a healthy node: %v", msg)
	}
	cl.assertNoXDBObjects(t, "db2")
	if got := cl.engines["db2"].Catalog().ViewNames(); len(got) != 2 {
		t.Errorf("db2 views = %v, want its two undropped views", got)
	}

	want := []cleanupItem{
		{node: "db2", sql: "DROP VIEW IF EXISTS xdb9_t2"},
		{node: "db2", sql: "DROP VIEW IF EXISTS xdb9_t5"},
	}
	dep.mu.Lock()
	retained := append([]cleanupItem(nil), dep.cleanup...)
	dep.mu.Unlock()
	if fmt.Sprint(retained) != fmt.Sprint(want) {
		t.Errorf("retained items = %v, want %v", retained, want)
	}
	orphans := cl.sys.Orphans()
	if len(orphans) != 2 {
		t.Fatalf("orphans = %v, want db2's two drops", orphans)
	}
	for _, o := range orphans {
		if o.Node != "db2" {
			t.Errorf("orphan parked on %s, want db2", o.Node)
		}
	}
}

// TestBreakdownCleanupAccounted checks that the cleanup sweep is timed in
// Breakdown.Cleanup and reported everywhere the phases are: Work(),
// EXPLAIN ANALYZE and the slow-query record.
func TestBreakdownCleanupAccounted(t *testing.T) {
	var logged bytes.Buffer
	opts := traceOptions()
	opts.SlowQueryThreshold = time.Nanosecond
	opts.SlowQueryLogger = slog.New(slog.NewJSONHandler(&logged, nil))
	cl := newChaosCluster(t, opts)
	res, err := cl.sys.Query(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	bd := res.Breakdown
	if bd.Cleanup <= 0 {
		t.Fatalf("Breakdown.Cleanup = %v after a query that dropped its objects", bd.Cleanup)
	}
	if sp := res.Trace.Find("cleanup"); sp == nil || sp.Duration() > bd.Cleanup {
		t.Errorf("cleanup span does not fit in Breakdown.Cleanup %v", bd.Cleanup)
	}
	if got, want := bd.Work(), bd.Prep+bd.Lopt+bd.Ann+bd.Deleg+bd.Exec+bd.Cleanup; got != want {
		t.Errorf("Work() = %v, want the phase sum with cleanup %v", got, want)
	}
	if a := res.Analyze(); !strings.Contains(a, "cleanup "+bd.Cleanup.Round(time.Microsecond).String()) {
		t.Errorf("EXPLAIN ANALYZE does not report the cleanup phase:\n%s", a)
	}
	if !strings.Contains(logged.String(), `"cleanup":`) {
		t.Errorf("slow-query record has no cleanup attribute: %s", logged.String())
	}
}
