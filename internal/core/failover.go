package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/obs"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

// Mid-query failover. The paper fixes the delegation plan at annotation
// time, so a site dying *after* deployment turns the whole query into an
// error even when most of the DAG already ran — the breakers and degraded
// planning of health.go only protect the *next* query. This file makes the
// current query survivable:
//
//	fault  ──► classify (node-attributable? which node?)
//	       ──► trip the node's breaker (invalidates its cached plans/costs)
//	       ──► re-plan: the degraded planner excludes the dead site
//	       ──► re-deploy: fragments whose structural signature matches a
//	           surviving object are adopted, not redeployed — in particular
//	           explicit-movement foreign tables that already materialized
//	           (completed stages) survive their producer's death
//	       ──► resume execution, up to Options.MaxReplans attempts with
//	           jittered exponential backoff
//	       ──► last resort (Options.MediatorFallback): ship the per-scan
//	           fragments still reachable to the middleware and finish on
//	           the embedded engine, mediator-style (Fig. 4a)
//
// Only node-attributable faults enter the loop: injected crashes and
// partitions (netsim.FaultError), open breakers (NodeUnavailableError),
// and request deadlines attributed to a node. A caller cancellation or a
// SQL error fails the query exactly as before.

// DefaultReplanBackoff is the base jittered wait between failover
// attempts when Options.ReplanBackoff is unset.
const DefaultReplanBackoff = 25 * time.Millisecond

// nodeFaultError attributes an error to the node whose RPC produced it.
// It is transparent: the message is the wrapped error's, unchanged, and
// errors.Is/As see through it.
type nodeFaultError struct {
	node string
	err  error
}

func (e *nodeFaultError) Error() string { return e.err.Error() }
func (e *nodeFaultError) Unwrap() error { return e.err }

// classifyFault decides whether an error is a node-attributable mid-query
// fault worth a failover attempt, and which node to exclude from the
// replan. Not retriable: nil, caller cancellation, an already-dead query
// context, and anything that cannot be pinned on a node (SQL errors,
// planner errors).
func (s *System) classifyFault(ctx context.Context, err error) (node, cause string, retriable bool) {
	if err == nil || errors.Is(err, context.Canceled) || ctx.Err() != nil {
		return "", "", false
	}
	var nue *NodeUnavailableError
	if errors.As(err, &nue) {
		return nue.Node, "breaker", true
	}
	var fe *netsim.FaultError
	if errors.As(err, &fe) {
		if n := s.faultNode(fe); n != "" {
			return n, "fault", true
		}
		return "", "", false
	}
	var nfe *nodeFaultError
	attributed := ""
	if errors.As(err, &nfe) {
		attributed = nfe.node
	}
	if isTimeout(err) {
		// A deadline is how a wedged-but-alive node manifests; it is only
		// actionable when the failing RPC was attributed to one.
		if attributed == "" {
			return "", "", false
		}
		return attributed, "slow", true
	}
	// A fault deep in the in-situ cascade crosses an engine's error frame
	// and arrives flattened to text ("remote db2: ... netsim: node db3
	// crashed"): recover the crashed node by name. Flattened partitions
	// name sites, not nodes, and stay final.
	if msg := err.Error(); strings.Contains(msg, "netsim:") {
		for n := range s.connectors {
			if strings.Contains(msg, "node "+n+" crashed") {
				return n, "fault", true
			}
		}
	}
	return "", "", false
}

// faultNode picks which registered node a typed transport fault indicts.
func (s *System) faultNode(fe *netsim.FaultError) string {
	_, fromOK := s.connectors[fe.From]
	_, toOK := s.connectors[fe.To]
	switch {
	case fromOK && toOK:
		if strings.Contains(fe.Reason, "node "+fe.From+" crashed") {
			return fe.From
		}
		return fe.To
	case toOK:
		return fe.To
	case fromOK:
		// Inbound result frames are accounted as producer->consumer, so a
		// severed execution stream names the root DBMS as From.
		return fe.From
	}
	return ""
}

// isTimeout reports whether the error is a deadline expiry.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// reuseIndex collects the failed attempts' deployed objects that are still
// usable: every node the object depends on at execution time must be
// healthy and not excluded by this query's failover history.
func (s *System) reuseIndex(prior *Deployment, retired []*Deployment, excluded map[string]bool) map[string]deployedObj {
	if prior == nil && len(retired) == 0 {
		return nil
	}
	out := map[string]deployedObj{}
	add := func(d *Deployment) {
		if d == nil {
			return
		}
		for sig, obj := range d.objectIndex() {
			usable := true
			for _, n := range obj.nodes {
				if excluded[n] || !s.health.healthy(n) {
					usable = false
					break
				}
			}
			if usable {
				out[sig] = obj
			}
		}
	}
	for _, d := range retired {
		add(d)
	}
	add(prior) // newest last: wins signature collisions
	return out
}

// replanWait sleeps the jittered exponential backoff before failover
// attempt n (0-based count of replans already spent), honouring the query
// context.
func (s *System) replanWait(ctx context.Context, attempt int) error {
	base := s.opts.ReplanBackoff
	if base <= 0 {
		base = DefaultReplanBackoff
	}
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	d := base << shift
	// Jitter into [d/2, 3d/2): concurrent failed-over queries must not
	// replan in lockstep.
	d = d/2 + time.Duration(rand.Int63n(int64(d)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// runWithFailover is QueryContext's plan→deploy→execute core, wrapped in
// the recovery loop shared by both halves of adaptive re-optimization:
// node-attributable faults re-plan around the dead site (bounded by
// Options.MaxReplans), and cardinality feedback from materialization
// barriers re-plans the unexecuted suffix with observed row counts
// substituted (bounded by Options.MaxReopts; see reopt.go). bd
// accumulates across attempts (phase times add up; Replans counts the
// fault attempts, Reopts the cardinality ones). planOut exposes the last
// plan for the slow-query log. inf is the query's in-flight registry
// entry (nil-safe): each attempt attaches its qid so the wire flow sink
// can attribute the attempt's streams, and phase transitions keep the
// live inspector honest.
func (s *System) runWithFailover(ctx context.Context, qspan *obs.Span, sql, cacheKey string, bd *Breakdown, planOut **Plan, inf *inflightEntry) (*Result, error) {
	excluded := map[string]bool{}
	var (
		plan *Plan
		// prior is the newest retired attempt's deployment (failed, or
		// superseded by a re-optimization), retired the older ones — this
		// query owns their drops, and until then their surviving objects
		// feed the reuse index.
		prior   *Deployment
		retired []*Deployment
		// feedback accumulates observed cardinalities by logical
		// signature across attempts; armCause names what armed the
		// current replan attempt ("fault" or "reopt") so a failed attempt
		// is attributed to the right metric.
		feedback map[string]float64
		armCause string
		// reoptArmed marks an attempt whose replan was triggered by
		// cardinality feedback; preSig is the superseded plan's structural
		// signature (for the improved/unchanged verdict) and fbPlan/fbDep
		// the intact deployment to fall back to if the re-optimization
		// itself cannot produce a plan.
		reoptArmed bool
		preSig     string
		fbPlan     *Plan
		fbDep      *Deployment
	)

	// cleanupOwned drops the failed attempts' deployments, newest first —
	// a later attempt's objects may reference an earlier attempt's.
	cleanupOwned := func() error {
		defer func(start time.Time) { bd.Cleanup += time.Since(start) }(time.Now())
		var errs []error
		if prior != nil {
			if cerr := s.cleanupDeployment(ctx, prior); cerr != nil {
				errs = append(errs, cerr)
			}
			prior = nil
		}
		for i := len(retired) - 1; i >= 0; i-- {
			if cerr := s.cleanupDeployment(ctx, retired[i]); cerr != nil {
				errs = append(errs, cerr)
			}
		}
		retired = nil
		return errors.Join(errs...)
	}

	// exit ends the query after in-situ recovery is exhausted: the
	// mediator fallback when it is allowed and the failure was a fault
	// (never for SQL errors or cancellations), else the error — carrying
	// the cleanup outcome either way.
	exit := func(failErr error, fallbackOK bool) (*Result, error) {
		if fallbackOK && s.opts.MediatorFallback {
			eres, ferr := s.mediatorFallback(ctx, qspan, sql)
			if ferr == nil {
				bd.FailedOver = true
				bd.MediatorFallback = true
				met.replans.With("fallback").Inc()
				met.failovers.Inc()
				cleanupErr := cleanupOwned()
				return &Result{
					Result:     eres,
					Plan:       plan,
					Breakdown:  *bd,
					RootNode:   s.node,
					CleanupErr: cleanupErr,
					Trace:      qspan,
					Flows:      inf.flowsSnapshot(),
				}, nil
			}
			failErr = fmt.Errorf("%w (mediator fallback: %v)", failErr, ferr)
		}
		if cerr := cleanupOwned(); cerr != nil {
			return nil, fmt.Errorf("%w (cleanup after failure: %v)", failErr, cerr)
		}
		return nil, failErr
	}

	// retire parks the current attempt's deployment (poisoning its cached
	// entry, if any) so its surviving objects seed the next attempt's
	// reuse index. A cached entry's deployment joins the reuse set only
	// when this query held the last lease — otherwise another query's
	// release owns the drop, and reuse would race it.
	retire := func(ent *planEntry, dep *Deployment) {
		if ent != nil {
			if s.plans.invalidate(ent) {
				if prior != nil {
					retired = append(retired, prior)
				}
				prior = dep
			}
			return
		}
		if dep != nil {
			if prior != nil {
				retired = append(retired, prior)
			}
			prior = dep
		}
	}

	for attempt := 0; ; attempt++ {
		// --- Plan. Only the first attempt may hit the plan cache; a
		// replan always runs the pipeline so degraded planning can
		// exclude a tripped node and re-annotation can consume the
		// cardinality feedback.
		inf.setPhase("planning", bd, attempt)
		var ent *planEntry
		var dep *Deployment
		hit := false
		usedFallback := false
		if attempt == 0 && cacheKey != "" {
			ent = s.plans.acquire(cacheKey)
			hit = ent != nil
		}
		if ent != nil {
			plan, dep = ent.plan, ent.dep
			*planOut = plan
			bd.PlanCacheHit = true
			qspan.Set("plan_cache", "hit")
			// A warm deployment keeps its original qid: route its streams
			// here. Concurrent queries sharing the deployment race for the
			// route; the latest registrant wins the overlap.
			inf.attach(dep.QID, plan)
		} else {
			p, perr := s.plan(ctx, sql, bd, feedback)
			if perr != nil {
				if attempt == 0 {
					return nil, perr
				}
				if reoptArmed && fbPlan != nil {
					// The re-optimization itself could not produce a plan
					// (a node died between the barrier and the replan).
					// The superseded deployment is intact — execute it
					// instead of failing a query the cluster can still
					// answer; a fault there falls through to the fault
					// loop as usual.
					met.reopts.With("failed").Inc()
					reoptArmed = false
					usedFallback = true
					plan, dep = fbPlan, fbDep
					*planOut = plan
					fsp := qspan.Child("reopt_fallback")
					fsp.SetErr(perr)
					fsp.Finish()
				} else {
					// The replan itself failed — typically no healthy
					// placement survives. In-situ recovery is exhausted.
					met.replans.With("failed").Inc()
					return exit(perr, true)
				}
			} else {
				plan = p
				*planOut = plan
				if reoptArmed {
					// The verdict: did the corrected costing actually
					// change the plan (placement or movement), or merely
					// confirm it?
					if taskSig(plan.Root) != preSig {
						met.reopts.With("improved").Inc()
					} else {
						met.reopts.With("unchanged").Inc()
					}
					reoptArmed = false
				}

				// --- Delegation: deploy the plan as DDL, adopting
				// surviving objects from prior attempts — in particular
				// every already materialized stage.
				inf.setPhase("delegating", bd, attempt)
				start := time.Now()
				dctx, delegSpan := obs.Start(ctx, "delegate")
				qid := nextQID()
				inf.attach(qid, plan)
				var derr error
				dep, derr = s.deployReusing(dctx, plan, qid, s.reuseIndex(prior, retired, excluded))
				delegSpan.SetErr(derr)
				if dep != nil {
					delegSpan.Set("ddls", strconv.Itoa(dep.DDLCount))
				}
				delegSpan.Finish()
				bd.Deleg += time.Since(start)
				if dep != nil {
					bd.DDLCount += dep.DDLCount
				}
				if derr != nil {
					if retry, res, rerr := s.settleFailure(ctx, qspan, bd, derr, false, attempt, armCause, excluded, &ent, &dep, &prior, &retired, exit); !retry {
						return res, rerr
					}
					armCause = "fault"
					continue
				}
				// Cache only clean first-attempt deployments: a failover
				// deployment may lean on objects owned by retired
				// attempts, which must drop when this query ends.
				if attempt == 0 && cacheKey != "" {
					var evicted []*planEntry
					ent, evicted = s.plans.put(cacheKey, plan, dep)
					for _, ev := range evicted {
						s.dropDeploymentAsync(ev.dep)
					}
				}
			}
		}

		// --- Execution.
		if s.hookBeforeAttempt != nil {
			s.hookBeforeAttempt(attempt)
		}

		// --- Cardinality feedback (Options.MaxReopts): force each
		// materialized stage with a COUNT(*) barrier and read back the
		// actual row count before running the XDB query. A divergence
		// beyond the threshold retires this deployment and re-plans the
		// unexecuted suffix with the actual substituted; the barrier's
		// stored rows are adopted by the next attempt, so the probe's
		// work is never wasted. Warm plan-cache hits skip the barriers —
		// their estimates were vetted when the deployment was first
		// built — and a fallback execution skips re-probing what it
		// already observed.
		if s.opts.MaxReopts > 0 && !hit && !usedFallback {
			if feedback == nil {
				feedback = map[string]float64{}
			}
			inf.setPhase("observing", bd, attempt)
			ostart := time.Now()
			trigger, actual, oerr := s.observeMaterialized(ctx, qspan, plan, feedback)
			bd.Exec += time.Since(ostart)
			if oerr != nil {
				// The barrier probe hit a node fault: settle it exactly
				// like an execution failure (single breaker feed).
				if retry, res, rerr := s.settleFailure(ctx, qspan, bd, oerr, true, attempt, armCause, excluded, &ent, &dep, &prior, &retired, exit); !retry {
					return res, rerr
				}
				armCause = "fault"
				continue
			}
			if trigger != nil {
				bd.EstimateErrors++
				if bd.Reopts < s.opts.MaxReopts {
					bd.Reopts++
					retire(ent, dep)
					ent = nil
					reoptArmed = true
					preSig = taskSig(plan.Root)
					fbPlan, fbDep = plan, dep
					armCause = "reopt"
					rsp := qspan.Child("reopt")
					rsp.Set("cause", "cardinality")
					rsp.Set("node", trigger.To.Node)
					rsp.Set("rel", trigger.Placeholder.Rel)
					rsp.Set("est", strconv.FormatFloat(trigger.EstRows, 'f', 0, 64))
					rsp.Set("actual", strconv.FormatFloat(actual, 'f', 0, 64))
					rsp.Set("attempt", strconv.Itoa(attempt+1))
					rsp.Finish()
					// No exclusion, no breaker trip, no backoff: the
					// cluster is healthy — only the estimate was wrong.
					continue
				}
				// Budget spent: run the current plan to completion.
			}
		}

		inf.setPhase("executing", bd, attempt)
		start := time.Now()
		eres, execErr := s.executeDeployment(ctx, qspan, dep)
		bd.Exec += time.Since(start)

		if execErr == nil {
			inf.setPhase("finishing", bd, attempt)
			// Post-hoc cardinality feedback from the implicit edges this
			// execution pulled over the wire — the flow-accounting
			// counterpart of the explicit-movement barriers (reopt.go).
			s.feedImplicitFlows(inf, plan, dep.QID)
			cstart := time.Now()
			var cleanupErr error
			if ent != nil {
				// Cached entry: return the lease; the last lease out of a
				// poisoned entry drops it.
				if s.plans.release(ent) {
					cleanupErr = s.cleanupDeployment(ctx, dep)
				}
			} else if !usedFallback {
				cleanupErr = s.cleanupDeployment(ctx, dep)
			}
			// usedFallback: dep was already retired into the owned chain
			// (cleanupOwned drops it below), or is still leased by another
			// query whose release owns the drop.
			bd.Cleanup += time.Since(cstart)
			if cerr := cleanupOwned(); cerr != nil {
				cleanupErr = errors.Join(cleanupErr, cerr)
			}
			if bd.Replans > 0 {
				bd.FailedOver = true
				met.replans.With("recovered").Inc()
				met.failovers.Inc()
			}
			return &Result{
				Result:     eres,
				Plan:       plan,
				Breakdown:  *bd,
				XDBQuery:   dep.XDBQuery,
				RootNode:   dep.Node,
				CleanupErr: cleanupErr,
				Trace:      qspan,
				QID:        dep.QID,
				Flows:      inf.flowsSnapshot(),
			}, nil
		}

		if retry, res, rerr := s.settleFailure(ctx, qspan, bd, execErr, true, attempt, armCause, excluded, &ent, &dep, &prior, &retired, exit); !retry {
			return res, rerr
		}
		armCause = "fault"
	}
}

// settleFailure handles one attempt's deploy or execution failure: feed
// the breaker (execution phase only — deploy RPC sites already record),
// retire the attempt's deployment while keeping its objects reusable, and
// either arm the next attempt (retry=true) or finish through exit.
// armCause names what armed the failing attempt — a fault-armed replan
// that fails again counts on the replan metric, while a reopt-armed
// attempt's outcome was already accounted when its plan was produced.
func (s *System) settleFailure(
	ctx context.Context, qspan *obs.Span, bd *Breakdown,
	failErr error, execPhase bool, attempt int, armCause string, excluded map[string]bool,
	ent **planEntry, dep **Deployment, prior **Deployment, retired *[]*Deployment,
	exit func(error, bool) (*Result, error),
) (retry bool, res *Result, err error) {
	node, cause, retriable := s.classifyFault(ctx, failErr)
	if execPhase && node != "" {
		// The execution stream's single breaker feed; deploy-phase RPCs
		// fed it at their own call sites.
		s.health.record(node, failErr)
	}
	if attempt > 0 && armCause != "reopt" {
		met.replans.With("failed").Inc()
	}
	// Retire the attempt's deployment without dropping it: its surviving
	// objects (materialized stages above all) seed the next attempt's
	// reuse index. A cached entry is poisoned; the deployment joins the
	// reuse set only if this query held the last lease (otherwise another
	// query's release owns the drop, and reuse would race it).
	if *ent != nil {
		if s.plans.invalidate(*ent) {
			if *prior != nil {
				*retired = append(*retired, *prior)
			}
			*prior = *dep
		}
		*ent = nil
	} else if *dep != nil {
		if *prior != nil {
			*retired = append(*retired, *prior)
		}
		*prior = *dep
	}
	// The fault budget is MaxReplans fault-armed attempts (bd.Replans),
	// not loop iterations — re-optimizations share the loop but must not
	// consume the budget that keeps a faulty cluster recoverable.
	if !retriable || node == "" || bd.Replans >= s.opts.MaxReplans {
		res, err = exit(failErr, retriable && node != "")
		return false, res, err
	}

	// Arm the next attempt: exclude the node, force its breaker open (the
	// transition hook drops its cached plans and consulted costs), and
	// back off with jitter.
	bd.Replans++
	excluded[node] = true
	s.health.tripNode(node, failErr)
	rsp := qspan.Child("replan")
	rsp.Set("cause", cause)
	rsp.Set("excluded", node)
	rsp.Set("attempt", strconv.Itoa(attempt+1))
	rsp.SetErr(failErr)
	rsp.Finish()
	if werr := s.replanWait(ctx, bd.Replans-1); werr != nil {
		res, err = exit(failErr, false)
		return false, res, err
	}
	return true, nil, nil
}

// mediatorFallback finishes the query locally after in-situ placement is
// exhausted: every base relation still reachable ships its filtered,
// pruned fragment to the middleware, and the embedded engine performs all
// cross-database operations — the Fig. 4a architecture as a last resort.
// It trades the paper's in-situ efficiency for availability and is gated
// behind Options.MediatorFallback.
func (s *System) mediatorFallback(ctx context.Context, qspan *obs.Span, sql string) (*engine.Result, error) {
	sp := qspan.Child("mediator_fallback")
	defer sp.Finish()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		sp.SetErr(err)
		return nil, err
	}
	// The catalog was populated by the failed attempt's preparation
	// phase; re-analyze to recover the scans and the residual conjuncts.
	a, err := Analyze(s.catalog, sel)
	if err != nil {
		sp.SetErr(err)
		return nil, err
	}
	frags := make([]LocalFragment, len(a.Scans))
	err = fanOutFirstErr(ctx, len(a.Scans), func(fctx context.Context, i int) error {
		sc := a.Scans[i]
		conn, ok := s.connectors[sc.Node]
		if !ok {
			return &NoConnectorError{Node: sc.Node}
		}
		if aerr := s.health.allow(sc.Node); aerr != nil {
			return aerr
		}
		fsql, cols := renderScanFragment(sc)
		rctx, cancel := s.reqCtx(fctx)
		fres, qerr := conn.Query(rctx, fsql)
		cancel()
		s.health.record(sc.Node, qerr)
		if qerr != nil {
			return &nodeFaultError{node: sc.Node, err: qerr}
		}
		frags[i] = LocalFragment{Cols: cols, Schema: fres.Schema, Rows: fres.Rows}
		return nil
	})
	if err != nil {
		sp.SetErr(err)
		return nil, err
	}
	// Per-scan fragments have no intra-fragment joins: every join
	// conjunct runs locally.
	eng := engine.New(engine.Config{Name: s.node, Vendor: engine.VendorTest})
	eres, err := ExecuteLocal(eng, a.Canon, frags, a.JoinConjs)
	sp.SetErr(err)
	if eres != nil {
		sp.AddRows(int64(len(eres.Rows)))
	}
	return eres, err
}

// renderScanFragment renders one scan's pushed-down subquery — pruned
// columns under mangled names, pushed-down filter — and returns the SQL
// with the exported global column identities.
func renderScanFragment(sc *Scan) (string, []string) {
	sel := &sqlparser.Select{Limit: -1}
	sel.From = append(sel.From, sqlparser.TableRef{Name: sc.Table, Alias: sc.Alias})
	cols := sc.OutCols()
	for _, gid := range cols {
		alias, name, _ := strings.Cut(gid, ".")
		sel.Projections = append(sel.Projections, sqlparser.SelectExpr{
			Expr:  &sqlparser.ColumnRef{Table: alias, Name: name},
			Alias: MangleCol(gid),
		})
	}
	sel.Where = sc.Filter
	return sel.String(), cols
}

// LocalFragment is one fetched fragment result for ExecuteLocal: the
// global column identities it exports (stored under their MangleCol
// names), the fetched schema, and the rows.
type LocalFragment struct {
	Cols   []string
	Schema *sqltypes.Schema
	Rows   []sqltypes.Row
}

// ExecuteLocal loads fetched fragments into the given engine and runs the
// residual cross-database query — the cross-fragment conjuncts plus the
// canonicalized statement's final block — locally. It is the shared core
// of the mediator baseline (internal/mediator) and the middleware's
// last-resort mediator fallback.
func ExecuteLocal(eng *engine.Engine, canon *sqlparser.Select, frags []LocalFragment, cross []sqlparser.Expr) (*engine.Result, error) {
	// Resolution: global column identity -> (fragment table, mangled
	// name).
	resolve := map[string][2]string{}
	for i, f := range frags {
		name := fmt.Sprintf("frag%d", i)
		schema := &sqltypes.Schema{}
		for _, gid := range f.Cols {
			idx, err := f.Schema.Resolve("", MangleCol(gid))
			if err != nil {
				return nil, err
			}
			schema.Columns = append(schema.Columns, sqltypes.Column{
				Name: MangleCol(gid), Type: f.Schema.Columns[idx].Type,
			})
			resolve[strings.ToLower(gid)] = [2]string{name, MangleCol(gid)}
		}
		if err := eng.LoadTable(name, schema, f.Rows); err != nil {
			return nil, err
		}
	}

	rewrite := func(e sqlparser.Expr) (sqlparser.Expr, error) {
		if e == nil {
			return nil, nil
		}
		out := sqlparser.CloneExpr(e)
		var err error
		sqlparser.WalkExpr(out, func(x sqlparser.Expr) {
			cr, ok := x.(*sqlparser.ColumnRef)
			if !ok || cr.Table == "" || err != nil {
				return
			}
			loc, ok := resolve[strings.ToLower(cr.Table+"."+cr.Name)]
			if !ok {
				err = fmt.Errorf("core: local execution: column %s.%s not in any fragment", cr.Table, cr.Name)
				return
			}
			cr.Table, cr.Name = loc[0], loc[1]
		})
		return out, err
	}

	final := &sqlparser.Select{Limit: canon.Limit, Distinct: canon.Distinct}
	for i := range frags {
		final.From = append(final.From, sqlparser.TableRef{Name: fmt.Sprintf("frag%d", i)})
	}
	var conjs []sqlparser.Expr
	for _, c := range cross {
		rc, err := rewrite(c)
		if err != nil {
			return nil, err
		}
		conjs = append(conjs, rc)
	}
	final.Where = sqlparser.JoinConjuncts(conjs)
	projOut := map[string]string{}
	for _, p := range canon.Projections {
		re, err := rewrite(p.Expr)
		if err != nil {
			return nil, err
		}
		alias := p.Alias
		if alias == "" {
			if cr, ok := p.Expr.(*sqlparser.ColumnRef); ok {
				alias = cr.Name
			}
		}
		out := alias
		if out == "" {
			out = re.String()
		}
		if _, dup := projOut[re.String()]; !dup {
			projOut[re.String()] = out
		}
		final.Projections = append(final.Projections, sqlparser.SelectExpr{Expr: re, Alias: alias})
	}
	for _, g := range canon.GroupBy {
		rg, err := rewrite(g)
		if err != nil {
			return nil, err
		}
		final.GroupBy = append(final.GroupBy, rg)
	}
	if canon.Having != nil {
		rh, err := rewrite(canon.Having)
		if err != nil {
			return nil, err
		}
		final.Having = rh
	}
	for _, o := range canon.OrderBy {
		ro, err := rewrite(o.Expr)
		if err != nil {
			return nil, err
		}
		// ORDER BY resolves against the projected output.
		if out, ok := projOut[ro.String()]; ok {
			ro = &sqlparser.ColumnRef{Name: out}
		}
		final.OrderBy = append(final.OrderBy, sqlparser.OrderItem{Expr: ro, Desc: o.Desc})
	}

	schema, it, err := eng.QuerySelect(final)
	if err != nil {
		return nil, err
	}
	rows, err := engine.Drain(it)
	if err != nil {
		return nil, err
	}
	return &engine.Result{Schema: schema, Rows: rows}, nil
}
