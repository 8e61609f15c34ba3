package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"xdb/internal/core"
	"xdb/internal/sqltypes"
	"xdb/internal/tpch"
)

// workload is one fixed configuration of the cluster plus the shape of
// the query stream driven against it. Load is closed loop: each client
// sends its next query only after the previous answer arrived.
type workload struct {
	name string
	td   string
	sf   float64
	// timeScale divides every network shaping delay; 0 keeps the LAN
	// link's per-frame latency and bandwidth as they are.
	timeScale float64
	clients   int
	opts      core.Options
	// qps is the rate the workload is expected to sustain. It only sizes
	// the fixed stream so that a run lasts about --seconds; the stream
	// length never depends on how fast this particular run goes.
	qps float64
	// refreshEvery > 0 runs a refresh batch after every refreshEvery
	// queries; refreshOrders is how many orders a batch deletes and how
	// many it inserts.
	refreshEvery  int
	refreshOrders int
}

// Long enough that no cache entry or warm deployment ages out during a
// run, so the stream alone decides what is cached.
const cacheTTL = time.Hour

var workloads = []*workload{
	{
		// The paper's configuration on shaped LAN links: every query pays
		// metadata, consultation, DDL, shipping and cleanup, so the
		// planner, the control-plane RPCs and per-frame latency dominate.
		name: "adhoc-lan",
		td:   "TD1", sf: 0.002, clients: 1, qps: 7.5,
	},
	{
		// Plan and consult caches warm and link shaping scaled away:
		// planning and DDL are bypassed, so engine execution, the row
		// codec and GC dominate. The bypass workload for planner changes.
		name: "dashboard-unshaped",
		td:   "TD1", sf: 0.002, timeScale: 1e6, clients: 2, qps: 140,
		opts: core.Options{PlanCacheSize: 16, DeploymentTTL: cacheTTL, ConsultCacheTTL: cacheTTL},
	},
	{
		// Writes beside reads under every adaptive feature, TD3 so that
		// each table's node is its own invalidation scope: the caches,
		// metadata refresh and the correction paths must invalidate, not
		// only hit. Answers go stale here today (see METRICS.md).
		name: "refresh-lan",
		td:   "TD3", sf: 0.002, clients: 1, qps: 8,
		opts: core.Options{
			PlanCacheSize: 16, DeploymentTTL: cacheTTL, ConsultCacheTTL: cacheTTL,
			SampleLimit: 256, MaxReopts: 2,
		},
		refreshEvery: 12, refreshOrders: 30,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// streams returns each client's fixed query sequence for a run of the
// given length: whole rounds of the six TPC-H queries, each round in an
// order drawn from the seed.
func (w *workload) streams(seed int64, seconds int) [][]string {
	rounds := int(math.Ceil(float64(seconds) * w.qps / float64(len(tpch.QueryNames)*w.clients)))
	rounds = max(rounds, 2)
	rng := rand.New(rand.NewSource(seed))
	out := make([][]string, w.clients)
	for c := range out {
		for r := 0; r < rounds; r++ {
			for _, i := range rng.Perm(len(tpch.QueryNames)) {
				out[c] = append(out[c], tpch.QueryNames[i])
			}
		}
	}
	return out
}

// refresher produces TPC-H-refresh-style batches: each deletes a seeded
// choice of existing orders with their lineitems and inserts as many new
// orders, with fresh keys and generated lineitems.
type refresher struct {
	sf       float64
	seed     int64
	n        int
	rng      *rand.Rand
	nextKey  int64
	orders   []sqltypes.Row
	lineitem []sqltypes.Row
}

func newRefresher(sf float64, seed int64, orders, lineitem []sqltypes.Row) *refresher {
	next := int64(0)
	for _, o := range orders {
		next = max(next, o[0].I)
	}
	return &refresher{
		sf: sf, seed: seed, rng: rand.New(rand.NewSource(seed ^ 0x5eed)),
		nextKey: next + 1, orders: orders, lineitem: lineitem,
	}
}

// batch applies the next refresh to the refresher's tables and returns
// the new orders and lineitem contents. The returned slices are fresh;
// the previous ones are left untouched for whoever still holds them.
func (f *refresher) batch(count int) (orders, lineitem []sqltypes.Row) {
	f.n++
	gone := map[int64]bool{}
	for len(gone) < count {
		gone[f.orders[f.rng.Intn(len(f.orders))][0].I] = true
	}
	gen := tpch.NewGenerator(f.sf, uint64(f.seed)*1000003+uint64(f.n))
	fresh := gen.GenOrders()[:count]
	for _, o := range fresh {
		o[0] = sqltypes.NewInt(f.nextKey)
		f.nextKey++
	}
	for _, o := range f.orders {
		if !gone[o[0].I] {
			orders = append(orders, o)
		}
	}
	for _, l := range f.lineitem {
		if !gone[l[0].I] {
			lineitem = append(lineitem, l)
		}
	}
	orders = append(orders, fresh...)
	lineitem = append(lineitem, gen.GenLineitem(fresh)...)
	f.orders, f.lineitem = orders, lineitem
	return orders, lineitem
}
