// Quickstart: two autonomous DBMSes, one cross-database query.
//
// A "users" table lives on db1 and an "orders" table on db2 — two separate
// engines served over TCP. XDB rewrites the join into a delegation plan,
// deploys it as views and SQL/MED foreign tables, and the engines execute
// it between themselves; the middleware never touches a data row.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"xdb"
)

func main() {
	cluster, err := xdb.NewCluster([]string{"db1", "db2"}, xdb.ClusterConfig{
		DefaultVendor: xdb.VendorPostgres,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	users := xdb.NewSchema(
		xdb.Column{Name: "id", Type: xdb.TypeInt},
		xdb.Column{Name: "name", Type: xdb.TypeString},
		xdb.Column{Name: "country", Type: xdb.TypeString},
	)
	userRows := []xdb.Row{
		{xdb.NewInt(1), xdb.NewString("ada"), xdb.NewString("UK")},
		{xdb.NewInt(2), xdb.NewString("grace"), xdb.NewString("US")},
		{xdb.NewInt(3), xdb.NewString("edsger"), xdb.NewString("NL")},
	}
	if err := cluster.Load("db1", "users", users, userRows); err != nil {
		log.Fatal(err)
	}

	orders := xdb.NewSchema(
		xdb.Column{Name: "id", Type: xdb.TypeInt},
		xdb.Column{Name: "user_id", Type: xdb.TypeInt},
		xdb.Column{Name: "amount", Type: xdb.TypeFloat},
	)
	var orderRows []xdb.Row
	for i := 0; i < 100; i++ {
		orderRows = append(orderRows, xdb.Row{
			xdb.NewInt(int64(i)),
			xdb.NewInt(int64(1 + i%3)),
			xdb.NewFloat(float64(10 + i)),
		})
	}
	if err := cluster.Load("db2", "orders", orders, orderRows); err != nil {
		log.Fatal(err)
	}

	const query = `
		SELECT u.name, COUNT(*) AS orders, SUM(o.amount) AS total
		FROM users u, orders o
		WHERE u.id = o.user_id AND u.country <> 'NL'
		GROUP BY u.name
		ORDER BY total DESC`

	res, err := cluster.Query(query)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Delegation plan:")
	fmt.Print(res.Plan)
	fmt.Printf("\nXDB query (executed by the client on %s): %s\n\n", res.RootNode, res.XDBQuery)
	fmt.Println(xdb.FormatResult(res.Result))
	fmt.Printf("phases: prep=%v lopt=%v ann=%v deleg=%v exec=%v cleanup=%v (consult rounds: %d)\n",
		res.Breakdown.Prep, res.Breakdown.Lopt, res.Breakdown.Ann,
		res.Breakdown.Deleg, res.Breakdown.Exec, res.Breakdown.Cleanup,
		res.Breakdown.ConsultRounds)
}
