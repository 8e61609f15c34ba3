package engine

import (
	"slices"
	"testing"

	"xdb/internal/sqltypes"
)

// statsCountingRemote is a fakeRemote that counts statistics requests.
type statsCountingRemote struct {
	fakeRemote
	statsCalls int
}

func (f *statsCountingRemote) StatsRemote(srv *Server, table string) (*TableStats, error) {
	f.statsCalls++
	return f.fakeRemote.StatsRemote(srv, table)
}

func columnNames(s *sqltypes.Schema) []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// TestSelectStarFollowsFromOrder checks that SELECT * lists columns in FROM
// order whatever order the planner joins in. The larger relation b is the
// hash join's probe side, so the joined schema starts with b's columns in
// both FROM orders.
func TestSelectStarFollowsFromOrder(t *testing.T) {
	e := New(Config{Name: "db1", Vendor: VendorTest})
	a := sqltypes.NewSchema(
		sqltypes.Column{Name: "x", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "ax", Type: sqltypes.TypeString},
	)
	b := sqltypes.NewSchema(
		sqltypes.Column{Name: "y", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "by", Type: sqltypes.TypeFloat},
	)
	var arows, brows []sqltypes.Row
	for i := 0; i < 3; i++ {
		arows = append(arows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("a")})
	}
	for i := 0; i < 10; i++ {
		brows = append(brows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i) / 2)})
	}
	if err := e.LoadTable("a", a, arows); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadTable("b", b, brows); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		sql  string
		want []string
	}{
		{"SELECT * FROM a, b WHERE a.x = b.y", []string{"x", "ax", "y", "by"}},
		{"SELECT * FROM b, a WHERE a.x = b.y", []string{"y", "by", "x", "ax"}},
		{"SELECT b.*, a.* FROM a, b WHERE a.x = b.y", []string{"y", "by", "x", "ax"}},
	} {
		r := queryAll(t, e, tc.sql)
		if got := columnNames(r.Schema); !slices.Equal(got, tc.want) {
			t.Errorf("%s: columns %v, want %v", tc.sql, got, tc.want)
		}
		if len(r.Rows) != 3 {
			t.Fatalf("%s: %d rows, want 3", tc.sql, len(r.Rows))
		}
		for _, row := range r.Rows {
			for i, name := range tc.want {
				wantType := map[string]sqltypes.Type{
					"x": sqltypes.TypeInt, "ax": sqltypes.TypeString,
					"y": sqltypes.TypeInt, "by": sqltypes.TypeFloat,
				}[name]
				if row[i].T != wantType {
					t.Errorf("%s: column %d (%s) holds %v", tc.sql, i, name, row[i])
				}
			}
		}
	}
}

// TestViewOverForeignTableSchema creates a view joining a foreign table
// with a local one. CREATE VIEW must not ask the remote for statistics,
// and the view's stored schema must match the rows its execution-time
// plan produces, although that plan sees the remote's real row count (3)
// where the schema derivation saw the placeholder (1000) and so joins in
// the other order.
func TestViewOverForeignTableSchema(t *testing.T) {
	e := newTestEngine(t)
	remote := &statsCountingRemote{fakeRemote: fakeRemote{
		schema: sqltypes.NewSchema(
			sqltypes.Column{Name: "sid", Type: sqltypes.TypeInt},
			sqltypes.Column{Name: "score", Type: sqltypes.TypeFloat},
		),
		rows: []sqltypes.Row{
			{sqltypes.NewInt(1), sqltypes.NewFloat(0.5)},
			{sqltypes.NewInt(2), sqltypes.NewFloat(1.5)},
			{sqltypes.NewInt(3), sqltypes.NewFloat(2.5)},
		},
	}}
	e.SetRemote(remote)
	for _, ddl := range []string{
		"CREATE SERVER r FOREIGN DATA WRAPPER xdb OPTIONS (host 'h', port '1')",
		"CREATE FOREIGN TABLE scores (sid BIGINT, score DOUBLE) SERVER r OPTIONS (table_name 'remote_scores')",
		"CREATE VIEW v AS SELECT * FROM scores s, Citizen c WHERE s.sid = c.id",
	} {
		if err := e.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	if remote.statsCalls != 0 {
		t.Fatalf("CREATE VIEW issued %d remote stats requests, want 0", remote.statsCalls)
	}
	want := []string{"sid", "score", "id", "name", "age", "address"}
	v, _ := e.Catalog().View("v")
	if got := columnNames(v.Schema); !slices.Equal(got, want) {
		t.Fatalf("view schema %v, want %v", got, want)
	}

	r := queryAll(t, e, "SELECT * FROM v ORDER BY sid")
	if remote.statsCalls == 0 {
		t.Error("execution-time planning fetched no remote estimate")
	}
	if got := columnNames(r.Schema); !slices.Equal(got, want) {
		t.Fatalf("result columns %v, want %v", got, want)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(r.Rows))
	}
	for i, row := range r.Rows {
		if row[0].I != int64(i+1) || row[1].T != sqltypes.TypeFloat || row[2].I != row[0].I || row[3].T != sqltypes.TypeString {
			t.Errorf("row %d = %v: columns do not line up with the schema", i, row)
		}
	}
}
