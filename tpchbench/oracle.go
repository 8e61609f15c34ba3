package main

import (
	"fmt"
	"math"
	"sort"

	"xdb/internal/sqltypes"
)

// The result oracle: every XDB answer is compared with the answer of a
// single throttle-free engine that holds all the tables. The rule is the
// one the core package's differential test uses — positional comparison
// with float tolerance first, and because ORDER BY keys may tie, a
// sorted-multiset comparison of the rendered rows as the fallback.

// equalResultSets reports whether two ordered result sets agree.
func equalResultSets(a, b []sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	if positionalEqual(a, b) {
		return true
	}
	ra, rb := renderAll(a), renderAll(b)
	sort.Strings(ra)
	sort.Strings(rb)
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

func positionalEqual(a, b []sqltypes.Row) bool {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.T == sqltypes.TypeFloat || y.T == sqltypes.TypeFloat {
				if math.Abs(x.Float()-y.Float()) > math.Max(1e-9, 1e-9*math.Abs(y.Float())) {
					return false
				}
				continue
			}
			if !sqltypes.Equal(x, y) {
				return false
			}
		}
	}
	return true
}

func renderAll(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for j, v := range r {
			if j > 0 {
				s += "|"
			}
			if v.T == sqltypes.TypeFloat {
				s += fmt.Sprintf("%.6f", v.F)
			} else {
				s += v.String()
			}
		}
		out[i] = s
	}
	return out
}
