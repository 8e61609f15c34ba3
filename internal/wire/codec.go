package wire

import (
	"math"

	"xdb/internal/engine"
	"xdb/internal/sqltypes"
)

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Smallest encodings of one counted element, used to bound a decoded count
// by the bytes that remain: a column-stats entry is a name length, the
// distinct count, the null fraction and two one-byte value tags; a row is
// its 4-byte column count.
const (
	minColumnStatsBytes = 4 + 8 + 8 + 1 + 1
	minRowBytes         = 4
)

// encodeStats serializes a TableStats payload.
func encodeStats(st *engine.TableStats) []byte {
	var b []byte
	b = appendUint64(b, uint64(st.RowCount))
	b = appendFloat64(b, st.AvgRowBytes)
	b = appendUint64(b, uint64(len(st.Columns)))
	for _, c := range st.Columns {
		b = appendString32(b, c.Name)
		b = appendUint64(b, uint64(c.Distinct))
		b = appendFloat64(b, c.NullFrac)
		b = sqltypes.AppendValue(b, c.Min)
		b = sqltypes.AppendValue(b, c.Max)
	}
	return b
}

// decodeStats parses a TableStats payload.
func decodeStats(payload []byte) (*engine.TableStats, error) {
	r := &reader{b: payload}
	st := &engine.TableStats{
		RowCount:    int64(r.uint64()),
		AvgRowBytes: r.float64(),
	}
	n := r.count(minColumnStatsBytes)
	if r.err != nil {
		return nil, r.err
	}
	st.Columns = make([]engine.ColumnStats, 0, n)
	for i := 0; i < n; i++ {
		c := engine.ColumnStats{
			Name:     r.string32(),
			Distinct: int64(r.uint64()),
			NullFrac: r.float64(),
		}
		if r.err != nil {
			return nil, r.err
		}
		v, sz, err := sqltypes.DecodeValue(payload[r.off:])
		if err != nil {
			return nil, err
		}
		r.off += sz
		c.Min = v
		v, sz, err = sqltypes.DecodeValue(payload[r.off:])
		if err != nil {
			return nil, err
		}
		r.off += sz
		c.Max = v
		st.Columns = append(st.Columns, c)
	}
	return st, r.err
}

// encodeExplain serializes an ExplainInfo payload.
func encodeExplain(info *engine.ExplainInfo) []byte {
	var b []byte
	b = appendFloat64(b, info.Cost)
	b = appendFloat64(b, info.Rows)
	b = appendString32(b, info.Text)
	return b
}

// decodeExplain parses an ExplainInfo payload.
func decodeExplain(payload []byte) (*engine.ExplainInfo, error) {
	r := &reader{b: payload}
	info := &engine.ExplainInfo{
		Cost: r.float64(),
		Rows: r.float64(),
		Text: r.string32(),
	}
	return info, r.err
}

// encodeCostProbe serializes a costing request.
func encodeCostProbe(kind engine.CostKind, left, right, out float64) []byte {
	var b []byte
	b = appendString32(b, string(kind))
	b = appendFloat64(b, left)
	b = appendFloat64(b, right)
	b = appendFloat64(b, out)
	return b
}

// decodeCostProbe parses a costing request.
func decodeCostProbe(payload []byte) (engine.CostKind, float64, float64, float64, error) {
	r := &reader{b: payload}
	kind := engine.CostKind(r.string32())
	l, ri, o := r.float64(), r.float64(), r.float64()
	return kind, l, ri, o, r.err
}

// encodeSampleProbe serializes a bounded-sample probe request.
func encodeSampleProbe(table, alias, filter string, limit int64) []byte {
	var b []byte
	b = appendString32(b, table)
	b = appendString32(b, alias)
	b = appendString32(b, filter)
	b = appendUint64(b, uint64(limit))
	return b
}

// decodeSampleProbe parses a bounded-sample probe request.
func decodeSampleProbe(payload []byte) (table, alias, filter string, limit int64, err error) {
	r := &reader{b: payload}
	table, alias, filter = r.string32(), r.string32(), r.string32()
	limit = int64(r.uint64())
	return table, alias, filter, limit, r.err
}

// encodeSampleRes serializes a SampleResult: the counts, the exhaustion
// flag, and the per-column statistics sketch reusing the stats codec.
func encodeSampleRes(res *engine.SampleResult) []byte {
	var b []byte
	b = appendUint64(b, uint64(res.Scanned))
	b = appendUint64(b, uint64(res.Matched))
	var ex uint64
	if res.Exhausted {
		ex = 1
	}
	b = appendUint64(b, ex)
	return append(b, encodeStats(res.Stats)...)
}

// decodeSampleRes parses a SampleResult payload.
func decodeSampleRes(payload []byte) (*engine.SampleResult, error) {
	r := &reader{b: payload}
	res := &engine.SampleResult{
		Scanned:   int64(r.uint64()),
		Matched:   int64(r.uint64()),
		Exhausted: r.uint64() == 1,
	}
	if r.err != nil {
		return nil, r.err
	}
	st, err := decodeStats(payload[r.off:])
	if err != nil {
		return nil, err
	}
	res.Stats = st
	return res, nil
}

// encodeRowBatch serializes rows with the given encoding, returning the
// payload and the frame type to use.
func encodeRowBatch(rows []sqltypes.Row, enc engine.Encoding) ([]byte, byte) {
	var b []byte
	b = appendUint64(b, uint64(len(rows)))
	if enc == engine.EncodingText {
		for _, row := range rows {
			b = sqltypes.AppendRowText(b, row)
		}
		return b, msgRowsText
	}
	for _, row := range rows {
		b = sqltypes.AppendRow(b, row)
	}
	return b, msgRows
}

// decodeRowBatch parses a row batch payload of the given frame type.
func decodeRowBatch(payload []byte, typ byte) ([]sqltypes.Row, error) {
	r := &reader{b: payload}
	n := r.count(minRowBytes)
	if r.err != nil {
		return nil, r.err
	}
	rows := make([]sqltypes.Row, 0, n)
	for i := 0; i < n; i++ {
		var (
			row sqltypes.Row
			sz  int
			err error
		)
		if typ == msgRowsText {
			row, sz, err = sqltypes.DecodeRowText(payload[r.off:])
		} else {
			row, sz, err = sqltypes.DecodeRow(payload[r.off:])
		}
		if err != nil {
			return nil, err
		}
		r.off += sz
		rows = append(rows, row)
	}
	return rows, nil
}
