package stats

import (
	"math"
	"strconv"
	"strings"
)

// JSONObject builds a JSON object with the exact field order of the calls
// that produced it and shortest-exact float formatting — the one encoder
// behind every machine-readable report in this repository (stats.Summary,
// umprof -json, umsim -metrics, umbench -json), so the report schemas
// cannot drift between tools and identical results serialize to identical
// bytes.
//
// Floats encode with strconv 'g'/-1 (shortest round-trip form); NaN and
// ±Inf — which JSON cannot represent — encode as 0, matching the historic
// Summary behaviour for empty samples. The zero value is ready to use:
//
//	var o JSONObject
//	o.Str("machine", name).Float("rps", rps).Raw("latency", lat)
//	w.Write(o.Bytes())
type JSONObject struct {
	b strings.Builder
	n int
}

// key writes the separator and quoted key for the next field.
func (o *JSONObject) key(k string) {
	if o.n == 0 {
		o.b.WriteByte('{')
	} else {
		o.b.WriteByte(',')
	}
	o.n++
	o.b.WriteString(strconv.Quote(k))
	o.b.WriteByte(':')
}

// Str appends a string field.
func (o *JSONObject) Str(k, v string) *JSONObject {
	o.key(k)
	o.b.WriteString(strconv.Quote(v))
	return o
}

// Int appends an integer field.
func (o *JSONObject) Int(k string, v int64) *JSONObject {
	o.key(k)
	o.b.WriteString(strconv.FormatInt(v, 10))
	return o
}

// Float appends a float field in shortest-exact form (NaN/Inf become 0).
func (o *JSONObject) Float(k string, v float64) *JSONObject {
	o.key(k)
	o.b.WriteString(FormatFloat(v))
	return o
}

// FloatFixed appends a float field with fixed decimal places (NaN/Inf
// become 0) — for fields where a stable column width beats full precision.
func (o *JSONObject) FloatFixed(k string, v float64, prec int) *JSONObject {
	o.key(k)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.b.WriteString(strconv.FormatFloat(v, 'f', prec, 64))
	return o
}

// Raw appends a pre-encoded JSON value verbatim (e.g. Summary.MarshalJSON
// output or a nested JSONObject's Bytes).
func (o *JSONObject) Raw(k string, v []byte) *JSONObject {
	o.key(k)
	o.b.Write(v)
	return o
}

// FloatArr appends an array of floats, each in shortest-exact form (NaN/Inf
// become 0).
func (o *JSONObject) FloatArr(k string, vs []float64) *JSONObject {
	o.key(k)
	o.b.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			o.b.WriteByte(',')
		}
		o.b.WriteString(FormatFloat(v))
	}
	o.b.WriteByte(']')
	return o
}

// RawArr appends an array of pre-encoded JSON values verbatim.
func (o *JSONObject) RawArr(k string, vs [][]byte) *JSONObject {
	o.key(k)
	o.b.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			o.b.WriteByte(',')
		}
		o.b.Write(v)
	}
	o.b.WriteByte(']')
	return o
}

// Obj appends a nested object built by fn.
func (o *JSONObject) Obj(k string, fn func(*JSONObject)) *JSONObject {
	var nested JSONObject
	fn(&nested)
	return o.Raw(k, nested.Bytes())
}

// Bytes closes and returns the encoded object. An empty object encodes as
// {}. The builder must not be reused after Bytes.
func (o *JSONObject) Bytes() []byte {
	if o.n == 0 {
		return []byte("{}")
	}
	o.b.WriteByte('}')
	return []byte(o.b.String())
}

// FormatFloat is the repository's canonical JSON float form: shortest
// round-trip 'g' formatting, with NaN/Inf mapped to 0.
func FormatFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
