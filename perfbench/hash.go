package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"sort"
)

// skipFields names struct fields that are not simulated statistics:
// host wall-clock readings, the raw latency sample (its slice is sorted in
// place lazily, so its order depends on which summaries were read; the
// summaries derived from it are hashed instead), and the optional
// observability payloads only the traced run asks for.
var skipFields = map[string]bool{
	"WallSeconds":        true,
	"BarrierWaitSeconds": true,
	"WorkerBusySeconds":  true,
	"Sample":             true,
	"Obs":                true,
	"Telemetry":          true,
}

// perShardFields adds to skipFields the fabric's per-shard execution
// slices, which only the sharded execution modes fill in.
var perShardFields = with(skipFields, "ShardWindows", "ShardEvents")

func with(set map[string]bool, names ...string) map[string]bool {
	out := map[string]bool{}
	for k := range set {
		out[k] = true
	}
	for _, n := range names {
		out[n] = true
	}
	return out
}

// hashOf returns a SHA-256 over every simulated statistic reachable from
// vs: floats by their bit patterns, maps with their keys sorted, struct
// fields by name. Two passes with equal hashes returned bit-identical
// results.
func hashOf(vs ...any) string { return hashSkipping(skipFields, vs...) }

// hashSkipping is hashOf leaving out the struct fields named in skip.
func hashSkipping(skip map[string]bool, vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		h.Write(encode(reflect.ValueOf(v), skip))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func encode(v reflect.Value, skip map[string]bool) []byte {
	var b bytes.Buffer
	writeValue(&b, v, skip)
	return b.Bytes()
}

func writeValue(b *bytes.Buffer, v reflect.Value, skip map[string]bool) {
	num := func(x uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], x)
		b.Write(buf[:])
	}
	if !v.IsValid() {
		b.WriteByte('0')
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			b.WriteByte('T')
		} else {
			b.WriteByte('F')
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		num(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		num(v.Uint())
	case reflect.Float32, reflect.Float64:
		num(math.Float64bits(v.Float()))
	case reflect.String:
		num(uint64(v.Len()))
		b.WriteString(v.String())
	case reflect.Slice, reflect.Array:
		num(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			writeValue(b, v.Index(i), skip)
		}
	case reflect.Map:
		type entry struct{ k, v []byte }
		entries := make([]entry, 0, v.Len())
		it := v.MapRange()
		for it.Next() {
			entries = append(entries, entry{encode(it.Key(), skip), encode(it.Value(), skip)})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].k, entries[j].k) < 0 })
		num(uint64(len(entries)))
		for _, e := range entries {
			b.Write(e.k)
			b.Write(e.v)
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteByte('0')
			return
		}
		b.WriteByte('1')
		writeValue(b, v.Elem(), skip)
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if skip[t.Field(i).Name] {
				continue
			}
			b.WriteString(t.Field(i).Name)
			writeValue(b, v.Field(i), skip)
		}
	default:
		// Funcs and channels carry no statistics.
	}
}
