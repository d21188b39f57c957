// Package sweepcache is the content-addressed, on-disk result cache behind
// incremental figure regeneration. Each sweep cell (one independent
// simulation) is addressed by a stable hash of its canonical preimage —
// cache schema version, a driver tag naming the computation and payload
// schema, and a canonical encoding of every input the cell reads (machine
// config, run config, derived seed). The stored value is the cell's result
// through encoding/json plus a provenance header.
//
// The cache is deliberately paranoid: a wrong hit silently corrupts
// figures, so entries carry the full key preimage and a payload checksum, a
// payload counts only if its decoded result re-encodes to the same bytes
// (so a payload written for an older result struct recomputes), every
// validation failure degrades to recompute-with-warning (never a wrong
// result, never a crash), and verify mode recomputes hits anyway and fails
// loudly on byte mismatches. What neither the preimage nor the payload
// check can see is model code: changing simulator internals without
// touching any config leaves entries whose results are stale but well
// formed. That is what SchemaVersion bumps, `umbench -cache-verify`, and
// the golden-output tests are for.
package sweepcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
)

// Key accumulates one cell's canonical preimage. Every field is framed with
// a type tag and length prefixes, so the encoding is injective: two
// different (driver, field...) sequences can never produce the same bytes
// (FuzzCanonicalKey hammers this on generated corpora). The zero Key is not
// valid; use NewKey.
type Key struct {
	buf   []byte
	depth int
	err   error
}

// maxWalkDepth bounds the reflective walk. Config object graphs here are a
// few levels deep; hitting the bound means a cyclic structure, which has no
// canonical form — poison the key instead of spinning.
const maxWalkDepth = 1000

// NewKey starts a preimage for one cell of the named driver. The driver tag
// names both the computation and the payload schema ("run/result",
// "run/p99", "fleet/result", ...): two drivers caching different payload
// types for otherwise identical inputs must use different tags.
func NewKey(driver string) *Key {
	k := &Key{}
	k.str(driver)
	return k
}

// Err reports the first encoding failure (an unsupported value kind); a
// failed key yields a nil Preimage and the cell simply computes.
func (k *Key) Err() error { return k.err }

// Preimage returns the canonical bytes, or nil if any field failed to
// encode.
func (k *Key) Preimage() []byte {
	if k.err != nil {
		return nil
	}
	return k.buf
}

func (k *Key) uvarint(v uint64) { k.buf = binary.AppendUvarint(k.buf, v) }

func (k *Key) str(s string) {
	k.uvarint(uint64(len(s)))
	k.buf = append(k.buf, s...)
}

func (k *Key) tag(t byte) { k.buf = append(k.buf, t) }

func (k *Key) u64(v uint64) { k.buf = binary.BigEndian.AppendUint64(k.buf, v) }

// field writes the label framing shared by all typed appenders.
func (k *Key) field(label string) {
	k.tag('F')
	k.str(label)
}

// Str appends a labeled string field.
func (k *Key) Str(label, v string) *Key {
	k.field(label)
	k.tag('s')
	k.str(v)
	return k
}

// Int appends a labeled integer field.
func (k *Key) Int(label string, v int64) *Key {
	k.field(label)
	k.tag('i')
	k.u64(uint64(v))
	return k
}

// Float appends a labeled float field by IEEE-754 bit pattern, so distinct
// values (including -0 vs 0) stay distinct.
func (k *Key) Float(label string, v float64) *Key {
	k.field(label)
	k.tag('f')
	k.u64(math.Float64bits(v))
	return k
}

// Bool appends a labeled bool field.
func (k *Key) Bool(label string, v bool) *Key {
	k.field(label)
	k.tag('b')
	if v {
		k.buf = append(k.buf, 1)
	} else {
		k.buf = append(k.buf, 0)
	}
	return k
}

// Any appends a labeled value of arbitrary type via a canonical reflective
// walk: structs encode their type name and fields in declaration order,
// maps sort entries by encoded key, pointers and interfaces encode nil-ness
// then their element. Unsupported kinds (non-nil funcs, channels, unsafe
// pointers) poison the key — the cell computes uncached rather than risk an
// ambiguous address.
func (k *Key) Any(label string, v any) *Key {
	k.field(label)
	if k.err == nil {
		k.walk(reflect.ValueOf(v))
	}
	return k
}

func (k *Key) fail(v reflect.Value) {
	if k.err == nil {
		k.err = fmt.Errorf("sweepcache: cannot canonically encode %s value", v.Kind())
	}
}

// walk canonically encodes one reflect.Value. It reads through unexported
// fields with kind-typed accessors (never Interface()), so plain config
// structs encode fully even when embedded types keep internals private.
func (k *Key) walk(v reflect.Value) {
	if k.err != nil {
		return
	}
	if !v.IsValid() { // e.g. Any(label, nil)
		k.tag('n')
		return
	}
	k.depth++
	defer func() { k.depth-- }()
	if k.depth > maxWalkDepth {
		if k.err == nil {
			k.err = fmt.Errorf("sweepcache: value nesting exceeds %d (cyclic structure?)", maxWalkDepth)
		}
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		k.tag('b')
		if v.Bool() {
			k.buf = append(k.buf, 1)
		} else {
			k.buf = append(k.buf, 0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		k.tag('i')
		k.u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		k.tag('u')
		k.u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		k.tag('f')
		k.u64(math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		k.tag('c')
		c := v.Complex()
		k.u64(math.Float64bits(real(c)))
		k.u64(math.Float64bits(imag(c)))
	case reflect.String:
		k.tag('s')
		k.str(v.String())
	case reflect.Slice:
		if v.IsNil() {
			k.tag('n')
			return
		}
		fallthrough
	case reflect.Array:
		k.tag('l')
		k.uvarint(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			k.walk(v.Index(i))
		}
	case reflect.Map:
		if v.IsNil() {
			k.tag('n')
			return
		}
		k.tag('m')
		k.uvarint(uint64(v.Len()))
		// Entries sorted by encoded key bytes: map iteration order must
		// never reach the preimage. Key and value encodings are length-
		// prefixed so entry boundaries stay unambiguous.
		type entry struct{ ke, ve []byte }
		entries := make([]entry, 0, v.Len())
		iter := v.MapRange()
		for iter.Next() {
			ke := (&Key{}).sub(iter.Key())
			ve := (&Key{}).sub(iter.Value())
			if ke == nil || ve == nil {
				k.fail(v)
				return
			}
			entries = append(entries, entry{ke, ve})
		}
		sort.Slice(entries, func(i, j int) bool {
			if c := bytes.Compare(entries[i].ke, entries[j].ke); c != 0 {
				return c < 0
			}
			return bytes.Compare(entries[i].ve, entries[j].ve) < 0
		})
		for _, e := range entries {
			k.uvarint(uint64(len(e.ke)))
			k.buf = append(k.buf, e.ke...)
			k.uvarint(uint64(len(e.ve)))
			k.buf = append(k.buf, e.ve...)
		}
	case reflect.Struct:
		k.tag('o')
		t := v.Type()
		k.str(t.PkgPath() + "." + t.Name())
		k.uvarint(uint64(t.NumField()))
		for i := 0; i < t.NumField(); i++ {
			k.str(t.Field(i).Name)
			k.walk(v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			k.tag('n')
			return
		}
		k.tag('p')
		k.walk(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			k.tag('n')
			return
		}
		k.tag('I')
		k.str(v.Elem().Type().String())
		k.walk(v.Elem())
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		// A nil func/chan field (the common "no override installed" case)
		// encodes as nil; a live one has no canonical form.
		if v.IsNil() {
			k.tag('n')
			return
		}
		k.fail(v)
	default:
		k.fail(v)
	}
}

// sub encodes one value standalone (for map entry sorting); nil on failure.
func (k *Key) sub(v reflect.Value) []byte {
	k.walk(v)
	if k.err != nil {
		return nil
	}
	return k.buf
}
