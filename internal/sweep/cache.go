package sweep

import (
	"bytes"
	"encoding/json"
	"sync/atomic"
)

// The cell cache makes figure regeneration incremental: every sweep cell is
// an independent simulation, and a Cell value holds all of its inputs, so
// its Key (the driver tag plus every field Run reads) fully determines its
// result and a prior run's result can stand in for recomputation byte for
// byte. The sweep package only defines the seam — CellCache is implemented
// by internal/sweepcache, which owns hashing, the on-disk format,
// corruption handling and the traffic counters. Keeping the interface
// bytes-in/bytes-out here keeps the runner free of the disk format, and
// lets tests install an in-memory cache.

// CellCache is a content-addressed store for encoded cell results, keyed by
// the cell's canonical preimage. Implementations must be safe for
// concurrent use by sweep workers and must return payloads verbatim
// (Lookup(p) after Store(p, b) yields bytes equal to b), because verify
// mode compares them byte for byte against a recomputation.
type CellCache interface {
	// Lookup returns the payload cached for this preimage if valid accepts
	// it. A corrupt, truncated, stale or rejected entry is a miss, never an
	// error: the cache degrades to recomputation. The cache owns the
	// hit/miss/invalid accounting, so a payload valid rejects is counted as
	// invalidated, not as a hit.
	Lookup(preimage []byte, valid func(payload []byte) bool) (payload []byte, ok bool)
	// Store records the payload for this preimage, overwriting any
	// previous (possibly corrupt) entry.
	Store(preimage, payload []byte)
	// VerifyMode reports whether cached cells must be recomputed anyway
	// and compared against the stored bytes.
	VerifyMode() bool
	// RecordMismatch is called in verify mode when the recomputed encoding
	// differs from the cached payload — the "silently corrupted figure"
	// case the mode exists to catch.
	RecordMismatch(preimage, cached, recomputed []byte)
}

// activeCache is the process-wide cell cache consulted by MapCached; nil
// (the default) means every cell computes. It is set once by the CLI before
// any sweep runs, but is atomic so tests can swap caches around runs that
// race with a live /metrics scrape.
var activeCache atomic.Value // cellCacheBox

// cellCacheBox wraps the interface so atomic.Value tolerates differing
// concrete types (and explicit nil for "disabled").
type cellCacheBox struct{ c CellCache }

// SetCache installs (or, with nil, removes) the process-wide cell cache.
func SetCache(c CellCache) { activeCache.Store(cellCacheBox{c}) }

// ActiveCache returns the installed cell cache, or nil.
func ActiveCache() CellCache {
	if b, ok := activeCache.Load().(cellCacheBox); ok {
		return b.c
	}
	return nil
}

// decodeCell decodes a cached payload into r and reports whether the
// payload is exactly the encoding of a value of R: the decoded value must
// re-encode to the stored bytes. A payload written for another struct shape
// (a field added, renamed or retyped since) fails that check and the cell
// recomputes, so a struct change needs no schema bump.
func decodeCell[R any](payload []byte, r *R) bool {
	if json.Unmarshal(payload, r) != nil {
		return false
	}
	enc, err := json.Marshal(*r)
	return err == nil && bytes.Equal(enc, payload)
}

// Cell is one cacheable sweep cell: a value that carries everything its
// computation reads, so the cache key and the run are two views of the same
// fields. Key returns the cell's canonical preimage (the driver tag plus
// every input), or nil when the cell must not be cached; Run computes the
// cell's result.
type Cell[R any] interface {
	Key() []byte
	Run() R
}

// MapCached is Map over cells with a content-addressed shortcut: when a
// cell cache is installed and a cell's Key is non-nil, a valid cached
// payload replaces Run. Key is called only when a cache is installed, so an
// uncached sweep does exactly the work of Map. A cell's payload is its
// result through encoding/json, so fields the payload must not carry (run
// attachments, wall-clock diagnostics) are tagged json:"-", and Key must
// return nil for cells whose results carry them. Determinism is unchanged —
// a hit decodes to a value that re-encodes to exactly the stored bytes (the
// battery in internal/experiments proves it equals the recomputation), and
// a miss runs the cell exactly as Map would. In verify mode hits recompute
// anyway and byte-mismatches are reported to the cache. Cells whose key or
// encoding fails (a NaN has no JSON form) are computed and never stored.
func MapCached[C Cell[R], R any](workers int, cells []C) []R {
	c := ActiveCache()
	if c == nil {
		return Map(workers, cells, func(_ int, cell C) R { return cell.Run() })
	}
	verify := c.VerifyMode()
	return Map(workers, cells, func(_ int, cell C) R {
		p := cell.Key()
		if p == nil {
			return cell.Run()
		}
		var r R
		payload, hit := c.Lookup(p, func(b []byte) bool { return decodeCell(b, &r) })
		if hit && !verify {
			jobsCached.Add(1)
			return r
		}
		r = cell.Run()
		enc, err := json.Marshal(r)
		if err != nil {
			return r
		}
		if hit { // verify mode: compare recomputation against the cache
			if bytes.Equal(enc, payload) {
				return r
			}
			c.RecordMismatch(p, payload, enc)
		}
		c.Store(p, enc) // on a mismatch, converge the cache on the recomputed truth
		return r
	})
}
