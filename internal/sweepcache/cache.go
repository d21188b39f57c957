package sweepcache

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"umanycore/internal/stats"
	"umanycore/internal/sweep"
)

// SchemaVersion is baked into every cache key. A bump orphans every existing
// entry (stale-schema entries read as misses), which is the safe behaviour.
// A result struct change needs no bump: a payload that does not re-encode
// to its own bytes is already rejected (see sweep.MapCached). Bump it when
// the simulation models change in a way the config preimage cannot see
// (same inputs, different results), or when the canonical key format
// changes.
const SchemaVersion = 2

// KeyHash returns the content address for a preimage: hex SHA-256 over the
// schema-versioned preimage. The schema version is hashed in (not just
// stored) so entries written by a different schema can never collide with
// current keys even if their files are left behind.
func KeyHash(preimage []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "umanycore/sweepcache/v%d\x00", SchemaVersion)
	h.Write(preimage)
	return hex.EncodeToString(h.Sum(nil))
}

// Stats is a snapshot of one cache's traffic.
type Stats struct {
	Hits, Misses, Stores, Invalid, Mismatches int64
}

// Cache is the on-disk store. One entry per cell, laid out as
// DIR/<hh>/<hash>.json where hh is the first hash byte (fan-out keeps
// directories small on full-figure-set runs). Safe for concurrent use by
// sweep workers; concurrent processes sharing a directory are safe too
// (stores are atomic rename, distinct cells have distinct files).
type Cache struct {
	dir    string
	verify atomic.Bool
	logf   atomic.Value // func(format string, args ...any)

	hits, misses, stores, invalid, mismatches atomic.Int64

	mu          sync.Mutex
	mismatchLog []string

	gitOnce sync.Once
	gitDesc string
}

// Open creates (if needed) and returns the cache rooted at dir.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweepcache: %w", err)
	}
	c := &Cache{dir: dir}
	c.logf.Store(func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	return c, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// SetLogf redirects the cache's recompute-with-warning messages (default:
// standard error).
func (c *Cache) SetLogf(f func(format string, args ...any)) { c.logf.Store(f) }

func (c *Cache) warnf(format string, args ...any) {
	if f, ok := c.logf.Load().(func(string, ...any)); ok && f != nil {
		f("sweepcache: "+format, args...)
	}
}

// SetVerify switches verify mode: hits still recompute and byte-mismatches
// between cache and recomputation are recorded as failures.
func (c *Cache) SetVerify(on bool) { c.verify.Store(on) }

// VerifyMode implements sweep.CellCache.
func (c *Cache) VerifyMode() bool { return c.verify.Load() }

var _ sweep.CellCache = (*Cache)(nil)

// Snapshot returns the cache's traffic counters: the one record of cell
// hits, misses and invalidations, read by umbench's [cache …] line and by
// the /metrics endpoint alike.
func (c *Cache) Snapshot() Stats {
	return Stats{
		Hits:       c.hits.Load(),
		Misses:     c.misses.Load(),
		Stores:     c.stores.Load(),
		Invalid:    c.invalid.Load(),
		Mismatches: c.mismatches.Load(),
	}
}

// Mismatches returns the recorded verify failures (one line per cell).
func (c *Cache) Mismatches() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.mismatchLog))
	copy(out, c.mismatchLog)
	return out
}

// entryPath maps a key hash onto the two-level directory layout.
func (c *Cache) entryPath(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash+".json")
}

// entry is the decode mirror of the stored record (written via
// stats.JSONObject in Store, so the field order below is also the on-disk
// order).
type entry struct {
	Schema      int             `json:"schema"`
	Key         string          `json:"key"`
	PreimageB64 string          `json:"preimage_b64"`
	WallUnix    int64           `json:"wall_unix"`
	Git         string          `json:"git"`
	PayloadSHA  string          `json:"payload_sha256"`
	Payload     json.RawMessage `json:"payload"`
}

// Lookup implements sweep.CellCache: any validation failure — unreadable or
// truncated file, stale schema, key or checksum mismatch, or a payload that
// valid rejects — counts as an invalidation, warns, and reads as a miss so
// the cell recomputes.
func (c *Cache) Lookup(preimage []byte, valid func(payload []byte) bool) ([]byte, bool) {
	hash := KeyHash(preimage)
	path := c.entryPath(hash)
	b, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			c.invalidate(path, fmt.Sprintf("read: %v", err))
		} else {
			c.misses.Add(1)
		}
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		c.invalidate(path, fmt.Sprintf("corrupt entry: %v", err))
		return nil, false
	}
	if e.Schema != SchemaVersion {
		c.invalidate(path, fmt.Sprintf("stale schema %d (want %d)", e.Schema, SchemaVersion))
		return nil, false
	}
	if e.Key != hash {
		c.invalidate(path, fmt.Sprintf("key mismatch: entry says %.12s…", e.Key))
		return nil, false
	}
	if sum := sha256.Sum256(e.Payload); hex.EncodeToString(sum[:]) != e.PayloadSHA {
		c.invalidate(path, "payload checksum mismatch (flipped bytes?)")
		return nil, false
	}
	if !valid(e.Payload) {
		c.invalidate(path, "payload is not an encoding of the cell's result")
		return nil, false
	}
	c.hits.Add(1)
	return e.Payload, true
}

// invalidate counts and reports one unusable entry. The file is left in
// place: the recomputed Store will atomically overwrite it.
func (c *Cache) invalidate(path, why string) {
	c.invalid.Add(1)
	c.misses.Add(1)
	c.warnf("%s: %s; recomputing", path, why)
}

// Store implements sweep.CellCache: write-temp-then-rename so concurrent
// readers (and a second process sharing the directory) never observe a
// partial entry. Store failures only warn — a cell that cannot be cached
// still produced a correct result.
func (c *Cache) Store(preimage, payload []byte) {
	hash := KeyHash(preimage)
	path := c.entryPath(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		c.warnf("%s: %v", path, err)
		return
	}
	sum := sha256.Sum256(payload)
	var o stats.JSONObject
	o.Int("schema", SchemaVersion).
		Str("key", hash).
		Str("preimage_b64", base64.StdEncoding.EncodeToString(preimage)).
		Int("wall_unix", time.Now().Unix()).
		Str("git", c.gitDescribe()).
		Str("payload_sha256", hex.EncodeToString(sum[:])).
		Raw("payload", payload)
	b := append(o.Bytes(), '\n')

	tmp, err := os.CreateTemp(filepath.Dir(path), hash+".tmp*")
	if err != nil {
		c.warnf("%s: %v", path, err)
		return
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		c.warnf("%s: write failed", path)
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		c.warnf("%s: %v", path, err)
		return
	}
	c.stores.Add(1)
}

// RecordMismatch implements sweep.CellCache: verify mode found a cached
// payload whose recomputation encodes differently — the cache was lying.
func (c *Cache) RecordMismatch(preimage, cached, recomputed []byte) {
	c.mismatches.Add(1)
	hash := KeyHash(preimage)
	line := fmt.Sprintf("%s: cached %d bytes != recomputed %d bytes", hash, len(cached), len(recomputed))
	c.mu.Lock()
	c.mismatchLog = append(c.mismatchLog, line)
	c.mu.Unlock()
	c.warnf("VERIFY MISMATCH %s", line)
}

// entryDirRe matches the fan-out subdirectories Clear is allowed to touch.
var entryDirRe = regexp.MustCompile(`^[0-9a-f]{2}$`)

// Clear removes every cache entry under the root. It deletes only files
// matching the cache layout (hex fan-out directories, .json entries and
// leftover temp files), so pointing -cache-clear at a directory that also
// holds other data cannot destroy it.
func (c *Cache) Clear() error {
	subs, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("sweepcache: %w", err)
	}
	for _, sub := range subs {
		if !sub.IsDir() || !entryDirRe.MatchString(sub.Name()) {
			continue
		}
		subPath := filepath.Join(c.dir, sub.Name())
		files, err := os.ReadDir(subPath)
		if err != nil {
			return fmt.Errorf("sweepcache: %w", err)
		}
		removedAll := true
		for _, f := range files {
			name := f.Name()
			if filepath.Ext(name) == ".json" || entryTempRe.MatchString(name) {
				if err := os.Remove(filepath.Join(subPath, name)); err != nil {
					return fmt.Errorf("sweepcache: %w", err)
				}
			} else {
				removedAll = false
			}
		}
		if removedAll {
			os.Remove(subPath) // best effort: prune the empty fan-out dir
		}
	}
	return nil
}

// entryTempRe matches in-flight temp files from interrupted Stores.
var entryTempRe = regexp.MustCompile(`^[0-9a-f]{64}\.tmp`)

// gitDescribe resolves the repository state once, for provenance headers
// only (never the key — a commit must not orphan the cache; that is the
// schema version's job when models actually change).
func (c *Cache) gitDescribe() string {
	c.gitOnce.Do(func() {
		out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
		if err != nil || len(out) == 0 {
			c.gitDesc = "unknown"
			return
		}
		c.gitDesc = string(out[:len(out)-1])
	})
	return c.gitDesc
}
