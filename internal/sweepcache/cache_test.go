package sweepcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// quiet silences the recompute-with-warning log during corruption tests and
// returns the captured lines.
func quiet(c *Cache) *[]string {
	var mu sync.Mutex
	var lines []string
	c.SetLogf(func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	return &lines
}

// anyPayload accepts every intact payload: these tests exercise the
// envelope, not a result type.
func anyPayload([]byte) bool { return true }

func TestCacheRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	quiet(c)
	pre := NewKey("t").Int("x", 1).Preimage()
	if _, ok := c.Lookup(pre, anyPayload); ok {
		t.Fatal("hit on empty cache")
	}
	payload := []byte(`{"v":1}`)
	c.Store(pre, payload)
	got, ok := c.Lookup(pre, anyPayload)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Lookup = %q, %v; want stored payload", got, ok)
	}
	s := c.Snapshot()
	if s.Hits != 1 || s.Misses != 1 || s.Stores != 1 || s.Invalid != 0 {
		t.Fatalf("counters = %+v", s)
	}
}

func TestCacheOverwrite(t *testing.T) {
	c, _ := Open(t.TempDir())
	quiet(c)
	pre := NewKey("t").Int("x", 1).Preimage()
	c.Store(pre, []byte(`1`))
	c.Store(pre, []byte(`2`))
	if got, ok := c.Lookup(pre, anyPayload); !ok || string(got) != "2" {
		t.Fatalf("Lookup = %q, %v; want latest payload", got, ok)
	}
}

// entryFile returns the on-disk path of the (single) stored entry.
func entryFile(t *testing.T, c *Cache) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(c.Dir(), "??", "*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("entry files = %v, %v; want exactly one", matches, err)
	}
	return matches[0]
}

// TestCacheCorruptionDegradesToMiss is the corruption-injection battery:
// every broken entry must read as a miss (so the cell recomputes), count one
// invalidation, warn — and never return wrong bytes or crash.
func TestCacheCorruptionDegradesToMiss(t *testing.T) {
	pre := NewKey("t").Int("x", 1).Preimage()
	payload := []byte(`{"v":1}`)
	corruptions := map[string]func(path string) error{
		"truncated file": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:len(b)/2], 0o644)
		},
		"flipped payload byte": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			i := bytes.Index(b, []byte(`"payload":`))
			if i < 0 {
				return fmt.Errorf("no payload field in %s", b)
			}
			b[i+len(`"payload":`)+2] ^= 0x20
			return os.WriteFile(path, b, 0o644)
		},
		"stale schema": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b = bytes.Replace(b, []byte(fmt.Sprintf(`"schema":%d`, SchemaVersion)),
				[]byte(fmt.Sprintf(`"schema":%d`, SchemaVersion+1)), 1)
			return os.WriteFile(path, b, 0o644)
		},
		"garbage file": func(path string) error {
			return os.WriteFile(path, []byte("not json at all\x00\xff"), 0o644)
		},
		"empty file": func(path string) error {
			return os.WriteFile(path, nil, 0o644)
		},
		"wrong key": func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			// Swap the recorded key for another valid-looking hash.
			i := bytes.Index(b, []byte(`"key":"`))
			b[i+len(`"key":"`)] ^= 1 // '0'<->'1' etc. stays hex-ish, differs
			return os.WriteFile(path, b, 0o644)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			c, _ := Open(t.TempDir())
			warnings := quiet(c)
			c.Store(pre, payload)
			if err := corrupt(entryFile(t, c)); err != nil {
				t.Fatal(err)
			}
			got, ok := c.Lookup(pre, anyPayload)
			if ok {
				t.Fatalf("corrupt entry returned a hit with payload %q", got)
			}
			s := c.Snapshot()
			if s.Invalid != 1 {
				t.Fatalf("invalid = %d, want 1", s.Invalid)
			}
			if len(*warnings) == 0 {
				t.Fatal("no recompute warning logged")
			}
			// The recomputed Store must repair the entry in place.
			c.Store(pre, payload)
			if got, ok := c.Lookup(pre, anyPayload); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("post-repair Lookup = %q, %v", got, ok)
			}
		})
	}
}

// TestCacheRejectedPayloadIsInvalid: an intact entry (checksum valid) whose
// payload the caller's check rejects is an invalidation and a miss — never
// a hit — and a valid payload still hits.
func TestCacheRejectedPayloadIsInvalid(t *testing.T) {
	c, _ := Open(t.TempDir())
	warnings := quiet(c)
	pre := NewKey("t").Int("x", 1).Preimage()
	c.Store(pre, []byte(`{}`))
	if got, ok := c.Lookup(pre, func([]byte) bool { return false }); ok {
		t.Fatalf("rejected payload returned a hit: %q", got)
	}
	if s := c.Snapshot(); s.Hits != 0 || s.Misses != 1 || s.Invalid != 1 {
		t.Fatalf("counters = %+v, want 0 hits, 1 miss, 1 invalid", s)
	}
	if len(*warnings) != 1 {
		t.Fatalf("warnings = %q, want one", *warnings)
	}
	if _, ok := c.Lookup(pre, anyPayload); !ok {
		t.Fatal("accepted payload missed")
	}
	if s := c.Snapshot(); s.Hits != 1 || s.Invalid != 1 {
		t.Fatalf("counters = %+v, want 1 hit, 1 invalid", s)
	}
}

func TestCacheEntryHasProvenance(t *testing.T) {
	c, _ := Open(t.TempDir())
	quiet(c)
	pre := NewKey("t").Int("x", 1).Preimage()
	c.Store(pre, []byte(`{"v":1}`))
	b, err := os.ReadFile(entryFile(t, c))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"schema":`, `"key":`, `"preimage_b64":`, `"wall_unix":`, `"git":`, `"payload_sha256":`, `"payload":`} {
		if !bytes.Contains(b, []byte(field)) {
			t.Errorf("entry missing %s", field)
		}
	}
	if !strings.Contains(string(b), KeyHash(pre)) {
		t.Error("entry does not record its own key hash")
	}
}

func TestCacheClearOnlyTouchesEntries(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	quiet(c)
	c.Store(NewKey("t").Int("x", 1).Preimage(), []byte(`1`))
	c.Store(NewKey("t").Int("x", 2).Preimage(), []byte(`2`))
	// Foreign data sharing the directory must survive a clear.
	foreign := filepath.Join(dir, "notes.txt")
	os.WriteFile(foreign, []byte("keep me"), 0o644)
	foreignDir := filepath.Join(dir, "plots")
	os.MkdirAll(foreignDir, 0o755)
	os.WriteFile(filepath.Join(foreignDir, "a.json"), []byte("keep"), 0o644)
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "??", "*.json")); len(matches) != 0 {
		t.Fatalf("entries survived clear: %v", matches)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatal("clear removed foreign file")
	}
	if _, err := os.Stat(filepath.Join(foreignDir, "a.json")); err != nil {
		t.Fatal("clear removed foreign directory contents")
	}
	if _, ok := c.Lookup(NewKey("t").Int("x", 1).Preimage(), anyPayload); ok {
		t.Fatal("hit after clear")
	}
}

func TestCacheVerifyBookkeeping(t *testing.T) {
	c, _ := Open(t.TempDir())
	quiet(c)
	if c.VerifyMode() {
		t.Fatal("verify on by default")
	}
	c.SetVerify(true)
	if !c.VerifyMode() {
		t.Fatal("SetVerify(true) not reflected")
	}
	pre := NewKey("t").Int("x", 1).Preimage()
	c.RecordMismatch(pre, []byte(`1`), []byte(`2`))
	if s := c.Snapshot(); s.Mismatches != 1 {
		t.Fatalf("mismatches = %d, want 1", s.Mismatches)
	}
	if lines := c.Mismatches(); len(lines) != 1 || !strings.Contains(lines[0], KeyHash(pre)) {
		t.Fatalf("mismatch log = %v", lines)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines; run under
// -race this proves Lookup/Store/Snapshot need no external locking.
func TestCacheConcurrent(t *testing.T) {
	c, _ := Open(t.TempDir())
	quiet(c)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pre := NewKey("t").Int("cell", int64(i%10)).Preimage()
				payload := []byte(fmt.Sprintf(`{"v":%d}`, i%10))
				if got, ok := c.Lookup(pre, anyPayload); ok && !bytes.Equal(got, payload) {
					t.Errorf("goroutine %d: wrong payload %q", g, got)
					return
				}
				c.Store(pre, payload)
				c.Snapshot()
			}
		}(g)
	}
	wg.Wait()
}
