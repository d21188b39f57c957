package sim

import "testing"

// TestTagInheritance: on a counting engine, an event carries the tag set
// when it was scheduled from outside callbacks, every event a callback
// schedules inherits the firing event's tag whatever SetTag said before the
// run, and RunUntil hands the caller's tag back on return.
func TestTagInheritance(t *testing.T) {
	e := NewEngine(1)
	e.CountTags(10)
	var log []int32
	record := func() { log = append(log, e.Tag()) }
	e.SetTag(3)
	e.At(10, func() {
		record()
		e.After(5, func() {
			record()
			e.After(5, record)
		})
	})
	e.SetTag(5)
	e.At(12, record)
	e.SetTag(9)
	e.RunUntil(16)
	if e.Tag() != 9 {
		t.Fatalf("tag after RunUntil = %d, want the caller's 9", e.Tag())
	}
	e.SetTag(1)
	e.At(17, record) // outside callbacks again: the tag the caller set
	e.Run()
	if e.Tag() != 1 {
		t.Fatalf("tag after Run = %d, want the caller's 1", e.Tag())
	}
	want := []int32{3, 5, 3, 1, 3}
	if len(log) != len(want) {
		t.Fatalf("fired tags %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fired tags %v, want %v", log, want)
		}
	}
}

// TestTagCounts checks the per-tag accounting: events fired per tag, and
// RunUntil calls in which the tag fired at least one event, counting
// neither cancelled events nor calls in which a tag was idle.
func TestTagCounts(t *testing.T) {
	e := NewEngine(1)
	e.CountTags(3)
	// Call 1 (deadline 10): tag 0 fires twice, tag 1 once; tag 2's event
	// is cancelled.
	e.SetTag(0)
	e.At(1, func() { e.At(2, func() {}) }) // the follow-up inherits tag 0
	e.SetTag(1)
	e.At(5, func() {})
	e.SetTag(2)
	dead := e.At(6, func() {})
	e.Cancel(dead)
	e.RunUntil(10)
	// Call 2 (deadline 20): nothing fires. Call 3 (deadline 30): tag 1
	// three times, tag 2 once.
	e.RunUntil(20)
	e.SetTag(1)
	for i := Time(21); i <= 23; i++ {
		e.At(i, func() {})
	}
	e.SetTag(2)
	e.At(25, func() {})
	// Pending beyond every deadline: never fired, never counted.
	e.At(100, func() {})
	e.RunUntil(30)

	want := [][2]uint64{{2, 1}, {4, 2}, {1, 1}}
	for tag, w := range want {
		events, calls := e.TagCounts(int32(tag))
		if events != w[0] || calls != w[1] {
			t.Fatalf("tag %d: %d events in %d calls, want %d in %d", tag, events, calls, w[0], w[1])
		}
	}
	if events, calls := e.TagCounts(3); events != 0 || calls != 0 {
		t.Fatalf("uncounted tag 3 reports %d/%d", events, calls)
	}
	// Widening keeps the counts already taken.
	e.CountTags(5)
	if events, calls := e.TagCounts(1); events != 4 || calls != 2 {
		t.Fatalf("CountTags(5) lost tag 1's counts: %d/%d", events, calls)
	}
}

// TestResetStopsTagCounting: a reset engine, like a fresh one, counts
// nothing and tags new events 0, so a pooled engine never carries its last
// user's accounting.
func TestResetStopsTagCounting(t *testing.T) {
	e := NewEngine(1)
	e.CountTags(2)
	e.SetTag(1)
	e.At(1, func() {})
	e.RunUntil(5)
	e.Reset(2)
	if e.Tag() != 0 {
		t.Fatalf("tag after Reset = %d, want 0", e.Tag())
	}
	if events, calls := e.TagCounts(1); events != 0 || calls != 0 {
		t.Fatalf("tag 1 after Reset reports %d/%d", events, calls)
	}
	// Counting is off: a tag no CountTags covered fires without panicking.
	e.SetTag(7)
	fired := false
	e.At(1, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event did not fire after Reset")
	}
	if events, _ := e.TagCounts(7); events != 0 {
		t.Fatalf("counted tag 7 after Reset turned counting off: %d", events)
	}
}
