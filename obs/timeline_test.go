package obs

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"lowsensing/channel"
)

// render feeds events to a fresh Timeline and returns what it wrote.
func render(t *testing.T, events []SlotEvent) string {
	t.Helper()
	var b bytes.Buffer
	tl := NewTimeline(&b)
	for _, ev := range events {
		tl.RecordSlot(ev)
	}
	tl.RecordPacket(PacketEvent{ID: 1})
	if err := tl.Flush(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestTimelineGapsAndWrapping(t *testing.T) {
	got := render(t, []SlotEvent{
		{Slot: 0, Outcome: channel.OutcomeSuccess},
		{Slot: 10, Outcome: channel.OutcomeNoisy},
		{Slot: 11, Outcome: channel.OutcomeEmpty},
		{Slot: 12, Outcome: channel.OutcomeNoisy, Jammed: true},
	})
	if got != "S(+9)x.!\n" {
		t.Fatalf("timeline = %q", got)
	}
	// 74 glyphs, then a gap marker that does not fit in the 76-byte line:
	// the marker starts the next line.
	var events []SlotEvent
	for i := int64(0); i < 74; i++ {
		events = append(events, slot(i))
	}
	events = append(events, slot(100), slot(101))
	want := strings.Repeat("S", 74) + "\n(+26)SS\n"
	if got := render(t, events); got != want {
		t.Fatalf("wrapped timeline = %q, want %q", got, want)
	}
}

// TestTimelineGlyphs: each slot class is drawn with its glyph, and a
// jammed slot is drawn as jammed whatever its outcome.
func TestTimelineGlyphs(t *testing.T) {
	got := render(t, []SlotEvent{
		{Slot: 0, Outcome: channel.OutcomeSuccess},
		{Slot: 1, Outcome: channel.OutcomeNoisy},
		{Slot: 2, Outcome: channel.OutcomeEmpty},
		{Slot: 3, Outcome: channel.OutcomeNoisy, Jammed: true},
		{Slot: 4, Outcome: channel.OutcomeEmpty, Jammed: true},
	})
	if got != "Sx.!!\n" {
		t.Fatalf("timeline = %q, want %q", got, "Sx.!!\n")
	}
}

func TestTimelineStreamsAndCounts(t *testing.T) {
	var b bytes.Buffer
	tl := NewTimeline(&b)
	for i := int64(0); i < 160; i++ {
		tl.RecordSlot(slot(i))
	}
	// Two full lines are out before Flush; the partial third is held.
	full := strings.Repeat("S", 76) + "\n"
	if b.String() != full+full {
		t.Fatalf("before Flush: %q", b.String())
	}
	if err := tl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tl.Flush(); err != nil || b.String() != full+full+"SSSSSSSS\n" {
		t.Fatalf("after Flush: %q (%v)", b.String(), err)
	}
	tl.RecordSlot(SlotEvent{Slot: 160, Outcome: channel.OutcomeNoisy})
	tl.RecordSlot(SlotEvent{Slot: 161, Jammed: true})
	tl.RecordSlot(SlotEvent{Slot: 162, Outcome: channel.OutcomeEmpty})
	if s, c, e, j := tl.Counts(); s != 160 || c != 1 || e != 1 || j != 1 {
		t.Fatalf("Counts = %d/%d/%d/%d, want 160/1/1/1", s, c, e, j)
	}
}

type failWriter struct{ writes int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	return 0, errors.New("disk full")
}

func TestTimelineStickyError(t *testing.T) {
	w := &failWriter{}
	tl := NewTimeline(w)
	for i := int64(0); i < 200; i++ {
		tl.RecordSlot(slot(i))
	}
	if err := tl.Flush(); err == nil || err.Error() != "disk full" {
		t.Fatalf("Flush = %v, want the write error", err)
	}
	if w.writes != 1 {
		t.Fatalf("%d writes after the first failure, want none", w.writes-1)
	}
}
