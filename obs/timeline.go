package obs

import (
	"io"
	"strconv"
)

// timelineWidth is the Timeline's line width in bytes.
const timelineWidth = 76

// Timeline renders the slot stream as a compact ASCII strip, one glyph per
// resolved slot (see SlotEvent.Glyph: S success, x collision, . heard
// empty, ! jammed) with runs of unresolved slots between two resolved ones
// shown as "(+n)". Lines wrap at 76 bytes. It is the slot-level view of
// the paper's Figure 1.
//
// Timeline streams: it holds at most one line, writes each completed line
// to the underlying writer in one Write call, and keeps only the outcome
// counts besides, so its memory does not grow with the run. Flush writes
// the final partial line. Errors are sticky, as in the other sinks. Packet
// events are ignored.
type Timeline struct {
	w    io.Writer
	line []byte
	prev int64
	err  error

	successes, collisions, empties, jammed int64
}

// NewTimeline returns a Timeline writing to w.
func NewTimeline(w io.Writer) *Timeline {
	return &Timeline{w: w, prev: -1}
}

// RecordSlot implements Recorder.
func (t *Timeline) RecordSlot(ev SlotEvent) {
	if t.prev >= 0 && ev.Slot > t.prev+1 {
		var gap [24]byte
		b := append(gap[:0], "(+"...)
		b = strconv.AppendInt(b, ev.Slot-t.prev-1, 10)
		t.emit(append(b, ')'))
	}
	g := ev.Glyph()
	switch g {
	case 'S':
		t.successes++
	case 'x':
		t.collisions++
	case '.':
		t.empties++
	case '!':
		t.jammed++
	}
	t.emit([]byte{g})
	t.prev = ev.Slot
}

// RecordPacket implements Recorder; the timeline shows slots only.
func (t *Timeline) RecordPacket(PacketEvent) {}

// emit appends s to the current line, first ending the line if s would
// push it past the width.
func (t *Timeline) emit(s []byte) {
	if len(t.line)+len(s) > timelineWidth {
		t.writeLine()
	}
	t.line = append(t.line, s...)
}

// writeLine writes the current line and a newline, then starts a new one.
func (t *Timeline) writeLine() {
	t.line = append(t.line, '\n')
	if t.err == nil {
		_, t.err = t.w.Write(t.line)
	}
	t.line = t.line[:0]
}

// Flush implements Flusher: it ends the current line, if it has any
// glyphs, and reports the sticky error.
func (t *Timeline) Flush() error {
	if len(t.line) > 0 {
		t.writeLine()
	}
	return t.err
}

// Counts returns the number of resolved slots seen so far in each glyph
// class: successes, collisions, heard-empty slots, and jammed slots.
func (t *Timeline) Counts() (successes, collisions, empties, jammed int64) {
	return t.successes, t.collisions, t.empties, t.jammed
}
