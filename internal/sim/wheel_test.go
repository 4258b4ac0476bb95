package sim

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"lowsensing/prng"
)

// wheelModel is the reference scheduler the wheel is checked against:
// pending events in a slice kept sorted by (slot, id). It is far too slow
// for the engine, but it shares no code with the wheel, so the two cannot
// agree on a bug.
type wheelModel []event

func (m *wheelModel) push(ev event) {
	i, _ := slices.BinarySearchFunc(*m, ev, func(a, b event) int {
		if c := cmp.Compare(a.slot, b.slot); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	*m = slices.Insert(*m, i, ev)
}

func (m *wheelModel) pop() event {
	ev := (*m)[0]
	*m = (*m)[1:]
	return ev
}

// wheelVsModel drives a timingWheel and the sorted-slice model through an
// identical operation sequence decoded from data, failing if their
// observable behavior ever diverges: pop order (slots AND ids AND payload),
// limited peeks, and sizes. The byte protocol is what the fuzzer mutates:
//
//	op%8 in 0..3: push — three bytes of magnitude u and a shift byte s
//	  build the slot delta u<<(s&63), saturating at MaxInt64, so pushes
//	  reach every wheel level up to slot MaxInt64; s's top bits nudge the
//	  delta by +1 (0x40) or -1 (0x80), landing on either side of a level
//	  boundary. Two more bytes shape the id: the first is a scramble
//	  byte above the push counter, so same-slot events arrive in non-id
//	  order and exercise the drain sort; a second of 0xf0 or more widens
//	  the id past 31 bits, which moves its slot's drain from packed keys
//	  to structs.
//	op%8 in 4..5: pop — both schedulers pop, results must be identical.
//	op%8 in 6..7: limited peek — nextAtMost with a limit at or past the
//	  floor; a miss advances the floor to the limit, exactly like an
//	  engine arrival landing before the event minimum.
//
// The floor models engine time: pushes never go below it, pops/peeks
// advance it. That is the wheel's documented cursor contract.
func wheelVsModel(t *testing.T, data []byte) {
	t.Helper()
	data = data[:min(len(data), 1<<20)] // fewer than 2^20 pushes
	var w timingWheel
	var m wheelModel
	var floor, idCounter int64
	i := 0
	next := func() byte {
		if i < len(data) {
			b := data[i]
			i++
			return b
		}
		return 0
	}
	for i < len(data) {
		switch op := next() % 8; {
		case op < 4: // push
			u := int64(next()) | int64(next())<<8 | int64(next())<<16
			s := next()
			delta := int64(math.MaxInt64)
			if shift := s & 63; u <= math.MaxInt64>>shift {
				delta = u << shift
			}
			switch s >> 6 {
			case 1:
				delta = min(delta, math.MaxInt64-1) + 1
			case 2:
				delta = max(delta-1, 0)
			}
			delta = min(delta, math.MaxInt64-floor)
			// Ids must be unique for a deterministic pop order, which the
			// counter in the low 20 bits guarantees (see the input cap).
			id := int64(next())<<20 | idCounter
			if next() >= 0xf0 {
				id |= 1 << 40
			}
			idCounter++
			ev := event{slot: floor + delta, id: id, idx: int32(idCounter)}
			w.Push(ev)
			m.push(ev)
		case op < 6: // pop
			if len(m) == 0 {
				continue
			}
			want := m.pop()
			got, ok := w.popAtMost(math.MaxInt64)
			if !ok || got != want {
				t.Fatalf("pop: wheel (%+v, %v), model %+v", got, ok, want)
			}
			floor = want.slot
		default: // limited peek
			limit := floor + min(int64(next()), math.MaxInt64-floor)
			wantS, wantOK := int64(0), false
			if len(m) > 0 && m[0].slot <= limit {
				wantS, wantOK = m[0].slot, true
			}
			gotS, gotOK := w.nextAtMost(limit)
			if gotOK != wantOK || (gotOK && gotS != wantS) {
				t.Fatalf("nextAtMost(%d): wheel (%d, %v), model (%d, %v)",
					limit, gotS, gotOK, wantS, wantOK)
			}
			if wantOK {
				floor = wantS
			} else {
				floor = limit
			}
		}
		if w.Len() != len(m) {
			t.Fatalf("size skew: wheel %d, model %d", w.Len(), len(m))
		}
	}
	for len(m) > 0 {
		want := m.pop()
		got, ok := w.popAtMost(math.MaxInt64)
		if !ok || got != want {
			t.Fatalf("drain: wheel (%+v, %v), model %+v", got, ok, want)
		}
	}
	if _, ok := w.popAtMost(math.MaxInt64); ok {
		t.Fatal("wheel still has events after the model drained")
	}
}

// TestWheelMatchesModelRandom is the property test: long random operation
// sequences (from the module's own deterministic prng) must keep the wheel
// and the model behaviorally identical. Random shift bytes spread the
// push deltas over every level, up to saturated pushes at slot MaxInt64.
func TestWheelMatchesModelRandom(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := prng.New(seed)
		data := make([]byte, 4096)
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		wheelVsModel(t, data)
	}
}

// TestWheelLevelBoundaries pins the cascade logic at every level boundary:
// events near the first buckets, one below, at, and one above each
// level's horizon 2^(10+6l), and the last two representable slots, all
// pushed from slot 0, must pop in (slot, id) order.
func TestWheelLevelBoundaries(t *testing.T) {
	deltas := []int64{0, 1, 62, 63, 64, 65, 127, 128, math.MaxInt64 - 1, math.MaxInt64}
	for k := wheelL0Bits; k < 64; k += wheelBits {
		deltas = append(deltas, int64(1)<<k-1, int64(1)<<k, int64(1)<<k+1)
	}
	var w timingWheel
	var m wheelModel
	for k, d := range deltas {
		// Two events per slot with reversed-id pushes so every bucket also
		// checks the same-slot tie order.
		a := event{slot: d, id: int64(2*k + 1), idx: int32(2 * k)}
		b := event{slot: d, id: int64(2 * k), idx: int32(2*k + 1)}
		w.Push(a)
		m.push(a)
		w.Push(b)
		m.push(b)
	}
	for len(m) > 0 {
		want := m.pop()
		got, ok := w.popAtMost(math.MaxInt64)
		if !ok || got != want {
			t.Fatalf("pop: wheel (%+v, %v), model %+v", got, ok, want)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("wheel has %d events left", w.Len())
	}
}

// TestWheelLimitDoesNotOvershoot is the arrival-before-event-minimum case
// the limit parameter exists for: a miss at the limit must leave the
// cursor at or before it, so the engine can still schedule an arriving
// packet's first access below the previously peeked minimum.
func TestWheelLimitDoesNotOvershoot(t *testing.T) {
	var w timingWheel
	w.Push(event{slot: 100000, id: 1, idx: 0})
	if s, ok := w.nextAtMost(500); ok {
		t.Fatalf("nextAtMost(500) = (%d, true), want miss", s)
	}
	// An "arrival" at slot 600 schedules below the pending minimum.
	w.Push(event{slot: 600, id: 2, idx: 1})
	if s, ok := w.nextAtMost(600); !ok || s != 600 {
		t.Fatalf("nextAtMost(600) = (%d, %v), want (600, true)", s, ok)
	}
	ev, ok := w.popAtMost(math.MaxInt64)
	if !ok || ev.id != 2 {
		t.Fatalf("first pop = (%+v, %v), want id 2", ev, ok)
	}
	ev, ok = w.popAtMost(math.MaxInt64)
	if !ok || ev.id != 1 {
		t.Fatalf("second pop = (%+v, %v), want id 1", ev, ok)
	}
}

// TestWheelPushBehindCursorPanics: the cursor contract is load-bearing
// (level-0 buckets are exact only because pending slots never precede the
// cursor), so a violation must fail fast, not corrupt the schedule.
func TestWheelPushBehindCursorPanics(t *testing.T) {
	var w timingWheel
	w.Push(event{slot: 50, id: 1})
	if _, ok := w.popAtMost(math.MaxInt64); !ok {
		t.Fatal("pop failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Push behind cursor did not panic")
		}
	}()
	w.Push(event{slot: 10, id: 2})
}

// FuzzWheelCascade fuzzes the wheel-vs-model equivalence through the same
// byte protocol as the property test. The seed corpus aims mutations at
// the cascade logic: pushes that straddle each level boundary up to slot
// MaxInt64, same-slot ties, and limited peeks that advance the cursor
// between pushes.
func FuzzWheelCascade(f *testing.F) {
	// op byte, then per-op operands (see wheelVsModel).
	push := func(lo, mid, hi, shift, idHi1, idHi2 byte) []byte {
		return []byte{0, lo, mid, hi, shift, idHi1, idHi2}
	}
	pop := []byte{4}
	peek := func(d byte) []byte { return []byte{6, d} }
	cat := func(chunks ...[]byte) []byte {
		var out []byte
		for _, c := range chunks {
			out = append(out, c...)
		}
		return out
	}
	// Same slot, scrambled ids: the drain sort.
	f.Add(cat(push(5, 0, 0, 0, 9, 0), push(5, 0, 0, 0, 1, 0), push(5, 0, 0, 0, 4, 0), pop, pop, pop))
	// One event just inside each of the lowest levels, then drain.
	f.Add(cat(push(63, 0, 0, 0, 0, 0), push(64, 0, 0, 0, 0, 0), push(0, 16, 0, 0, 0, 0),
		push(0, 0, 4, 0, 0, 0), pop, pop, pop, pop))
	// Level 2/3 boundaries via the shift operand (0xffff<<4 > 2^18).
	f.Add(cat(push(255, 255, 0, 4, 0, 0), push(255, 255, 3, 0, 2, 0), pop, pop))
	// A 3-byte magnitude shifted past 2^28, then a near-future push, then
	// pops that must interleave correctly.
	f.Add(cat(push(255, 255, 255, 7, 0, 0), push(1, 0, 0, 0, 0, 0), pop, pop))
	// Limited peeks that miss (advancing the cursor) between pushes.
	f.Add(cat(push(0, 4, 0, 0, 0, 0), peek(20), push(30, 0, 0, 0, 0, 0), pop, pop, peek(255)))
	// Dense same-slot ties across a cascade: a level-1 bucket whose events
	// spread over multiple exact slots plus duplicates.
	f.Add(cat(push(70, 0, 0, 0, 3, 0), push(70, 0, 0, 0, 1, 0), push(71, 0, 0, 0, 2, 0),
		push(100, 0, 0, 0, 0, 0), pop, pop, pop, pop))
	// Each level boundary 2^(10+6l): one below (shift byte 0x80|k), at,
	// and one above (0x40|k), then a drain through every level.
	for k := byte(wheelL0Bits); k < 64; k += wheelBits {
		f.Add(cat(push(1, 0, 0, 0x80|k, 0, 0), push(1, 0, 0, k, 0, 0), push(1, 0, 0, 0x40|k, 0, 0),
			push(1, 0, 0, 0, 0, 0), pop, pop, pop, pop))
	}
	// Slot MaxInt64 (a saturated push) and the slot before it, with a
	// same-slot tie, then a peek that cannot overflow the limit.
	f.Add(cat(push(255, 255, 255, 63, 1, 0), push(255, 255, 255, 63, 0, 0),
		push(255, 255, 255, 0x80|63, 0, 0), pop, pop, peek(255), pop))
	// Wide ids mixed into a same-slot bucket (the struct drain), and one
	// arriving mid-drain at the drained slot (packed keys convert to
	// structs).
	f.Add(cat(push(5, 0, 0, 0, 9, 0xff), push(5, 0, 0, 0, 1, 0), push(5, 0, 0, 0, 4, 0xff),
		push(5, 0, 0, 0, 2, 0), pop, pop, pop, pop))
	f.Add(cat(push(5, 0, 0, 0, 9, 0), push(5, 0, 0, 0, 1, 0), push(5, 0, 0, 0, 4, 0), pop,
		push(0, 0, 0, 0, 3, 0xff), push(0, 0, 0, 0, 0, 0), pop, pop, pop, pop))
	// Same-slot buckets past insertionMax: the radix sorts, packed and
	// struct.
	for _, width := range []byte{0, 0xff} {
		var chunks [][]byte
		for k := 0; k < 2*insertionMax; k++ {
			chunks = append(chunks, push(5, 0, 0, 0, byte(k*37), width))
		}
		for k := 0; k < 2*insertionMax; k++ {
			chunks = append(chunks, pop)
		}
		f.Add(cat(chunks...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wheelVsModel(t, data)
	})
}
