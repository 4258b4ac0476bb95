package sim

import (
	"testing"
	"unsafe"

	"lowsensing/internal/arrivals"
	"lowsensing/internal/core"
)

// TestWheelMemoryIsBacklogBounded runs the pathological fan-in workload —
// a large batch whose packets all schedule within the initial 16-slot
// window — and checks the wheel's retained storage stays proportional to
// the peak backlog (nodes + one drain buffer), not to the sum of bucket
// high-water marks the per-bucket-slice design would retain.
func TestWheelMemoryIsBacklogBounded(t *testing.T) {
	const n = 20000
	e, err := NewEngine(Params{
		Seed:          1,
		Arrivals:      arrivals.NewBatch(n),
		NewStation:    core.MustFactory(core.Default()),
		ReuseStations: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(e.events.nodes); got > n {
		t.Fatalf("wheel holds %d nodes, want <= peak backlog %d", got, n)
	}
	if got := cap(e.events.drain); got > n {
		t.Fatalf("drain buffer capacity %d exceeds peak backlog %d", got, n)
	}
	t.Logf("nodes %d, drain cap %d", len(e.events.nodes), cap(e.events.drain))
}

// TestWheelSizeIsBounded pins the wheel's fixed footprint, which every
// engine embeds (a cluster sweep builds one engine per channel per job):
// spanning all of int64 with list-headed upper levels must stay within
// the 29,568 B that three inline-header levels plus a far-future heap
// used to take.
func TestWheelSizeIsBounded(t *testing.T) {
	got := unsafe.Sizeof(timingWheel{})
	if got > 29568 {
		t.Fatalf("timingWheel is %d B, want <= 29568", got)
	}
	t.Logf("timingWheel is %d B", got)
}
