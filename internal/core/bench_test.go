package core_test

import (
	"testing"

	"lowsensing/channel"
	"lowsensing/internal/core"
	"lowsensing/prng"
)

// BenchmarkPacketAccess measures one access of the core algorithm: the
// ScheduleNext draw (geometric gap and send coin) plus the Observe update.
//
//   - steady: a packet at WMin hearing silence or a success, the common case
//     of a lightly loaded channel, where the window never moves.
//   - contended: a packet near w = 1000 hearing noise below 1000 and silence
//     above, so the window moves on every access.
func BenchmarkPacketAccess(b *testing.B) {
	b.Run("steady", func(b *testing.B) {
		p, err := core.NewPacket(core.Default())
		if err != nil {
			b.Fatal(err)
		}
		obs := [2]channel.Observation{{Outcome: channel.OutcomeEmpty}, {Outcome: channel.OutcomeSuccess}}
		rng := prng.New(1)
		var sink int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot, _ := p.ScheduleNext(int64(i), rng)
			sink ^= slot
			p.Observe(obs[i&1])
		}
		_ = sink
	})
	b.Run("contended", func(b *testing.B) {
		p, err := core.NewPacket(core.Default())
		if err != nil {
			b.Fatal(err)
		}
		noisy := channel.Observation{Outcome: channel.OutcomeNoisy}
		empty := channel.Observation{Outcome: channel.OutcomeEmpty}
		for p.Window() < 1000 {
			p.Observe(noisy)
		}
		rng := prng.New(1)
		var sink int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot, _ := p.ScheduleNext(int64(i), rng)
			sink ^= slot
			if p.Window() < 1000 {
				p.Observe(noisy)
			} else {
				p.Observe(empty)
			}
		}
		_ = sink
	})
}
