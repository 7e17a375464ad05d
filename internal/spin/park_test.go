package spin

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// pingPong runs rounds round trips between two goroutines through two
// parkers: one publishes an odd value and waits for the other's even reply.
// Each wait parks after the budget b returns for it. With jitter set, each
// side also busy-loops a random 0-63 iterations before it publishes, and b
// is handed a fresh random number per wait, so publishes land at every point
// of the other side's spin-to-park transition. It returns the number of
// completed rounds, stopping early if deadline passes (a lost wakeup leaves
// both sides parked).
func pingPong(rounds int, b func(rnd uint64) Budget, jitter bool, deadline time.Duration) int {
	var flag atomic.Uint64
	var ping, pong Parker
	ping.Init()
	pong.Init()
	var stop atomic.Bool
	publish := func(rng *uint64, v uint64, p *Parker) {
		*rng = *rng*6364136223846793005 + 1442695040888963407
		if jitter {
			for i := *rng >> 58; i > 0; i-- {
				if stop.Load() {
					break
				}
			}
		}
		flag.Store(v)
		p.Unpark()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := uint64(1)
		for next := uint64(1); next < uint64(2*rounds); next += 2 {
			ping.Wait(b(rng), func() bool { return stop.Load() || flag.Load() == next })
			if stop.Load() {
				return
			}
			publish(&rng, next+1, &pong)
		}
	}()
	finished := make(chan int)
	go func() {
		rng := uint64(2)
		r := 0
		for ; r < rounds; r++ {
			want := uint64(2*r + 2)
			publish(&rng, want-1, &ping)
			pong.Wait(b(rng), func() bool { return stop.Load() || flag.Load() == want })
			if stop.Load() {
				break
			}
		}
		finished <- r
	}()
	select {
	case r := <-finished:
		<-done
		return r
	case <-time.After(deadline):
		stop.Store(true)
		ping.Unpark()
		pong.Unpark()
		r := <-finished
		<-done
		return r
	}
}

// TestParkerNoLostWakeup ping-pongs 10^5 rounds per GOMAXPROCS and budget
// shape, with every wait that is not satisfied within its budget going
// through the flag-store/re-check/block sequence while the other side's
// Unpark races it. A lost wakeup parks both sides for good and trips the
// deadline.
func TestParkerNoLostWakeup(t *testing.T) {
	const rounds = 100_000
	budgets := map[string]func(uint64) Budget{
		"park":   func(uint64) Budget { return Budget{} },
		"yield":  func(uint64) Budget { return Budget{Yield: 1} },
		"jitter": func(rnd uint64) Budget { return Budget{Busy: int(rnd>>52) & 63} },
	}
	for _, procs := range []int{1, 2, 4} {
		for _, name := range []string{"park", "yield", "jitter"} {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				if got := pingPong(rounds, budgets[name], name == "jitter", 30*time.Second); got != rounds {
					t.Fatalf("stalled after %d of %d round trips: lost wakeup", got, rounds)
				}
			})
		}
	}
}

// TestParkerStaleToken checks that a token left over from an earlier wake
// only causes a spurious wakeup: Wait still returns only once its condition
// holds.
func TestParkerStaleToken(t *testing.T) {
	var p Parker
	p.Init()
	p.parked.Store(1)
	p.Unpark() // no waiter: the token stays buffered
	if len(p.ch) != 1 || p.parked.Load() != 0 {
		t.Fatalf("Unpark of a flagged parker: %d tokens, parked=%d", len(p.ch), p.parked.Load())
	}
	var ready atomic.Bool
	returned := make(chan struct{})
	go func() {
		p.Wait(Budget{}, ready.Load)
		close(returned)
	}()
	select {
	case <-returned:
		t.Fatal("Wait returned before its condition held")
	case <-time.After(20 * time.Millisecond):
	}
	ready.Store(true)
	p.Unpark()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not return after its condition held and Unpark")
	}
}

// TestParkerUnparkIdle checks that Unpark with no waiter leaves no token.
func TestParkerUnparkIdle(t *testing.T) {
	var p Parker
	p.Init()
	p.Unpark()
	if len(p.ch) != 0 {
		t.Fatal("Unpark without a waiter buffered a token")
	}
	p.Wait(Budget{}, func() bool { return true })
	if p.parked.Load() != 0 {
		t.Fatal("a satisfied Wait left the parked flag set")
	}
}

func TestParkBudget(t *testing.T) {
	if b := ParkBudget(true); b != (Budget{Yield: 2}) {
		t.Errorf("oversubscribed budget %+v", b)
	}
	if b := ParkBudget(false); b != (Budget{Busy: BusyIters, Yield: YieldIters}) {
		t.Errorf("own-core budget %+v, want Waiter's busy and yield phases", b)
	}
}

// benchHandoff times one client->server->client round trip over a shared
// flag, the exchange an RInval client and its commit-server make per commit.
// wait(next) must return once the flag equals next; signal(side) is called
// after the flag changes, with side 0 for a store the server awaits and 1
// for one the client awaits.
func benchHandoff(b *testing.B, procs int, flag *atomic.Uint64, wait func(side int, next uint64), signal func(side int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for next := uint64(1); ; next += 2 {
			wait(0, next)
			if stop.Load() {
				return
			}
			flag.Store(next + 1)
			signal(1)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		flag.Store(2*seq - 1)
		signal(0)
		wait(1, 2*seq)
	}
	b.StopTimer()
	stop.Store(true)
	flag.Store(2*uint64(b.N) + 1)
	signal(0)
	<-done
}

// BenchmarkWaiterHandoff is the round trip with both sides waiting in
// Waiter (spin, yield, sleep), as the RInval client and server did before
// parking.
func BenchmarkWaiterHandoff(b *testing.B) {
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var flag atomic.Uint64
			benchHandoff(b, procs, &flag, func(_ int, next uint64) {
				var w Waiter
				for flag.Load() < next {
					w.Wait()
				}
			}, func(int) {})
		})
	}
}

// BenchmarkParkHandoff is the round trip through two Parkers with the
// budget the RInval engines pick for this GOMAXPROCS.
func BenchmarkParkHandoff(b *testing.B) {
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var flag atomic.Uint64
			var parks [2]Parker
			parks[0].Init()
			parks[1].Init()
			budget := ParkBudget(procs < 4)
			benchHandoff(b, procs, &flag, func(side int, next uint64) {
				parks[side].Wait(budget, func() bool { return flag.Load() >= next })
			}, func(side int) { parks[side].Unpark() })
		})
	}
}
