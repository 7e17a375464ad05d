package spin

import (
	"runtime"
	"sync/atomic"
)

// Budget is how long a parking wait spins before it blocks: Busy pure
// busy-loop iterations, then Yield runtime.Gosched calls, re-checking the
// condition before each.
type Budget struct {
	Busy, Yield int
}

// ParkBudget returns the spin budget of a parking wait. When the waker owns
// a core (the paper's deployment) the condition usually flips within a few
// cache-line round trips, so the waiter spins Waiter's busy and yield
// phases and parks where Waiter would start sleeping. When goroutines
// outnumber cores (oversubscribed) the waker is most likely not running:
// spinning only delays it, so the waiter yields twice and parks. Two yields
// measured best on a 2-core host; 16 or 64 busy iterations cost 10-40%.
func ParkBudget(oversubscribed bool) Budget {
	if oversubscribed {
		return Budget{Yield: 2}
	}
	return Budget{Busy: BusyIters, Yield: YieldIters}
}

// Parker is a one-waiter park/wake handoff: an atomic parked flag plus a
// 1-buffered channel. Exactly one goroutine may wait on a Parker at a time;
// any number may wake it. Initialize with Init before use.
//
// The waiter stores parked=1, re-checks its condition and only then blocks
// on the channel. A waker first makes the condition true, then loads the
// flag; if it is set, the waker clears it with a CAS and sends without
// blocking. Go atomics are sequentially consistent, so of the waiter's
// re-check and the waker's flag load at least one observes the other's
// write: either the waiter sees its condition true and does not block, or
// the waker sees parked=1 and sends. No wakeup is lost. A token may outlive
// the wait it was meant for (the waiter's re-check succeeded first); it
// surfaces as a spurious wakeup of the next wait, which is why every wait
// loops on its condition.
type Parker struct {
	parked atomic.Uint32
	ch     chan struct{}
}

// Init allocates the parker's wake channel.
func (p *Parker) Init() { p.ch = make(chan struct{}, 1) }

// Wait returns once cond() holds. It spins b's budget, then parks until an
// Unpark. Whoever makes cond true must call Unpark afterwards. Only one
// goroutine may be in Wait at a time.
func (p *Parker) Wait(b Budget, cond func() bool) {
	for i := 0; i < b.Busy; i++ {
		if cond() {
			return
		}
	}
	for i := 0; i < b.Yield; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	for !cond() {
		p.parked.Store(1)
		if cond() {
			p.parked.Store(0)
			return
		}
		<-p.ch
	}
}

// Unpark wakes the waiter if it is parked or about to park. Call it after
// making the waiter's condition true; it costs one atomic load when nobody
// waits.
func (p *Parker) Unpark() {
	if p.parked.Load() != 0 && p.parked.CompareAndSwap(1, 0) {
		select {
		case p.ch <- struct{}{}:
		default:
		}
	}
}
