package main

import (
	"math/rand/v2"
	"sync/atomic"
	"time"

	"github.com/ssrg-vt/rinval/internal/bloom"
	"github.com/ssrg-vt/rinval/internal/spin"
)

// Layer micro-measurements time single public functions of one internal
// layer in isolation. Each reports the median over layerBatches batches, so
// one preempted batch does not move it.
const (
	layerBatches = 9
	layerBatch   = 10 * time.Millisecond
)

// sink keeps the compiler from discarding the timed calls' results.
var sink atomic.Uint64

// timeBatches calls f(n) for each batch with n grown until one batch takes
// layerBatch, and returns the median ns per operation, where f(n) performs
// n*per operations.
func timeBatches(per int, f func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		f(n)
		if time.Since(t0) >= layerBatch || n >= 1<<30 {
			break
		}
		n *= 2
	}
	ns := make([]float64, layerBatches)
	for i := range ns {
		t0 := time.Now()
		f(n)
		ns[i] = float64(time.Since(t0)) / float64(n*per)
	}
	return median(ns)
}

func randomIDs(seed uint64, n int) []uint64 {
	r := rand.New(rand.NewPCG(seed, streamLayer))
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = r.Uint64()
	}
	return ids
}

// bloomAddNs times bloom.Atomic.Add at bloom.DefaultParams as a reading
// transaction uses it: Clear, then one Add per read. The per-transaction
// Clear is amortized into the per-Add figure.
func bloomAddNs(reads int, seed uint64) float64 {
	reads = max(reads, 1)
	ids := randomIDs(seed, 4096)
	a := bloom.NewAtomic(bloom.DefaultParams)
	k := 0
	return timeBatches(reads, func(n int) {
		for range n {
			a.Clear()
			for range reads {
				a.Add(ids[k&(len(ids)-1)])
				k++
			}
		}
	})
}

// bloomIntersectNs times bloom.Atomic.IntersectsFilter at bloom.DefaultParams
// between read filters of reads ids and write filters of writes ids, as a
// commit's invalidation scan does.
func bloomIntersectNs(reads, writes int, seed uint64) float64 {
	const pairs = 64
	reads, writes = max(reads, 1), max(writes, 1)
	ids := randomIDs(seed, pairs*(reads+writes))
	rs := make([]*bloom.Atomic, pairs)
	ws := make([]*bloom.Filter, pairs)
	for i := range pairs {
		rs[i] = bloom.NewAtomic(bloom.DefaultParams)
		ws[i] = bloom.NewFilter(bloom.DefaultParams)
		for _, id := range ids[:reads] {
			rs[i].Add(id)
		}
		ids = ids[reads:]
		for _, id := range ids[:writes] {
			ws[i].Add(id)
		}
		ids = ids[writes:]
	}
	return timeBatches(1, func(n int) {
		hits := uint64(0)
		for i := range n {
			if rs[i%pairs].IntersectsFilter(ws[(i/pairs+i)%pairs]) {
				hits++
			}
		}
		sink.Add(hits)
	})
}

// spinHandoffNs times the round trip of a flag ping-pong between two
// goroutines that each wait with spin.Waiter, the wait a client and a
// commit-server use for each other's slot.
func spinHandoffNs() float64 {
	var flag atomic.Uint64
	var seq uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for next := uint64(1); ; next += 2 {
			var w spin.Waiter
			for flag.Load() != next {
				select {
				case <-stop:
					return
				default:
				}
				w.Wait()
			}
			flag.Store(next + 1)
		}
	}()
	ns := timeBatches(1, func(n int) {
		for range n {
			seq++
			flag.Store(2*seq - 1)
			var w spin.Waiter
			for flag.Load() != 2*seq {
				w.Wait()
			}
		}
	})
	close(stop)
	<-done
	return ns
}
