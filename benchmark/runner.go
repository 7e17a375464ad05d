package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ssrg-vt/rinval/stm"
)

// engines are the engines every workload runs: the paper's validation and
// invalidation baselines, then remote commit (V1) and remote commit with
// parallel remote invalidation (V2).
var engines = []stm.Algo{stm.NOrec, stm.InvalSTM, stm.RInvalV1, stm.RInvalV2}

// clients is the closed-loop client count: one per core of the 2-core host
// the benchmark was sized on. One client left the servers idle long enough
// to sleep in spin.Waiter, which showed as millisecond tail latencies.
const clients = 2

// options fixes one benchmark run.
type options struct {
	seed    uint64
	seconds float64 // measured time, split evenly over every window
	rounds  int     // each round runs every engine once, in rotated order
	warmup  time.Duration
	trace   bool
}

func (o options) window() time.Duration {
	phases := 1
	if o.trace {
		phases = 2 // an untraced and a traced window per engine-round
	}
	return time.Duration(o.seconds * float64(time.Second) / float64(o.rounds*len(engines)*phases))
}

// window is what one measured or traced phase of one engine-round produced.
type window struct {
	committed, attempted uint64
	txPerS               float64
	// Untraced: latency quantiles in ns over samples transactions.
	p50, p99 float64
	samples  int
	// Deltas of System.Stats and of the Go runtime's allocation counters.
	reads, writes, validationOps uint64
	aborts                       [stm.NumAbortReasons]uint64
	mallocs, allocBytes          uint64
	// Traced: span aggregates and the 99th percentile commit span in ns.
	trace     traceAgg
	commitP99 float64
}

// roundResult is one engine's run in one round.
type roundResult struct {
	setup        time.Duration
	base, traced window
	// RInval commit-server counters, read after Close.
	commitsPerEpoch, queueDepth float64
	attempted, failed           uint64
	checkErr                    error
	spans                       []spanWindow
}

// runner holds the sample stores every engine-round reuses.
type runner struct {
	o       options
	w       *workload
	bufs    [clients]*buffers
	scratch []uint32
}

func newRunner(w *workload, o options) *runner {
	r := &runner{o: o, w: w, scratch: make([]uint32, 0, clients*sampleCap)}
	for i := range r.bufs {
		r.bufs[i] = newBuffers()
	}
	return r
}

// runRound builds the workload on a fresh System of the given engine,
// warms it up, measures it, and checks the data afterwards.
func (r *runner) runRound(algo stm.Algo, round int) (roundResult, error) {
	var res roundResult
	cfg := stm.Config{Algo: algo, Seed: newRand(r.o.seed, round, streamConfig).Uint64() | 1}

	t0 := time.Now()
	data, err := prefill(r.w, cfg, r.o.seed, round)
	if err != nil {
		return res, err
	}
	// The pre-fill ran on its own System, so the run System's server-side
	// counters cover only the workload.
	sys, err := stm.New(cfg)
	if err != nil {
		return res, err
	}
	res.setup = time.Since(t0)

	cs := make([]*client, clients)
	for i := range cs {
		th, err := sys.Register()
		if err != nil {
			for _, c := range cs[:i] {
				c.th.Close()
			}
			_ = sys.Close() // the Register error is the one to report
			return res, err
		}
		ops := opStream{w: r.w, r: newRand(r.o.seed, round, streamClient+uint64(i)<<16)}
		cs[i] = newClient(i, th, data, ops, r.bufs[i])
	}
	count := func() {
		for _, c := range cs {
			res.attempted += c.attempted
			res.failed += c.failed
		}
	}
	runPhase(cs, warmup, r.o.warmup)
	count()
	res.base = r.measure(sys, cs, measured)
	count()
	if r.o.trace {
		res.traced = r.measure(sys, cs, traced)
		count()
		for _, c := range cs {
			res.spans = append(res.spans, keptSpans(algo.String(), round, c))
		}
	}
	net := 0
	for _, c := range cs {
		net += c.net
		c.th.Close()
	}
	if err := sys.Close(); err != nil {
		return res, err
	}

	var commits, epochs, depthSum, depthN uint64
	for _, s := range sys.ShardServerStats() {
		commits += s.Commits
		epochs += s.Epochs
		depthSum += s.Server.QueueDepth.Sum()
		depthN += s.Server.QueueDepth.Count()
	}
	res.commitsPerEpoch = ratio(float64(commits), float64(epochs))
	res.queueDepth = ratio(float64(depthSum), float64(depthN))

	if res.checkErr = data.check(net); res.checkErr != nil {
		res.failed = res.attempted
	}
	return res, nil
}

// prefill builds the workload's data through a System of its own.
func prefill(w *workload, cfg stm.Config, seed uint64, round int) (*dataset, error) {
	sys, err := stm.New(cfg)
	if err != nil {
		return nil, err
	}
	th, err := sys.Register()
	if err != nil {
		_ = sys.Close() // the Register error is the one to report
		return nil, err
	}
	data, err := newDataset(w, th, seed, round)
	th.Close()
	if cerr := sys.Close(); err == nil {
		err = cerr
	}
	return data, err
}

// measure runs one phase and collects what it recorded.
func (r *runner) measure(sys *stm.System, cs []*client, mode phaseMode) window {
	runtime.GC()
	s0 := sys.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	elapsed := runPhase(cs, mode, r.o.window())
	runtime.ReadMemStats(&m1)
	s1 := sys.Stats()

	w := window{
		reads:         s1.Reads - s0.Reads,
		writes:        s1.Writes - s0.Writes,
		validationOps: s1.ValidationOps - s0.ValidationOps,
		mallocs:       m1.Mallocs - m0.Mallocs,
		allocBytes:    m1.TotalAlloc - m0.TotalAlloc,
	}
	for i := range w.aborts {
		w.aborts[i] = s1.AbortReasons[i] - s0.AbortReasons[i]
	}
	all := r.scratch[:0]
	for _, c := range cs {
		w.committed += c.committed
		w.attempted += c.attempted
		w.trace.add(c.trace)
		if mode == measured {
			all = append(all, c.buf.lat...)
		} else {
			all = append(all, c.buf.commit...)
		}
	}
	w.txPerS = float64(w.committed) / elapsed.Seconds()
	slices.Sort(all)
	if mode == measured {
		w.p50, w.p99, w.samples = quantile(all, 0.50), quantile(all, 0.99), len(all)
	} else {
		w.commitP99 = quantile(all, 0.99)
	}
	return w
}

// runPhase runs every client's closed loop for d and returns the elapsed
// time from the start signal until the last client stopped.
func runPhase(cs []*client, mode phaseMode, d time.Duration) time.Duration {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := make(chan struct{})
	var base time.Time
	wg.Add(len(cs))
	for _, c := range cs {
		go func() {
			defer wg.Done()
			<-start
			c.loop(&stop, mode, base)
		}()
	}
	base = time.Now()
	close(start)
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return time.Since(base)
}

// quantile returns the nearest-rank q-quantile of sorted, or 0 if empty.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(0, min(i, len(sorted)-1))])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runAll runs every engine for o.rounds rounds. Each round starts at the
// next engine, so no engine always runs first on a cold heap.
func (r *runner) runAll() (map[stm.Algo][]roundResult, error) {
	out := make(map[stm.Algo][]roundResult, len(engines))
	for round := range r.o.rounds {
		for k := range engines {
			algo := engines[(k+round)%len(engines)]
			res, err := r.runRound(algo, round)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", algo, round, err)
			}
			out[algo] = append(out[algo], res)
		}
	}
	return out, nil
}
