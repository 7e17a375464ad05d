// Command benchmark is the repository benchmark: closed-loop workloads run
// against four STM engines through the public stm API. An untraced run
// prints the end-to-end metrics; a traced run (-trace 1) prints per-layer
// metrics derived from spans the benchmark records around its own calls
// into each layer. Every run checks the data afterwards. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"github.com/ssrg-vt/rinval/stm"
)

// Run shape. Each round runs every engine once on fresh data; every metric
// is the median over rounds, so one disturbed window does not move it. On a
// shared 2-core host, 20 rather than 10 rounds did not narrow the spread
// between runs: that spread comes from the host, not from sampling.
const (
	defaultRounds = 10
	warmupTime    = 100 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: rbtree-50, rbtree-90 or transfer")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "measured seconds, split over every engine and round")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	sha := fs.String("git-sha", "unknown", "commit the benchmarked code was built from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, rounds: defaultRounds, warmup: warmupTime, trace: *trace == 1}
	res, err := benchmark(w, o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	res.report.Fingerprint.GitSHA = *sha
	if o.trace {
		path := fmt.Sprintf(".bench_build/spans-%s-%d.json", w.name, o.seed)
		if err := writeSpans(path, res.report.Fingerprint, res.spans); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, msg := range res.checkErrs {
		fmt.Fprintln(stderr, "check failed:", msg)
	}
	report, err := json.Marshal(res.report)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", report, line)
	if !res.out.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the last line a run prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint identifies what produced a run. Two runs are comparable only
// when their fingerprints match outside seed and git_sha: at GOMAXPROCS < 4
// the engines yield once per transaction.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	OSArch     string  `json:"os_arch"`
	GitSHA     string  `json:"git_sha"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	Clients    int     `json:"clients"`
	Trace      bool    `json:"trace"`
	// Samples is the latency sample count behind each engine's p50/p99.
	Samples map[string]int `json:"samples"`
}

// roundReport is one engine-round as the report line shows it.
type roundReport struct {
	Round     int     `json:"round"`
	SetupS    float64 `json:"setup_s"`
	TxPerS    float64 `json:"tx_per_s"`
	P50Us     float64 `json:"p50_us"`
	P99Us     float64 `json:"p99_us"`
	Committed uint64  `json:"committed"`
	Traced    float64 `json:"traced_tx_per_s,omitempty"`
}

// report is the line printed before the result: the fingerprint and every
// engine-round the medians were taken over.
type report struct {
	Fingerprint fingerprint              `json:"fingerprint"`
	Rounds      map[string][]roundReport `json:"rounds"`
}

type result struct {
	out       output
	report    report
	spans     []spanWindow
	checkErrs []string
}

// benchmark runs the workload on every engine and derives the metrics.
func benchmark(w *workload, o options) (*result, error) {
	rounds, err := newRunner(w, o).runAll()
	if err != nil {
		return nil, err
	}
	res := &result{
		out: output{Correct: true, Metrics: map[string]metric{}},
		report: report{
			Fingerprint: fingerprint{
				NProc:      runtime.NumCPU(),
				GOMAXPROCS: runtime.GOMAXPROCS(0),
				GoVersion:  runtime.Version(),
				OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
				Workload:   w.name,
				Seed:       o.seed,
				Seconds:    o.seconds,
				Rounds:     o.rounds,
				Clients:    clients,
				Trace:      o.trace,
				Samples:    map[string]int{},
			},
			Rounds: map[string][]roundReport{},
		},
	}
	set := func(name, unit string, v float64) { res.out.Metrics[name] = metric{Value: v, Unit: unit} }
	setupS := 0.0
	var readsPerTx, writesPerTx []float64
	for _, algo := range engines {
		e := algo.String()
		rs := rounds[algo]
		per := func(f func(r roundResult) float64) float64 {
			xs := make([]float64, len(rs))
			for i, r := range rs {
				xs[i] = f(r)
			}
			return median(xs)
		}
		for i, r := range rs {
			res.out.Attempted += r.attempted
			res.out.Failed += r.failed
			if r.checkErr != nil {
				res.out.Correct = false
				res.checkErrs = append(res.checkErrs, fmt.Sprintf("%s round %d: %v", e, i, r.checkErr))
			}
			res.report.Fingerprint.Samples[e] += r.base.samples
			res.report.Rounds[e] = append(res.report.Rounds[e], roundReport{
				Round: i, SetupS: r.setup.Seconds(), TxPerS: r.base.txPerS,
				P50Us: r.base.p50 / 1e3, P99Us: r.base.p99 / 1e3,
				Committed: r.base.committed, Traced: r.traced.txPerS,
			})
			res.spans = append(res.spans, r.spans...)
		}
		setupS += per(func(r roundResult) float64 { return r.setup.Seconds() })
		txPerS := per(func(r roundResult) float64 { return r.base.txPerS })
		if !o.trace {
			set(e+".tx_per_s", "1/s", txPerS)
			set(e+".p50_us", "us", per(func(r roundResult) float64 { return r.base.p50 / 1e3 }))
			set(e+".p99_us", "us", per(func(r roundResult) float64 { return r.base.p99 / 1e3 }))
			continue
		}

		// Spans of the traced window.
		set(e+".body_ns", "ns", per(func(r roundResult) float64 {
			return ratio(float64(r.traced.trace.bodyNs), float64(r.traced.trace.attempts))
		}))
		set(e+".commit_ns", "ns", per(func(r roundResult) float64 {
			return ratio(float64(r.traced.trace.commitNs), float64(r.traced.trace.txs))
		}))
		set(e+".commit_p99_ns", "ns", per(func(r roundResult) float64 { return r.traced.commitP99 }))
		set(e+".retry_ns", "ns", per(func(r roundResult) float64 {
			return ratio(float64(r.traced.trace.retryNs), float64(r.traced.trace.txs))
		}))
		set(e+".tx_self_ns", "ns", per(func(r roundResult) float64 {
			return ratio(float64(r.traced.trace.selfNs), float64(r.traced.trace.txs))
		}))
		set(e+".commit_ratio", "ratio", per(func(r roundResult) float64 {
			return ratio(float64(r.traced.trace.txs), float64(r.traced.trace.attempts))
		}))
		set(e+".trace_overhead", "ratio", ratio(per(func(r roundResult) float64 { return r.traced.txPerS }), txPerS))

		// Engine and runtime counters of the untraced window, per committed
		// transaction as the benchmark counted them.
		perTx := func(f func(w window) uint64, scale float64) float64 {
			return per(func(r roundResult) float64 {
				return scale * ratio(float64(f(r.base)), float64(r.base.committed))
			})
		}
		set(e+".aborts_invalidated_per_ktx", "1/ktx", perTx(func(w window) uint64 { return w.aborts[stm.AbortInvalidated] }, 1e3))
		set(e+".aborts_validation_per_ktx", "1/ktx", perTx(func(w window) uint64 { return w.aborts[stm.AbortValidation] }, 1e3))
		set(e+".aborts_locked_per_ktx", "1/ktx", perTx(func(w window) uint64 { return w.aborts[stm.AbortLocked] }, 1e3))
		reads := perTx(func(w window) uint64 { return w.reads }, 1)
		writes := perTx(func(w window) uint64 { return w.writes }, 1)
		set(e+".reads_per_tx", "1/tx", reads)
		set(e+".writes_per_tx", "1/tx", writes)
		set(e+".allocs_per_tx", "1/tx", perTx(func(w window) uint64 { return w.mallocs }, 1))
		set(e+".alloc_bytes_per_tx", "B/tx", perTx(func(w window) uint64 { return w.allocBytes }, 1))
		switch algo {
		case stm.NOrec:
			set(e+".validation_ops_per_tx", "1/tx", perTx(func(w window) uint64 { return w.validationOps }, 1))
		case stm.RInvalV1, stm.RInvalV2:
			set(e+".commits_per_epoch", "count", per(func(r roundResult) float64 { return r.commitsPerEpoch }))
			set(e+".queue_depth_mean", "count", per(func(r roundResult) float64 { return r.queueDepth }))
		}
		if algo != stm.NOrec {
			readsPerTx = append(readsPerTx, reads)
			writesPerTx = append(writesPerTx, writes)
		}
	}
	if !o.trace {
		set("setup_s", "s", setupS)
		return res, nil
	}
	// The bloom engines' own set sizes size the bloom measurements.
	r, wr := int(math.Round(median(readsPerTx))), int(math.Round(median(writesPerTx)))
	set("bloom.add_ns", "ns", bloomAddNs(r, o.seed))
	set("bloom.intersect_ns", "ns", bloomIntersectNs(r, wr, o.seed))
	set("spin.handoff_ns", "ns", spinHandoffNs())
	return res, nil
}
