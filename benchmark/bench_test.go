package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/ssrg-vt/rinval/stm"
)

// short is a run shape small enough for tests: one round, short windows.
func short(seed uint64, trace bool) options {
	return options{seed: seed, seconds: 0.4, rounds: 1, warmup: 20 * time.Millisecond, trace: trace}
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s missing from BENCHMARK.json", w.name)
		}
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload on every engine, untraced and traced, and
// checks that each declared metric is present and finite and that no
// operation failed.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res, err := benchmark(w, short(7, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.out.Correct || res.out.Failed != 0 || res.out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d %v",
					w.name, trace, res.out.Correct, res.out.Failed, res.out.Attempted, res.checkErrs)
			}
			for _, name := range want {
				m, ok := res.out.Metrics[name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, present=%v", w.name, trace, name, m, ok)
				}
			}
			if len(res.out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.out.Metrics), len(want))
			}
			if !trace && res.out.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: setup_s = %v", w.name, res.out.Metrics["setup_s"].Value)
			}
		}
	}
}

// TestPlantedImbalanceFails plants a transfer body that creates money and
// checks that the end-of-run check reports it, counts every operation as
// failed, and makes the command exit non-zero.
func TestPlantedImbalanceFails(t *testing.T) {
	i := slices.IndexFunc(workloads, func(w *workload) bool { return w.name == "transfer" })
	orig := workloads[i]
	planted := *orig
	planted.transfer = func(tx *stm.Tx, from, to *stm.Var[int]) {
		from.Store(tx, from.Load(tx)-1)
		to.Store(tx, to.Load(tx)+2)
	}
	workloads[i] = &planted
	t.Cleanup(func() { workloads[i] = orig })

	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "transfer", "--seconds", "0.2", "--trace", "0"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit code 0 with an unbalanced transfer body")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed != out.Attempted || out.Attempted == 0 {
		t.Errorf("correct=%v failed=%d attempted=%d, want every operation failed", out.Correct, out.Failed, out.Attempted)
	}
	if !strings.Contains(stderr.String(), "balance sum") {
		t.Errorf("stderr does not report the imbalance: %q", stderr.String())
	}
}

// TestHarnessCountMatchesStats checks that the benchmark's own count of
// committed calls, the denominator of every per-transaction metric, equals
// the engine's client-side commit counter.
func TestHarnessCountMatchesStats(t *testing.T) {
	for _, name := range []string{"transfer", "rbtree-50"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := stm.Config{Algo: stm.NOrec}
		data, err := prefill(w, cfg, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		sys := stm.MustNew(cfg)
		cs := make([]*client, clients)
		for i := range cs {
			cs[i] = newClient(i, sys.MustRegister(), data, opStream{w: w, r: newRand(3, 0, streamClient+uint64(i)<<16)}, newBuffers())
		}
		s0 := sys.Stats()
		runPhase(cs, measured, 50*time.Millisecond)
		s1 := sys.Stats()
		var harness uint64
		for _, c := range cs {
			harness += c.committed
			c.th.Close()
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		if got := s1.Commits - s0.Commits; harness == 0 || got != harness {
			t.Errorf("%s: harness counted %d commits, Stats.Commits moved by %d", name, harness, got)
		}
	}
}

// TestDeterministicInputs checks that a seed fixes the operation streams and
// the pre-filled tree, and that another seed changes them.
func TestDeterministicInputs(t *testing.T) {
	for _, w := range workloads {
		draw := func(seed uint64) []op {
			s := opStream{w: w, r: newRand(seed, 1, streamClient)}
			ops := make([]op, 10000)
			for i := range ops {
				ops[i] = s.next()
			}
			return ops
		}
		a, b, c := draw(5), draw(5), draw(6)
		if !slices.Equal(a, b) {
			t.Errorf("%s: same seed, different operation streams", w.name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: different seeds, same operation stream", w.name)
		}
	}
	w, err := findWorkload("rbtree-50")
	if err != nil {
		t.Fatal(err)
	}
	keys := func(seed uint64) []int {
		d, err := prefill(w, stm.Config{Algo: stm.NOrec}, seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d.prefill != len(d.tree.Keys()) {
			t.Fatalf("pre-fill counted %d inserts, tree holds %d keys", d.prefill, len(d.tree.Keys()))
		}
		return d.tree.Keys()
	}
	if a, b := keys(5), keys(5); !slices.Equal(a, b) {
		t.Errorf("same seed, different pre-filled trees")
	}
}
