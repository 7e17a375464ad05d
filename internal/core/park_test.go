package core

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestParkLiveness runs short transfer workloads over the RInval matrix —
// V1/V2/V3 × Shards {1,4} × MaxBatch {1,8} × {1,3} clients — under a
// deadline. A lost wakeup leaves a client or server parked for good, which
// shows as a missed deadline or as the flight recorder's commit-server stall
// watchdog firing; every run must also conserve money.
func TestParkLiveness(t *testing.T) {
	for _, algo := range []Algo{RInvalV1, RInvalV2, RInvalV3} {
		for _, shards := range []int{1, 4} {
			for _, batch := range []int{1, 8} {
				for _, clients := range []int{1, 3} {
					name := fmt.Sprintf("%v/shards=%d/batch=%d/clients=%d", algo, shards, batch, clients)
					t.Run(name, func(t *testing.T) {
						parkLivenessRun(t, Config{
							Algo: algo, MaxThreads: 8, Shards: shards, InvalServers: 4,
							StepsAhead: 2, MaxBatch: batch, FlightRecorder: true,
							FlightInterval: time.Hour, FlightDir: t.TempDir(),
						}, clients)
					})
				}
			}
		}
	}
}

func parkLivenessRun(t *testing.T, cfg Config, clients int) {
	const accounts, initial = 16, 100
	const runFor, tick, deadline = 60 * time.Millisecond, 20 * time.Millisecond, 20 * time.Second
	s := MustNew(cfg)
	vars := make([]*Var, accounts)
	for i := range vars {
		vars[i] = NewVar(initial)
	}
	var stop atomic.Bool
	var commits atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		th := s.MustRegister()
		wg.Add(1)
		go func(rng uint64) {
			defer wg.Done()
			defer th.Close()
			for !stop.Load() {
				rng = rng*6364136223846793005 + 1442695040888963407
				from, to, amt := int(rng>>33)%accounts, int(rng>>45)%accounts, int(rng>>58)
				_ = th.Atomically(func(tx *Tx) error {
					tx.Store(vars[from], tx.Load(vars[from]).(int)-amt)
					tx.Store(vars[to], tx.Load(vars[to]).(int)+amt)
					return nil
				})
				commits.Add(1)
			}
		}(uint64(c) + 11)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()

	fs := s.newFlightState()
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	stopAt := time.After(runFor)
	timeout := time.After(deadline)
	for done := false; !done; {
		select {
		case <-stopAt:
			stop.Store(true)
		case <-ticker.C:
			if r := s.flightTick(fs); strings.Contains(r, "stall") {
				t.Fatalf("stall watchdog fired: %s\n%s", r, goroutineProfile())
			}
		case <-finished:
			done = true
		case <-timeout:
			t.Fatalf("clients did not finish within %v (lost wakeup?)\n%s", deadline, goroutineProfile())
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range vars {
		total += v.Peek().(int)
	}
	if total != accounts*initial {
		t.Fatalf("money not conserved: %d != %d", total, accounts*initial)
	}
	if commits.Load() == 0 {
		t.Fatal("no transaction committed")
	}
}

// TestParkIdle checks that servers stop using CPU when the clients do:
// within 10ms of the last commit every server goroutine is blocked on its
// parker, and Close then returns promptly.
func TestParkIdle(t *testing.T) {
	for _, algo := range []Algo{RInvalV1, RInvalV2, RInvalV3} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/shards=%d", algo, shards), func(t *testing.T) {
				s := newSys(t, algo, func(c *Config) { c.MaxThreads, c.Shards, c.InvalServers = 8, shards, 4 })
				v := NewVar(0)
				var wg sync.WaitGroup
				for c := 0; c < 2; c++ {
					th := s.MustRegister()
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer th.Close()
						for i := 0; i < 200; i++ {
							_ = th.Atomically(func(tx *Tx) error {
								tx.Store(v, tx.Load(v).(int)+1)
								return nil
							})
						}
					}()
				}
				wg.Wait()
				// One profile at the deadline: polling before it would take
				// CPU from the servers it waits for.
				time.Sleep(10 * time.Millisecond)
				if prof := goroutineProfile(); len(busyServers(prof)) != 0 {
					t.Fatalf("servers not parked 10ms after the clients stopped: %v\n%s", busyServers(prof), prof)
				}
				closed := make(chan error, 1)
				go func() { closed <- s.Close() }()
				select {
				case err := <-closed:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(time.Second):
					t.Fatalf("Close did not return\n%s", goroutineProfile())
				}
			})
		}
	}
}

// busyServers returns the stm-role label of every commit- or
// invalidation-server goroutine that is not blocked in a Parker's channel
// receive in prof, a goroutineProfile. The profile's printed frames omit the
// runtime, so each record's raw PCs are symbolized instead.
func busyServers(prof string) []string {
	var busy []string
	for _, rec := range strings.Split(prof, "\n\n") {
		i := strings.Index(rec, `"stm-role":"`)
		if i < 0 {
			continue
		}
		role := rec[i+len(`"stm-role":"`):]
		role = role[:strings.IndexByte(role, '"')]
		if !strings.Contains(role, "-server") {
			continue
		}
		var chanRecv, inPark bool
		pcs, _, _ := strings.Cut(rec, "\n")
		_, pcs, _ = strings.Cut(pcs, "@")
		for _, f := range strings.Fields(pcs) {
			pc, err := strconv.ParseUint(f, 0, 64)
			if err != nil {
				continue
			}
			fn := runtime.FuncForPC(uintptr(pc) - 1)
			if fn == nil {
				continue
			}
			chanRecv = chanRecv || fn.Name() == "runtime.chanrecv"
			inPark = inPark || strings.HasSuffix(fn.Name(), "spin.(*Parker).Wait")
		}
		if !chanRecv || !inPark {
			busy = append(busy, role)
		}
	}
	return busy
}

func goroutineProfile() string {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
	return buf.String()
}
