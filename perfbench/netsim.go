package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/netsim"
)

// netsimEngine is the paper's Section III setup under Spawn & Merge
// with hash routing (Figure 3's "spawnmerge-nondet" series).
const netsimEngine = "spawnmerge-nondet"

// netsimRunsPerSec sizes the fixed work: a run of --seconds s does
// seconds × netsimRunsPerSec simulations (about --seconds of wall time
// on a 2-core x86-64 host).
const netsimRunsPerSec = 5

// netsimSetups is how many warm-up simulations set-up makes; setup_s is
// their median.
const netsimSetups = 5

// netsimRuns returns the timed simulations and warm-ups of a run.
func netsimRuns(cfg runConfig) (runs, setups int) {
	if cfg.tiny {
		return 2, 1
	}
	return cfg.seconds * netsimRunsPerSec, netsimSetups
}

func netsimConfig(seed uint64) netsim.Config {
	cfg := netsim.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// runNetsim runs the simulation a fixed number of times (the second
// half traced on a traced run) and checks every result.
func runNetsim(cfg runConfig) (*runOut, error) {
	runs, setups := netsimRuns(cfg)
	traced := cfg.trace
	simCfg := netsimConfig(cfg.seed)
	out := &runOut{}
	for range setups {
		runtime.GC()
		t0 := time.Now()
		if _, err := netsim.RunEngine(netsimEngine, simCfg); err != nil {
			return nil, fmt.Errorf("netsim_l0: warm-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}

	untraced := runs
	if traced {
		untraced = runs / 2
	}
	hops := simCfg.TotalHops()
	// Every result is held until the end: the checks compare each run's
	// traces with the first run's, and heap_mb is read with them live.
	results := make([]netsim.Result, 0, runs)
	var tk *track
	if traced {
		tk = newTrack(time.Now())
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := readGC()
	for i := 0; i < runs; i++ {
		if i == untraced {
			gc1 := readGC()
			runtime.ReadMemStats(&m1)
			out.gcCPUShare, out.gcCyclesPerKop = gc1.since(gc0, int64(untraced)*hops)
		}
		if i >= untraced {
			tk.begin("workload.netsim_run", int64(i), 1)
		}
		t0 := time.Now()
		res, err := netsim.RunEngine(netsimEngine, simCfg)
		d := time.Since(t0)
		if i >= untraced {
			tk.end()
		}
		out.attempted += hops
		if err != nil {
			out.failed += hops
			return out, fmt.Errorf("netsim_l0: run %d: %w", i, err)
		}
		results = append(results, res)
		rate := float64(res.Hops) / d.Seconds()
		if i < untraced {
			out.rates = append(out.rates, rate)
			out.lat = append(out.lat, float64(d)/1e3)
		} else {
			out.tracedRates = append(out.tracedRates, rate)
		}
	}
	if untraced == runs {
		gc1 := readGC()
		runtime.ReadMemStats(&m1)
		out.gcCPUShare, out.gcCyclesPerKop = gc1.since(gc0, int64(untraced)*hops)
	}
	out.allocKBPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(int64(untraced)*hops) / 1024

	runtime.GC()
	runtime.GC()
	var mh runtime.MemStats
	runtime.ReadMemStats(&mh)
	out.heapMB = float64(mh.HeapAlloc) / (1 << 20)

	if err := checkNetsim(results, simCfg); err != nil {
		return out, err
	}
	if traced {
		out.tr = &trace{}
		out.tr.add(tk.spans)
	}
	return out, nil
}

// checkNetsim verifies the first result against the workload's abstract
// model and every other result against the first: the Spawn & Merge
// engine must be deterministic even under hash routing.
func checkNetsim(results []netsim.Result, cfg netsim.Config) error {
	if len(results) == 0 {
		return fmt.Errorf("netsim_l0: no runs")
	}
	first := results[0]
	if err := netsim.VerifyTraceChains(first, cfg); err != nil {
		return fmt.Errorf("netsim_l0: %w", err)
	}
	for i, r := range results {
		if r.Hops != cfg.TotalHops() {
			return fmt.Errorf("netsim_l0: run %d processed %d hops, want %d", i, r.Hops, cfg.TotalHops())
		}
		if r.Fingerprint != first.Fingerprint {
			return fmt.Errorf("netsim_l0: run %d fingerprint %x differs from run 0's %x", i, r.Fingerprint, first.Fingerprint)
		}
	}
	return nil
}
