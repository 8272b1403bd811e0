package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/netsim"
)

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkMetrics reads the metric declarations from BENCHMARK.json at
// the root of the checkout.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []declared, workloadNames []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	return doc.EndToEnd, doc.PerLayer, workloadNames
}

// TestWorkloadsTiny runs every workload at tiny size, untraced and
// traced, and checks that the output checks pass and that exactly the
// declared metrics are printed, each with its declared unit.
func TestWorkloadsTiny(t *testing.T) {
	endToEnd, perLayer, names := benchmarkMetrics(t)
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, workloads)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			cfg := runConfig{workload: w, seed: 7, seconds: 1, trace: traced, workdir: t.TempDir(), tiny: true}
			res, err := measure(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, traced, d.Name)
					continue
				}
				if got.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, declared %q", w, traced, d.Name, got.Unit, d.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w, traced, len(res.Metrics), len(want))
			}
			if !traced {
				for _, d := range want {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

// TestNetsimCheckCatchesDivergence pins that a run whose traces differ
// from the first run's fails the output check.
func TestNetsimCheckCatchesDivergence(t *testing.T) {
	cfg := netsimConfig(3)
	a, err := netsim.RunEngine(netsimEngine, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkNetsim([]netsim.Result{a, a}, cfg); err != nil {
		t.Fatalf("identical runs rejected: %v", err)
	}
	b := a
	b.Fingerprint++
	if err := checkNetsim([]netsim.Result{a, b}, cfg); err == nil {
		t.Fatal("diverging fingerprint accepted")
	}
}

// TestBadArguments pins that a bad command line exits non-zero without
// printing a result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "spine_small", "-trace", "2"},
		{"-workload", "spine_small", "-seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
