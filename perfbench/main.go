// Command perfbench is the repository's benchmark. It runs one of three
// fixed-work workloads in-process, checks the program's outputs, and
// prints the metrics as the last line of standard output:
//
//	perfbench -workload spine_small -seed 1 -seconds 10 -trace 0
//
// -trace 0 prints the end-to-end metrics; -trace 1 makes the separate
// traced run that prints the per-layer metrics. run.sh builds and runs it
// from the root of a checkout. README.md records why each workload exists
// and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string // scratch space for op logs and span dumps
	tiny     bool   // a few ops per workload, for the benchmark's own test
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []string{"spine_small", "spine_bigdoc", "netsim_l0"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "seed the op scripts and inputs are generated from")
	seconds := fs.Int("seconds", 10, "sizes the fixed work: about this many seconds of timed work")
	traceFlag := fs.Int("trace", 0, "1 makes the traced run that prints per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for op logs and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, workdir: *workdir}
	res, err := measure(cfg, stderr)
	if err != nil {
		// A wrong answer never reports numbers.
		fmt.Fprintln(stderr, "perfbench:", err)
		res.Correct = false
		res.Metrics = map[string]metric{}
		res.Attempted = max(res.Attempted, 1)
		printResult(stdout, res)
		return 1
	}
	printResult(stdout, res)
	return 0
}

func printResult(w io.Writer, res result) {
	b, _ := json.Marshal(res)
	fmt.Fprintln(w, string(b))
}

// measure runs the workload and assembles its metrics.
func measure(cfg runConfig, stderr io.Writer) (result, error) {
	var (
		out  *runOut
		pass *spineOut // the collab layer's traced pass
		err  error
	)
	sh := spineSmall
	switch cfg.workload {
	case "netsim_l0":
		out, err = runNetsim(cfg)
	default:
		if cfg.workload == "spine_bigdoc" {
			sh = spineBig
		}
		pass, err = runSpine(sh, sh.plan(cfg), cfg)
		if pass != nil {
			out = &pass.runOut
		}
	}
	if err != nil {
		if out == nil {
			return result{}, err
		}
		return result{Attempted: out.attempted, Failed: out.failed}, err
	}
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed}
	if !cfg.trace {
		res.Metrics = map[string]metric{
			"setup_s":         {median(out.setup), "s"},
			"ops_per_s":       {median(out.rates), "1/s"},
			"op_p50_us":       {median(out.lat), "us"},
			"op_p90_us":       {quantile(out.lat, 0.9), "us"},
			"heap_mb":         {out.heapMB, "MiB"},
			"alloc_kb_per_op": {out.allocKBPerOp, "KiB"},
		}
		return res, nil
	}
	if pass == nil {
		// netsim bypasses collab, shard and memnet; their metrics come
		// from a short spine_small-shaped pass so every traced run
		// prints every layer.
		p := spineSmall.plan(cfg)
		p.setups, p.rounds = 1, 0
		if pass, err = runSpine(spineSmall, p, cfg); err != nil {
			return result{Attempted: out.attempted, Failed: out.failed}, fmt.Errorf("collab pass: %w", err)
		}
	}
	res.Metrics, err = layerMetrics(cfg, sh, pass, out, stderr)
	return res, err
}

// layerMetrics runs the layer probes and derives every per-layer metric
// from the spans of the collab pass, the workload's own traced rounds
// (own) and the probes. The spans are written to the work directory as
// JSON.
func layerMetrics(cfg runConfig, sh spineShape, pass *spineOut, own *runOut, stderr io.Writer) (map[string]metric, error) {
	tk := newTrack(time.Now())
	probes, err := runProbes(tk, sh, cfg.seed, cfg.workdir)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	tr := pass.tr
	tr.add(tk.spans)
	if own != &pass.runOut {
		tr.add(own.tr.spans)
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s.json", cfg.workload))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)

	calls := tr.perCall()
	var missing []string
	ns := func(name string) float64 {
		xs := calls[name]
		if len(xs) == 0 {
			missing = append(missing, name)
			return 0
		}
		return quantile(xs, 0.5)
	}
	us := func(name string) float64 { return ns(name) / 1e3 }

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	put("collab.use_us", us("collab.use"), "us")
	put("collab.ins_us", us("collab.ins"), "us")
	put("collab.del_us", us("collab.del"), "us")
	put("collab.get_us", us("collab.get"), "us")
	put("collab.flush_us", us("collab.flush"), "us")
	put("collab.reply_bytes_per_op", ratio(pass.replyBytes, pass.tracedOps), "B")
	put("collab.ops_per_forwarded_batch", ratio(pass.routedEdits, pass.forwardedBatches+pass.directMutations), "ops")
	put("collab.coalesced_per_op", ratio(pass.coalesced, pass.queued), "ratio")
	put("collab.busy_sheds", float64(pass.busy), "count")
	put("collab.pipe_errors", float64(pass.pipeErrors), "count")
	put("collab.client_retries", float64(pass.retries), "count")

	put("shard.merge_p50_us", pass.mergeP50us, "us")
	put("shard.merge_p90_us", pass.mergeP90us, "us")
	put("shard.route_ns", ns("shard.route"), "ns")
	put("shard.frame_encode_ns_per_op", ns("shard.frame_encode"), "ns")
	put("shard.frame_decode_ns_per_op", ns("shard.frame_decode"), "ns")
	put("shard.oplog_flush_us", us("shard.oplog_flush"), "us")
	oplogBytes := pass.oplogBytesPerOp
	if oplogBytes == 0 {
		oplogBytes = probes.oplogBytesPerOp // no durable log on this workload
	}
	put("shard.oplog_bytes_per_op", oplogBytes, "B")

	for _, size := range docSizes {
		put("mergeable.text_insert_ns_"+size.suffix, ns("mergeable.text_insert_"+size.suffix), "ns")
		put("mergeable.text_string_us_"+size.suffix, us("mergeable.text_string_"+size.suffix), "us")
		put("mergeable.text_clone_us_"+size.suffix, us("mergeable.text_clone_"+size.suffix), "us")
		put("mergeable.text_adopt_us_"+size.suffix, us("mergeable.text_adopt_"+size.suffix), "us")
		put("memnet.roundtrip_us_"+size.suffix, us("memnet.roundtrip_"+size.suffix), "us")
	}
	put("mergeable.queue_clone_us", us("mergeable.queue_clone"), "us")
	put("mergeable.list_clone_us", us("mergeable.list_clone"), "us")
	put("task.sync_us", us("task.sync"), "us")
	put("task.spawn_mergeall_us", us("task.spawn_mergeall"), "us")
	put("ot.transform_us", us("ot.transform"), "us")
	put("netsim.work_ns", ns("netsim.work"), "ns")
	put("netsim.rounds_per_run", probes.netsimRounds, "count")
	put("netsim.hops_per_round", float64(netsimConfig(cfg.seed).TotalHops())/probes.netsimRounds, "hops")

	put("go.gc_cpu_share", own.gcCPUShare, "ratio")
	put("go.gc_cycles_per_kop", own.gcCyclesPerKop, "count")
	put("trace.overhead_share", 1-median(own.tracedRates)/median(own.rates), "ratio")

	// Share of the collab pass's median op latency that the per-op layer
	// costs account for; the rest is scheduling and transport waiting.
	size := "1k"
	if sh.docRunes == spineBig.docRunes {
		size = "32k"
	}
	batch := float64(sh.batchOps)
	perOp := m["shard.route_ns"].Value/1e3 +
		(m["shard.frame_encode_ns_per_op"].Value+m["shard.frame_decode_ns_per_op"].Value)/1e3 +
		pass.mergeP50us/batch +
		m["mergeable.text_insert_ns_"+size].Value/1e3 +
		m["mergeable.text_string_us_"+size].Value +
		2*m["memnet.roundtrip_us_"+size].Value/batch
	if sh.durable {
		perOp += m["shard.oplog_flush_us"].Value / batch
	}
	put("spine.attributed_share", perOp/quantile(pass.tracedLat, 0.5), "ratio")

	if len(missing) > 0 {
		return nil, fmt.Errorf("no spans recorded for %s", strings.Join(missing, ", "))
	}
	return m, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 {
	return quantile(slices.Clone(xs), 0.5)
}
