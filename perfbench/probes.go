package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"sync"

	"repro/internal/collab"
	"repro/internal/memnet"
	"repro/internal/mergeable"
	"repro/internal/netsim"
	"repro/internal/ot"
	"repro/internal/shard"
	"repro/internal/task"
)

// Layer probes: the traced run times the benchmark's own calls into each
// module's public functions, with inputs shaped like the workload's.
// Every probe records spans named after its metric; a span covering n
// calls counts its self time once per call.

// The two spine document sizes; text and transport probes run at both.
var docSizes = []struct {
	suffix string
	runes  int
}{{"1k", spineSmall.docRunes}, {"32k", spineBig.docRunes}}

// probeOut holds the probe results that are counts rather than spans.
type probeOut struct {
	oplogBytesPerOp float64
	netsimRounds    float64
}

// sink keeps probed results alive so no call is optimised away.
var sink int

func runProbes(tk *track, sh spineShape, seed uint64, workdir string) (probeOut, error) {
	rng := rand.New(rand.NewPCG(seed, 0x70726f6265))
	var out probeOut
	err := probeFrames(tk, rng, sh)
	if err != nil {
		return out, err
	}
	if out.oplogBytesPerOp, err = probeOpLog(tk, sh, workdir); err != nil {
		return out, err
	}
	probeText(tk, rng)
	probeNetsimClones(tk, rng)
	if err := probeTaskSync(tk, rng, sh); err != nil {
		return out, err
	}
	if err := probeSpawnMergeAll(tk, rng); err != nil {
		return out, err
	}
	probeTransform(tk, rng, sh)
	if out.netsimRounds, err = probeNetsim(tk, seed); err != nil {
		return out, err
	}
	if err := probeMemnet(tk, rng); err != nil {
		return out, err
	}
	return out, nil
}

// applyLines builds a batch of APPLY lines and their replies shaped like
// the router's: alternating 2-rune inserts and deletes on one document,
// each reply carrying the quoted document.
func applyLines(rng *rand.Rand, sh spineShape) (applies, replies []string) {
	doc := strconv.Quote(randText(rng, sh.docRunes))
	for i := range sh.batchOps {
		cmd := fmt.Sprintf("INS %d %q", rng.IntN(sh.docRunes), randText(rng, editWidth))
		if i%2 == 1 {
			cmd = fmt.Sprintf("DEL %d %d", rng.IntN(sh.docRunes-editWidth), editWidth)
		}
		rid := fmt.Sprintf("r0.s1.%d", 1000+i)
		applies = append(applies, fmt.Sprintf("APPLY %s 1 doc07 %s", rid, cmd))
		replies = append(replies, fmt.Sprintf("OK %s %s", rid, doc))
	}
	return applies, replies
}

// probeFrames times AppendFrame and FrameReader.Next on a batch of APPLY
// lines plus its batch of replies; the per-op cost covers both.
func probeFrames(tk *track, rng *rand.Rand, sh spineShape) error {
	applies, replies := applyLines(rng, sh)
	const reps, per = 100, 16
	var stream []byte
	for range per {
		var err error
		if stream, err = shard.AppendFrame(stream, applies); err != nil {
			return err
		}
		if stream, err = shard.AppendFrame(stream, replies); err != nil {
			return err
		}
	}
	var buf []byte
	tk.begin("probe.shard.frame", -1, 1)
	defer tk.end()
	for range reps {
		tk.begin("shard.frame_encode", -1, per*sh.batchOps)
		for range per {
			// Both batches encoded without error above.
			buf, _ = shard.AppendFrame(buf[:0], applies)
			buf, _ = shard.AppendFrame(buf, replies)
		}
		tk.end()
		sink += len(buf)
	}
	for range reps {
		fr := shard.NewFrameReader(bufio.NewReaderSize(bytes.NewReader(stream), 64<<10))
		tk.begin("shard.frame_decode", -1, per*sh.batchOps)
		for range 2 * per {
			lines, _, _, err := fr.Next()
			if err != nil {
				tk.end()
				return fmt.Errorf("frame probe: %w", err)
			}
			sink += len(lines)
		}
		tk.end()
	}
	return nil
}

// probeOpLog times OpLog.Append+Flush of one batch of op records, the
// durable step a journaled shard takes before acking a batch, and
// returns the log bytes written per op.
func probeOpLog(tk *track, sh spineShape, workdir string) (float64, error) {
	dir, err := os.MkdirTemp(workdir, "oplog-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ops.log")
	log, err := shard.CreateOpLog(path)
	if err != nil {
		return 0, err
	}
	records := make([]string, sh.batchOps)
	for i := range records {
		records[i] = fmt.Sprintf("A r0.s1.%d doc07 INS %d \"ab\"", 1000+i, sh.docRunes/2)
	}
	const reps = 200
	tk.begin("probe.shard.oplog", -1, 1)
	for range reps {
		tk.begin("shard.oplog_flush", -1, 1)
		err = log.Append(records)
		if err == nil {
			err = log.Flush()
		}
		tk.end()
		if err != nil {
			log.Close()
			return 0, err
		}
	}
	tk.end()
	if err := log.Close(); err != nil {
		return 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(fi.Size()) / float64(reps*sh.batchOps), nil
}

// probeText times the Text calls the shard makes per op and per merge,
// at both spine document sizes.
func probeText(tk *track, rng *rand.Rand) {
	const reps, per = 40, 16
	tk.begin("probe.mergeable.text", -1, 1)
	for _, size := range docSizes {
		base := randText(rng, size.runes)
		for range reps {
			t := mergeable.NewText(base)
			pos := make([]int, per)
			for i := range pos {
				pos[i] = rng.IntN(size.runes)
			}
			tk.begin("mergeable.text_insert_"+size.suffix, -1, per)
			for _, p := range pos {
				t.Insert(p, "ab")
			}
			tk.end()
		}
		t := mergeable.NewText(base)
		for range reps {
			tk.begin("mergeable.text_string_"+size.suffix, -1, per)
			for range per {
				sink += len(t.String())
			}
			tk.end()
		}
		for range reps {
			tk.begin("mergeable.text_clone_"+size.suffix, -1, per)
			for range per {
				sink += t.CloneValue().(*mergeable.Text).Len()
			}
			tk.end()
		}
		dst := mergeable.NewText("")
		for range reps {
			tk.begin("mergeable.text_adopt_"+size.suffix, -1, per)
			for range per {
				if err := dst.AdoptFrom(t); err == nil {
					sink++
				}
			}
			tk.end()
		}
	}
	tk.end()
}

// Netsim's per-host structures at mid-run: a queue holds Messages/Hosts
// messages, a trace list half of its final TotalHops/Hosts digests.
func netsimStructures(rng *rand.Rand) ([]*mergeable.Queue[netsim.Message], []*mergeable.List[uint64]) {
	cfg := netsim.DefaultConfig()
	queues := make([]*mergeable.Queue[netsim.Message], cfg.Hosts)
	lists := make([]*mergeable.List[uint64], cfg.Hosts)
	for h := range cfg.Hosts {
		queues[h] = mergeable.NewQueue[netsim.Message]()
		for range cfg.Messages / cfg.Hosts {
			queues[h].Push(netsim.Message{Payload: rng.Uint64(), TTL: cfg.TTL})
		}
		lists[h] = mergeable.NewList[uint64]()
		for range int(cfg.TotalHops()) / cfg.Hosts / 2 {
			lists[h].Append(rng.Uint64())
		}
	}
	return queues, lists
}

func probeNetsimClones(tk *track, rng *rand.Rand) {
	queues, lists := netsimStructures(rng)
	const reps, per = 40, 64
	tk.begin("probe.mergeable.netsim", -1, 1)
	for range reps {
		tk.begin("mergeable.queue_clone", -1, per)
		for i := range per {
			sink += queues[i%len(queues)].CloneValue().(*mergeable.Queue[netsim.Message]).Len()
		}
		tk.end()
	}
	for range reps {
		tk.begin("mergeable.list_clone", -1, per)
		for i := range per {
			sink += lists[i%len(lists)].CloneValue().(*mergeable.List[uint64]).Len()
		}
		tk.end()
	}
	tk.end()
}

// probeTaskSync times one shard-style merge cycle over a shard's data
// shape (its documents plus the edit counter): Spawn a child, which
// applies one batch of paired inserts/deletes and Syncs, and MergeAny
// until the child is merged.
func probeTaskSync(tk *track, rng *rand.Rand, sh spineShape) error {
	perShard := sh.docs / sh.shards
	data := make([]mergeable.Mergeable, 0, perShard+1)
	for range perShard {
		data = append(data, mergeable.NewText(randText(rng, sh.docRunes)))
	}
	data = append(data, mergeable.NewCounter(0))
	const reps = 200
	ops := max(sh.batchOps, 2)
	pos := make([]int, reps*ops)
	for i := range pos {
		pos[i] = rng.IntN(sh.docRunes - editWidth)
	}
	tk.begin("probe.task.sync", -1, 1)
	defer tk.end()
	return task.Run(func(ctx *task.Ctx, root []mergeable.Mergeable) error {
		for r := range reps {
			doc := r % perShard
			batch := pos[r*ops : (r+1)*ops]
			tk.begin("task.sync", -1, 1)
			ctx.Spawn(func(c *task.Ctx, d []mergeable.Mergeable) error {
				t := d[doc].(*mergeable.Text)
				for i, p := range batch {
					if i%2 == 0 {
						t.Insert(p, "ab")
					} else {
						t.Delete(p, editWidth)
					}
				}
				d[len(d)-1].(*mergeable.Counter).Inc()
				return c.Sync()
			}, root...)
			for {
				if _, err := ctx.MergeAny(); err != nil {
					if errors.Is(err, task.ErrNothingToMerge) {
						break
					}
					return err
				}
			}
			tk.end()
		}
		return nil
	}, data...)
}

// probeSpawnMergeAll times one netsim round: 20 host children spawned
// over netsim's 41 structures, each processing one message, then
// MergeAll.
func probeSpawnMergeAll(tk *track, rng *rand.Rand) error {
	const reps = 40
	tk.begin("probe.task.mergeall", -1, 1)
	defer tk.end()
	for range reps {
		queues, lists := netsimStructures(rng)
		hosts := len(queues)
		data := make([]mergeable.Mergeable, 0, 2*hosts+1)
		for _, q := range queues {
			data = append(data, q)
		}
		for _, l := range lists {
			data = append(data, l)
		}
		data = append(data, mergeable.NewCounter(0))
		err := task.Run(func(ctx *task.Ctx, root []mergeable.Mergeable) error {
			tk.begin("task.spawn_mergeall", -1, 1)
			defer tk.end()
			for id := range hosts {
				ctx.Spawn(func(c *task.Ctx, d []mergeable.Mergeable) error {
					m, ok := d[id].(*mergeable.Queue[netsim.Message]).PopFront()
					if !ok {
						return nil
					}
					digest := netsim.Work(m.Payload, 0)
					d[hosts+id].(*mergeable.List[uint64]).Append(digest)
					d[2*hosts].(*mergeable.Counter).Inc()
					d[digest%uint64(hosts)].(*mergeable.Queue[netsim.Message]).Push(netsim.Message{Payload: digest, TTL: m.TTL - 1})
					return nil
				}, root...)
			}
			return ctx.MergeAll()
		}, data...)
		if err != nil {
			return err
		}
	}
	return nil
}

// probeTransform times ot.TransformSeqs on two concurrent 8-op text
// batches of paired inserts and deletes.
func probeTransform(tk *track, rng *rand.Rand, sh spineShape) {
	batch := func() []ot.Op {
		ops := make([]ot.Op, 0, 8)
		n := sh.docRunes
		for i := range 8 {
			if i%2 == 0 {
				ops = append(ops, ot.TextInsert{Pos: rng.IntN(n + 1), Text: "ab"})
				n += editWidth
			} else {
				ops = append(ops, ot.TextDelete{Pos: rng.IntN(n - editWidth + 1), N: editWidth})
				n -= editWidth
			}
		}
		return ops
	}
	const reps, per = 64, 32
	tk.begin("probe.ot", -1, 1)
	for range reps {
		pairs := make([][2][]ot.Op, per)
		for i := range pairs {
			pairs[i] = [2][]ot.Op{batch(), batch()}
		}
		tk.begin("ot.transform", -1, per)
		for _, p := range pairs {
			a, b := ot.TransformSeqs(p[0], p[1])
			sink += len(a) + len(b)
		}
		tk.end()
	}
	tk.end()
}

// probeNetsim times the host workload at l = 0 and runs one simulation
// for its exact round count.
func probeNetsim(tk *track, seed uint64) (float64, error) {
	const reps, per = 64, 1024
	tk.begin("probe.netsim", -1, 1)
	defer tk.end()
	p := seed
	for range reps {
		tk.begin("netsim.work", -1, per)
		for range per {
			p = netsim.Work(p, 0)
		}
		tk.end()
	}
	sink += int(p & 1)
	tk.begin("netsim.run", -1, 1)
	res, err := netsim.RunEngine(netsimEngine, netsimConfig(seed))
	tk.end()
	if err != nil {
		return 0, err
	}
	return float64(res.Rounds), nil
}

// probeMemnet times one request/reply exchange over a memnet
// connection, the reply one quoted document long, at both spine sizes.
func probeMemnet(tk *track, rng *rand.Rand) error {
	const reps, per = 40, 16
	tk.begin("probe.memnet", -1, 1)
	defer tk.end()
	for _, size := range docSizes {
		reply := []byte("OK " + strconv.Quote(randText(rng, size.runes)) + "\n")
		ln := memnet.Listen(1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for {
				if _, err := r.ReadString('\n'); err != nil {
					return
				}
				if _, err := conn.Write(reply); err != nil {
					return
				}
			}
		}()
		conn, err := ln.Dial()
		if err != nil {
			ln.Close()
			wg.Wait()
			return err
		}
		r := bufio.NewReaderSize(conn, 64<<10)
		for range reps {
			tk.begin("memnet.roundtrip_"+size.suffix, -1, per)
			for range per {
				if _, err = conn.Write([]byte("GET\n")); err == nil {
					_, err = r.ReadString('\n')
				}
				if err != nil {
					break
				}
			}
			tk.end()
			if err != nil {
				break
			}
		}
		conn.Close()
		ln.Close()
		wg.Wait()
		if err != nil {
			return fmt.Errorf("memnet probe: %w", err)
		}
	}
	return nil
}

// probeRoute times the router's per-op routing calls, Ring.Owner and
// ShardedServer.RouteOf, on the live server's documents.
func probeRoute(tk *track, srv *collab.ShardedServer, names []string) {
	ring := shard.New([]int{0, 1}, 0, 1)
	const reps, per = 64, 8
	tk.begin("probe.shard.route", -1, 1)
	for range reps {
		tk.begin("shard.route", -1, per*len(names))
		for range per {
			for _, n := range names {
				sink += ring.Owner(n) + srv.RouteOf(n)
			}
		}
		tk.end()
	}
	tk.end()
}

// gcSample is a reading of the Go runtime's GC accounting.
type gcSample struct {
	gcCPU, totalCPU, cycles float64
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return gcSample{gcCPU: val(s[0].Value), totalCPU: val(s[1].Value), cycles: val(s[2].Value)}
}

// since returns the GC share of CPU time and the GC cycles per thousand
// ops between two samples.
func (g gcSample) since(before gcSample, ops int64) (cpuShare, cyclesPerKop float64) {
	if d := g.totalCPU - before.totalCPU; d > 0 {
		cpuShare = (g.gcCPU - before.gcCPU) / d
	}
	if ops > 0 {
		cyclesPerKop = (g.cycles - before.cycles) / (float64(ops) / 1000)
	}
	return cpuShare, cyclesPerKop
}
