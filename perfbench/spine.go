package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/collab"
	"repro/internal/memnet"
	"repro/internal/shard"
)

// spineShape is one closed-loop workload over the sharded collab spine:
// two client sessions over memnet, each waiting for its acks.
type spineShape struct {
	name     string
	docs     int
	docRunes int
	shards   int
	durable  bool // ServeSharded with Dir: every acked batch hits the op log
	shared   bool // both sessions edit the same documents
	batchOps int  // ops per router→shard exchange
	// warm is the untimed warm-up, in cycles per session, run in every
	// set-up and counted in setup_s.
	warm int
	// cyclesPerSec sizes the fixed work: a run of --seconds s does
	// seconds × cyclesPerSec cycles per session (about --seconds of
	// wall time on a 2-core x86-64 host).
	cyclesPerSec int
}

const sessions = 2

var spineSmall = spineShape{
	name: "spine_small", docs: 64, docRunes: 1024, shards: 2, durable: true,
	batchOps: 8, warm: 200, cyclesPerSec: 1000,
}

var spineBig = spineShape{
	name: "spine_bigdoc", docs: 4, docRunes: 32 * 1024, shards: 2, shared: true,
	batchOps: 1, warm: 60, cyclesPerSec: 120,
}

// spinePlan sizes one spine run.
type spinePlan struct {
	setups   int  // set-ups made; the last one serves the timed phase
	rounds   int  // timed rounds; ops_per_s is the median round rate
	perRound int  // cycles per session per round
	tail     int  // mix cycles per session after the timed rounds
	traced   bool // trace the second half of the rounds and the tail
}

func (sh spineShape) plan(cfg runConfig) spinePlan {
	p := spinePlan{setups: 5, rounds: 20, traced: cfg.trace}
	p.perRound = max(1, cfg.seconds*sh.cyclesPerSec/p.rounds)
	if cfg.trace {
		p.tail = 32
	}
	if cfg.tiny {
		p.setups, p.rounds, p.perRound, p.tail = 1, 2, 4, min(p.tail, 2)
	}
	return p
}

// runOut is what every workload measures. lat is µs per acked op; for
// netsim an op is one simulation run.
type runOut struct {
	attempted, failed int64
	setup             []float64 // seconds per set-up
	rates             []float64 // ops/s of each untraced round
	tracedRates       []float64 // ops/s of each traced round
	lat               []float64 // µs per op, untraced rounds
	heapMB            float64
	allocKBPerOp      float64
	gcCPUShare        float64 // over the untraced rounds
	gcCyclesPerKop    float64
	tr                *trace // spans of the traced rounds
}

// spineOut adds what a spine run measures through the collab layer.
type spineOut struct {
	runOut
	tracedLat        []float64 // µs per acked op, traced rounds and tail
	tracedOps        int64
	replyBytes       int64 // over the traced rounds and tail
	routedEdits      int64
	forwardedBatches int64
	directMutations  int64
	queued           int64
	coalesced        int64
	busy             int64
	pipeErrors       int64
	retries          int64
	mergeP50us       float64
	mergeP90us       float64
	oplogBytesPerOp  float64 // 0 when not durable
}

// sessionRun drives one client session through its script.
type sessionRun struct {
	idx   int
	c     *collab.Client
	names []string

	lat        []float64
	ops        int64
	failed     int64
	mutations  int64 // acked mutations as the client sent them (before coalescing)
	direct     int64 // acked direct INS/DEL
	queued     int64 // acked queued ops
	replyBytes int64
	firstErr   error
}

// run executes cycles; record keeps per-op latencies and reply bytes,
// tk (when non-nil) records a span per cycle and per client call.
func (s *sessionRun) run(cycles []cycle, opBase int64, record bool, tk *track) {
	var pending int64
	fail := func(n int64, err error) {
		s.failed += n
		if s.firstErr == nil {
			s.firstErr = err
		}
	}
	ack := func(d time.Duration, n int64, reply string) {
		s.ops += n
		if record {
			us := float64(d) / 1e3
			for range n {
				s.lat = append(s.lat, us)
			}
			s.replyBytes += int64(len(reply))
		}
	}
	for i, cy := range cycles {
		op := opBase + int64(i)
		if tk != nil {
			tk.begin("workload.cycle", op, cy.ops())
			tk.begin("collab.use", op, 1)
		}
		t0 := time.Now()
		reply, err := s.c.Use(s.names[cy.doc])
		d := time.Since(t0)
		if tk != nil {
			tk.end()
		}
		if err != nil {
			fail(1, err)
		} else {
			ack(d, 1, reply)
		}
		for _, st := range cy.steps {
			if tk != nil {
				tk.begin(stepSpan[st.kind], op, 1)
			}
			t0 := time.Now()
			switch st.kind {
			case stIns:
				reply, err = s.c.Insert(st.pos, st.text)
			case stDel:
				reply, err = s.c.Delete(st.pos, st.n)
			case stGet:
				reply, err = s.c.Get()
			case stQIns:
				s.c.QueueInsert(st.pos, st.text)
			case stQDel:
				s.c.QueueDelete(st.pos, st.n)
			case stFlush:
				err = s.c.Flush()
			}
			d := time.Since(t0)
			if tk != nil {
				tk.end()
			}
			switch st.kind {
			case stQIns, stQDel:
				pending++
			case stFlush:
				if err != nil {
					fail(pending, err)
				} else {
					ack(d, pending, "")
					s.queued += pending
					s.mutations += pending
				}
				pending = 0
			default:
				if err != nil {
					fail(1, err)
					continue
				}
				ack(d, 1, reply)
				if st.kind != stGet {
					s.direct++
					s.mutations++
				}
			}
		}
		if tk != nil {
			tk.end()
		}
	}
}

// spineScripts is every session's pre-generated script plus the
// expected final state.
type spineScripts struct {
	initial map[string]string
	names   []string    // sorted, as the server sees them
	warm    [][]cycle   // [session]
	rounds  [][][]cycle // [session][round]
	tail    [][]cycle   // [session]
	models  []*model    // expected final documents (exclusive docs only)
}

func seedFor(seed uint64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// docNames picks the document names. Shared big documents are spread
// evenly over the shards with the ring the server builds.
func docNames(sh spineShape) ([]string, error) {
	if !sh.shared {
		names := make([]string, sh.docs)
		for i := range names {
			names[i] = fmt.Sprintf("doc%02d", i)
		}
		return names, nil
	}
	ids := make([]int, sh.shards)
	for i := range ids {
		ids[i] = i
	}
	ring := shard.New(ids, 0, 1)
	per := make([]int, sh.shards)
	var names []string
	for i := 0; len(names) < sh.docs && i < 1000; i++ {
		name := fmt.Sprintf("big%03d", i)
		if o := ring.Owner(name); per[o] < sh.docs/sh.shards {
			per[o]++
			names = append(names, name)
		}
	}
	if len(names) != sh.docs {
		return nil, fmt.Errorf("%s: could not spread %d documents over %d shards", sh.name, sh.docs, sh.shards)
	}
	return names, nil
}

func genSpine(sh spineShape, p spinePlan, seed uint64) (*spineScripts, error) {
	rng := seedFor(seed, sh.name)
	names, err := docNames(sh)
	if err != nil {
		return nil, err
	}
	sc := &spineScripts{initial: make(map[string]string, len(names)), names: names}
	for _, name := range names {
		sc.initial[name] = randText(rng, sh.docRunes)
	}
	// Session s owns the documents with index ≡ s (mod 2) on spine_small;
	// on spine_bigdoc both sessions edit every document.
	var owned [sessions][]int
	for i := range names {
		if sh.shared {
			for s := range sessions {
				owned[s] = append(owned[s], i)
			}
		} else {
			owned[i%sessions] = append(owned[i%sessions], i)
		}
		sc.models = append(sc.models, &model{runes: []rune(sc.initial[names[i]])})
	}
	gen := func(s int, mix bool) cycle {
		doc := owned[s][rng.IntN(len(owned[s]))]
		switch {
		case sh.shared && mix:
			return sharedMixCycle(rng, s, doc, sh.docRunes)
		case sh.shared:
			return bigCycle(rng, s, doc, sh.docRunes)
		case mix:
			return mixCycle(rng, doc, sc.models[doc])
		default:
			return smallCycle(rng, doc, sc.models[doc])
		}
	}
	sc.warm = make([][]cycle, sessions)
	sc.rounds = make([][][]cycle, sessions)
	sc.tail = make([][]cycle, sessions)
	for s := range sessions {
		for range sh.warm {
			sc.warm[s] = append(sc.warm[s], gen(s, false))
		}
	}
	for r := 0; r < p.rounds; r++ {
		for s := range sessions {
			round := make([]cycle, p.perRound)
			for i := range round {
				round[i] = gen(s, false)
			}
			sc.rounds[s] = append(sc.rounds[s], round)
		}
	}
	for s := range sessions {
		for range p.tail {
			sc.tail[s] = append(sc.tail[s], gen(s, true))
		}
	}
	return sc, nil
}

// spineServer is one set-up: the server, its public listener and the
// connected sessions.
type spineServer struct {
	srv  *collab.ShardedServer
	sess []*sessionRun
	dir  string
}

func startSpine(sh spineShape, sc *spineScripts, dir string) (*spineServer, error) {
	opts := collab.ShardedOptions{Shards: sh.shards, Front: collab.Options{Seed: 1}}
	if sh.durable {
		opts.Dir = dir
	}
	ln := memnet.Listen(sessions)
	srv, err := collab.ServeSharded(ln, sc.initial, opts)
	if err != nil {
		return nil, err
	}
	ss := &spineServer{srv: srv, dir: dir}
	for i := range sessions {
		c, err := collab.Dial(ln)
		if err != nil {
			_ = ss.stop() // the dial error is the one to report
			return nil, err
		}
		ss.sess = append(ss.sess, &sessionRun{idx: i, c: c, names: sc.names})
	}
	return ss, nil
}

// stop ends the sessions and shuts the server down, freezing its final
// documents.
func (ss *spineServer) stop() error {
	var first error
	for _, s := range ss.sess {
		if err := s.c.Bye(); err != nil && first == nil {
			first = fmt.Errorf("session %d: bye: %w", s.idx, err)
		}
	}
	if err := ss.srv.Shutdown(); err != nil {
		return err
	}
	return first
}

// drive runs one cycle list per session concurrently and returns the
// wall time until both sessions are done.
func (ss *spineServer) drive(cycles [][]cycle, opBase int64, record bool, tracks []*track) time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, s := range ss.sess {
		var tk *track
		if tracks != nil {
			tk = tracks[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(cycles[i], opBase+int64(i)<<40, record, tk)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

func runSpine(sh spineShape, p spinePlan, cfg runConfig) (*spineOut, error) {
	sc, err := genSpine(sh, p, cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &spineOut{}
	var ss *spineServer
	for k := 0; k < p.setups; k++ {
		dir, err := os.MkdirTemp(cfg.workdir, sh.name+"-")
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		ss, err = startSpine(sh, sc, dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("%s: set-up: %w", sh.name, err)
		}
		ss.drive(sc.warm, 0, false, nil)
		out.setup = append(out.setup, time.Since(t0).Seconds())
		if k < p.setups-1 {
			err := ss.stop()
			os.RemoveAll(dir)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up teardown: %w", sh.name, err)
			}
		}
	}
	defer os.RemoveAll(ss.dir)

	var tracks []*track
	if p.traced {
		epoch := time.Now()
		for range sessions {
			tracks = append(tracks, newTrack(epoch))
		}
	}
	opsPerRound := 0
	for s := range sessions {
		if p.rounds > 0 {
			opsPerRound += cycleOps(sc.rounds[s][0])
		}
		out.tracedOps += int64(cycleOps(sc.tail[s]))
	}
	untraced := p.rounds
	if p.traced {
		untraced = p.rounds / 2
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0 := readGC()
	round := func(r int, tracks []*track) time.Duration {
		cycles := make([][]cycle, sessions)
		for s := range sessions {
			cycles[s] = sc.rounds[s][r]
		}
		return ss.drive(cycles, int64(r+1)<<20, true, tracks)
	}
	for r := 0; r < untraced; r++ {
		out.rates = append(out.rates, float64(opsPerRound)/round(r, nil).Seconds())
	}
	gc1 := readGC()
	runtime.ReadMemStats(&m1)
	for _, s := range ss.sess {
		out.lat = append(out.lat, s.lat...)
		s.lat = s.lat[:0]
		s.replyBytes = 0
	}
	timedOps := int64(untraced * opsPerRound)
	if timedOps > 0 {
		out.allocKBPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(timedOps) / 1024
		out.gcCPUShare, out.gcCyclesPerKop = gc1.since(gc0, timedOps)
	}
	if p.traced {
		out.tracedOps += int64((p.rounds - untraced) * opsPerRound)
		for r := untraced; r < p.rounds; r++ {
			out.tracedRates = append(out.tracedRates, float64(opsPerRound)/round(r, tracks).Seconds())
		}
		ss.drive(sc.tail, int64(p.rounds+1)<<20, true, tracks)
		out.tr = &trace{}
		for _, tk := range tracks {
			out.tr.add(tk.spans)
		}
		probe := newTrack(tracks[0].epoch)
		probeRoute(probe, ss.srv, sc.names)
		out.tr.add(probe.spans)
		for _, s := range ss.sess {
			out.tracedLat = append(out.tracedLat, s.lat...)
			out.replyBytes += s.replyBytes
		}
	}

	// Retained state: live heap with the server and sessions still up.
	// The executed scripts are dropped first so the heap holds the
	// program's state plus only the per-op latency samples (8 B per op).
	sc.warm, sc.rounds, sc.tail = nil, nil, nil
	runtime.GC()
	runtime.GC()
	var mh runtime.MemStats
	runtime.ReadMemStats(&mh)
	out.heapMB = float64(mh.HeapAlloc) / (1 << 20)

	var acked int64
	for _, s := range ss.sess {
		cs := s.c.Stats()
		out.coalesced += cs.Get("coalesced")
		out.busy += cs.Get("busy")
		out.retries += cs.Get("reconnect_retry")
		out.attempted += s.ops + s.failed
		out.failed += s.failed
		out.directMutations += s.direct
		out.queued += s.queued
		acked += s.mutations
	}
	st := ss.srv.Stats()
	out.routedEdits = st.Get("routed_edits")
	out.forwardedBatches = st.Get("forwarded_batches")
	out.pipeErrors = st.Get("pipe_errors")
	qs := ss.srv.MergeLatency().Quantiles(0.5, 0.9)
	out.mergeP50us, out.mergeP90us = qs[0]*1e6, qs[1]*1e6

	if err := ss.stop(); err != nil {
		return nil, fmt.Errorf("%s: shutdown: %w", sh.name, err)
	}
	for _, s := range ss.sess {
		if s.firstErr != nil {
			return out, fmt.Errorf("%s: session %d: %w", sh.name, s.idx, s.firstErr)
		}
	}
	if err := checkSpine(sh, sc, ss.srv, acked-out.coalesced); err != nil {
		return out, err
	}
	if sh.durable {
		size, err := oplogBytes(ss.dir)
		if err != nil {
			return out, err
		}
		out.oplogBytesPerOp = float64(size) / float64(acked-out.coalesced)
	}
	return out, nil
}

func cycleOps(cycles []cycle) int {
	n := 0
	for _, cy := range cycles {
		n += cy.ops()
	}
	return n
}

// checkSpine compares the final server state with the scripts.
func checkSpine(sh spineShape, sc *spineScripts, srv *collab.ShardedServer, mutations int64) error {
	if got := srv.Edits(); got != mutations {
		return fmt.Errorf("%s: server applied %d edits, clients had %d acked", sh.name, got, mutations)
	}
	for i, name := range sc.names {
		doc, ok := srv.Document(name)
		if !ok {
			return fmt.Errorf("%s: document %s missing after shutdown", sh.name, name)
		}
		if sh.shared {
			// Every session's inserts and deletes pair up, so each
			// document ends at its initial length.
			if n := len([]rune(doc)); n != sh.docRunes {
				return fmt.Errorf("%s: document %s has %d runes, want %d", sh.name, name, n, sh.docRunes)
			}
			continue
		}
		want := string(sc.models[i].runes)
		if collab.CanonicalFingerprint(doc) != collab.CanonicalFingerprint(want) {
			return fmt.Errorf("%s: document %s differs from its owner's replay", sh.name, name)
		}
	}
	return nil
}

// oplogBytes sums the sizes of the shards' op logs under dir.
func oplogBytes(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*", "ops.log"))
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("no op logs under %s", dir)
	}
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
