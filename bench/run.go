package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"seqrep"
)

// runConfig is one run: one workload, one seed.
type runConfig struct {
	w         *workload
	seed      int64
	seconds   float64
	trace     bool
	corpusN   int
	local     bool   // serve in-process instead of booting the binary (smoke test)
	small     bool   // a tenth of the fixed operation counts and one boot and drill (smoke test)
	workDir   string // scratch, removed when the run ends
	outDir    string // traces and server logs
	serverBin string
}

// sizes are the fixed operation counts of a run.
type sizes struct {
	warmOps, victims, boots, drills, drillWrites, tracePerType, microSamples, closedFloor int
	window, leadIn, sideLeadIn                                                            float64
}

func (c runConfig) sizes() sizes {
	if c.small {
		// The floor under the closed phase's op list is higher: a
		// 300-record corpus served in-process answers far faster.
		return sizes{warmOps / 10, victimCount / 10, 1, 1, drillWrites / 10, tracePerType / 4, microSamples / 10, 12000, window / 2.5, leadIn / 2.5, sideLeadIn / 2.5}
	}
	return sizes{warmOps, victimCount, bootRepeats, drills, drillWrites, tracePerType, microSamples, 4000, window, leadIn, sideLeadIn}
}

// windowsIn is how many windows fit a phase: at least two, since the
// first is the lead-in.
func windowsIn(phaseSeconds, win float64) int { return max(2, int(math.Round(phaseSeconds/win))) }

// value is one reported figure with its unit and sample count.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// phaseCount is what every phase reports.
type phaseCount struct {
	Attempted int     `json:"attempted"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Seconds   float64 `json:"seconds"`
}

// runResult is everything one run learned.
type runResult struct {
	Workload    string                `json:"workload"`
	Seed        int64                 `json:"seed"`
	Seconds     float64               `json:"seconds"`
	Trace       bool                  `json:"trace"`
	ServerFlags []string              `json:"server_flags"`
	Rate        float64               `json:"open_rate_per_s"`
	Senders     int                   `json:"senders"`
	Correct     bool                  `json:"correct"`
	Valid       bool                  `json:"open_loop_valid"`
	Attempted   int                   `json:"attempted"`
	Failed      int                   `json:"failed"`
	FailedShare float64               `json:"failed_share"`
	Phases      map[string]phaseCount `json:"phases"`
	Errors      []string              `json:"errors,omitempty"`
	EndToEnd    map[string]value      `json:"end_to_end"`
	Layers      map[string]value      `json:"per_layer"`
	Parts       map[string]any        `json:"parts"`
	WallSeconds float64               `json:"wall_seconds"`
}

// run is the state of one run in flight.
type run struct {
	cfg    runConfig
	res    *runResult
	clock  func() float64
	corpus *corpus
	gen    *opGen
	node   node
	drv    *driver
	orc    *oracle
	refDB  *seqrep.DB
	data   string // live data directory
	kept   []*sample
	replay []*op // the fixed-count phases' writes and checkpoints, in order
	// unscaled holds each scaled end-to-end figure as it was timed.
	unscaled map[string]float64
}

// fail records an error and marks the run incorrect. Only the goroutine
// that runs the phases calls it.
func (r *run) fail(format string, args ...any) {
	r.res.Correct = false
	if len(r.res.Errors) < 20 {
		r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
	}
}

// account folds a finished phase into the counts, the event log and the
// oracle's kept responses.
func (r *run) account(p *phase) {
	pc := r.res.Phases[p.name]
	for i := range p.samples {
		s := &p.samples[i]
		pc.Attempted++
		if s.ok {
			pc.Succeeded++
		} else {
			pc.Failed++
			r.fail("%s: %s %s: %s", p.name, s.op.method, s.op.path, s.err)
		}
		if s.op.check && s.ok {
			r.kept = append(r.kept, s)
		}
	}
	pc.Seconds += p.seconds
	r.res.Phases[p.name] = pc
	r.orc.observe(p)
}

func (r *run) flags() []string {
	var f []string
	if r.cfg.w.memoryBudgetShare > 0 {
		cfg := engineConfig(r.cfg.w, r.corpus.payloadBytes)
		f = append(f, "-memory-budget", fmt.Sprint(cfg.MemoryBudget), "-segment-cache", fmt.Sprint(cfg.SegmentCacheBytes))
	}
	return f
}

func (r *run) newNode() node {
	if r.cfg.local {
		return &localNode{dataDir: r.data, cfg: engineConfig(r.cfg.w, r.corpus.payloadBytes)}
	}
	return &procNode{
		bin:     r.cfg.serverBin,
		dataDir: r.data,
		flags:   r.flags(),
		logPath: filepath.Join(r.cfg.outDir, "server-"+r.cfg.w.name+".log"),
	}
}

// warmList is the fixed warm-up of one boot: the victims DELETE will
// consume (workloads that delete), then warmOps of the workload's own mix
// — for hot-repeat, every one of its statements once first, so the cache
// is full when measurement starts.
func (r *run) warmList() (ops []*op, victims []string) {
	g := r.gen
	if r.cfg.w.checkpoints {
		left := r.cfg.sizes().victims
		for left > 0 {
			o := g.batch(min(left, 100))
			left -= len(o.wrote)
			for _, ns := range o.wrote {
				victims = append(victims, ns.id)
			}
			ops = append(ops, o)
		}
	}
	for _, o := range g.hot {
		cp := *o
		ops = append(ops, &cp)
	}
	saved := g.victims
	g.victims, g.noMark = nil, true // warm-up never deletes and is not checked
	ops = append(ops, g.list(r.cfg.sizes().warmOps, func() *op { return r.cfg.w.mix(g) }, 0)...)
	g.victims, g.noMark = saved, false
	return ops, victims
}

// execute performs the run. It always tears the server down, whatever
// happened.
func execute(cfg runConfig) (res *runResult, err error) {
	start := time.Now()
	r := &run{
		cfg:   cfg,
		clock: func() float64 { return time.Since(start).Seconds() },
		res: &runResult{
			Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
			Rate: cfg.w.rate, Senders: senders(),
			Correct: true, Valid: true,
			Phases: map[string]phaseCount{}, EndToEnd: map[string]value{}, Layers: map[string]value{}, Parts: map[string]any{},
		},
		data: filepath.Join(cfg.workDir, "data"),
	}
	res = r.res
	timeline := map[string]float64{}
	res.Parts["timeline_s"] = timeline
	mark := func(name string) { timeline[name] = r.clock() }
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)
	defer func() {
		if r.node != nil {
			if stopErr := r.node.Stop(); stopErr != nil && err == nil {
				err = stopErr
			}
		}
		if r.refDB != nil {
			r.refDB.Close()
		}
		res.WallSeconds = time.Since(start).Seconds()
	}()

	// ---- set-up: corpus build, then copy + boot + warm-up several times ----
	r.corpus, err = buildCorpus(cfg.seed, cfg.corpusN, filepath.Join(cfg.workDir, "corpus"))
	if err != nil {
		return nil, err
	}
	mark("corpus built")
	refDir := filepath.Join(cfg.workDir, "ref")
	if err := copyDir(r.corpus.dir, refDir); err != nil {
		return nil, err
	}
	if r.refDB, err = seqrep.OpenDir(refDir, seqrep.Config{}); err != nil {
		return nil, fmt.Errorf("opening reference copy: %w", err)
	}
	r.orc = newOracle(r.corpus, r.refDB)
	r.gen = newOpGen(cfg.seed, r.corpus)
	if cfg.w.name == "hot-repeat" {
		r.gen.buildHotSet()
	}
	var boots, bootsRaw []float64
	bootRepeats := cfg.sizes().boots
	for i := 0; i < bootRepeats; i++ {
		warm, victims := r.warmList()
		runtime.GC() // the build's garbage is not the boot's
		calBefore := calibrate(false)
		t0 := time.Now()
		if err := copyDir(r.corpus.dir, r.data); err != nil {
			return nil, err
		}
		r.node = r.newNode()
		if err := r.node.Start(); err != nil {
			return nil, err
		}
		r.drv = newDriver(r.node.URL(), senders(), r.clock)
		p := r.drv.all("warm-up", warm)
		raw := time.Since(t0).Seconds()
		bootsRaw = append(bootsRaw, raw)
		boots = append(boots, raw/mean([]float64{calBefore, calibrate(false)}))
		if i < bootRepeats-1 {
			for j := range p.samples {
				if !p.samples[j].ok {
					r.fail("warm-up: %s", p.samples[j].err)
				}
			}
			r.drv.close()
			if err := r.node.Crash(); err != nil {
				return nil, err
			}
			continue
		}
		r.account(p)
		r.gen.victims = victims
		for _, o := range warm {
			if len(o.wrote) > 0 {
				r.replay = append(r.replay, o)
			}
		}
	}
	mark("booted")
	res.ServerFlags = r.flags()
	setup := r.corpus.buildSeconds() + median(boots)
	res.EndToEnd["setup_s"] = value{setup, "s", len(boots)}
	r.unscaled = map[string]float64{"setup_s": median(r.corpus.sliceRaw)*float64(len(r.corpus.sliceRaw)) + r.corpus.checkpointRaw + median(bootsRaw)}
	res.Parts["unscaled"] = r.unscaled
	res.Parts["corpus_build_s"] = r.corpus.buildSeconds()
	res.Parts["corpus_slice_s"] = r.corpus.sliceSeconds
	res.Parts["corpus_slice_raw_s"] = r.corpus.sliceRaw
	res.Parts["copy_boot_warm_raw_s"] = bootsRaw
	res.Parts["corpus_checkpoint_s"] = r.corpus.checkpointSeconds
	res.Parts["copy_boot_warm_s"] = boots

	// ---- measured phases ----
	T := cfg.seconds
	w := cfg.w
	sz := cfg.sizes()
	ckpt := 0
	if w.checkpoints {
		ckpt = checkpointEvery
	}
	mainOps := r.gen.list(int(w.rate*T*openShare), func() *op { return w.mix(r.gen) }, ckpt)
	probes := w.side()
	sideOps := make([][]*op, len(probes))
	for i, pr := range probes {
		n := int(pr.rate * T * sideShare / float64(len(probes)))
		sideOps[i] = r.gen.list(n, func() *op { return pr.draw(r.gen) }, 0)
	}
	// The closed phase stops on time, so its list only has to be long
	// enough never to run dry: several times what the open rate (a third
	// of saturation) would send.
	closedOps := r.gen.list(max(int(w.rate*T*closedShare*8), sz.closedFloor), func() *op { return w.mix(r.gen) }, ckpt)

	for _, ops := range append([][]*op{mainOps}, sideOps...) {
		for _, o := range ops {
			if len(o.wrote) > 0 || o.delID != "" || o.class == clsCheckpoint {
				r.replay = append(r.replay, o)
			}
		}
	}

	mark("ops generated")
	runtime.GC()
	before := r.scrape()
	mainPhase := r.drv.open("open", mainOps, w.rate, sz.leadIn)
	r.account(mainPhase)
	afterMain := r.scrape()
	mark("open done")
	carrier := map[class]*phase{}
	for _, c := range w.mainClasses {
		carrier[c] = mainPhase
	}
	open := []*phase{mainPhase}
	for i, pr := range probes {
		p := r.drv.open("side-"+string(pr.class), sideOps[i], pr.rate, sz.sideLeadIn)
		r.account(p)
		carrier[pr.class] = p
		open = append(open, p)
	}

	mark("side done")
	// Space: the op count up to here is fixed by rate × time, not by how
	// fast the machine ran, so the bytes on disk repeat.
	r.account(r.drv.all("checkpoint", []*op{checkpointOp()}))
	disk, err := dirBytes(r.data)
	if err != nil {
		return nil, err
	}
	live := r.liveSamples()
	res.EndToEnd["disk_bytes_per_user_byte"] = value{float64(disk) / float64(8*live), "ratio", 1}
	res.Parts["disk_bytes"] = disk
	res.Parts["live_samples"] = live

	var watch *queueWatch
	if cfg.trace {
		watch = r.watchQueue()
	}
	res.EndToEnd["rss_peak_mb"] = value{math.Max(r.node.PeakRSSMiB(), 1), "MiB", 1}
	closedPhase := r.drv.closed("closed", closedOps, windowsIn(T*closedShare, sz.window), sz.window)
	queuedMax := 0
	if watch != nil {
		queuedMax = watch.close()
	}
	r.account(closedPhase)
	mark("closed done")

	r.latencies(carrier)
	r.throughput(closedPhase)
	r.clientLayer(carrier, open, closedPhase, before, afterMain, r.scrape(), queuedMax)
	if cfg.trace {
		if err := r.traced(); err != nil {
			return nil, err
		}
	}

	// ---- durability drills ----
	if err := r.drills(); err != nil {
		return nil, err
	}

	mark("drills done")
	// ---- answer oracle over the kept responses ----
	t0 := time.Now()
	wrong := 0
	for _, s := range r.kept {
		if err := r.orc.verify(s); err != nil {
			wrong++
			r.fail("oracle: %s: %v", s.op.stmt.text, err)
		}
	}
	res.Phases["oracle"] = phaseCount{Attempted: len(r.kept), Succeeded: len(r.kept) - wrong, Failed: wrong, Seconds: time.Since(t0).Seconds()}

	for name, pc := range res.Phases {
		if name == "oracle" { // its requests were already counted where they were sent
			res.Failed += pc.Failed
			continue
		}
		res.Attempted += pc.Attempted
		res.Failed += pc.Failed
	}
	res.FailedShare = float64(res.Failed) / float64(max(res.Attempted, 1))
	return res, nil
}

// senders is the number of client connections: at most nproc.
func senders() int { return max(1, min(runtime.NumCPU(), 2)) }

// liveSamples counts the samples of every record an acknowledged write
// left in the database.
func (r *run) liveSamples() int {
	n := r.corpus.samples
	for _, w := range r.orc.writes {
		if w.acked && !w.delAcked {
			n += len(w.seq.vals)
		}
	}
	return n
}

// classSamples selects the measured (post-lead-in) successful samples of
// one class from the phase that carries it.
func classSamples(p *phase, c class) []*sample {
	var out []*sample
	for i := range p.samples {
		s := &p.samples[i]
		if s.op.class == c && s.ok && s.due >= p.t0 {
			out = append(out, s)
		}
	}
	return out
}

// scaledMedian is the figure reported for a latency: the median over
// half-second windows of each window's median — so that a stall of a
// window or two does not move it — divided by the machine's slowness over
// the phase. parts keeps the unscaled figure beside it.
func scaledMedian(p *phase, ss []*sample, val func(*sample) float64) (scaled, raw float64, windows []float64) {
	all := make([]float64, len(ss))
	byWindow := map[int][]float64{}
	for i, s := range ss {
		all[i] = val(s)
		w := int((s.due - p.t0) / window)
		byWindow[w] = append(byWindow[w], all[i])
	}
	for w := 0; w <= int(p.seconds/window); w++ {
		if len(byWindow[w]) >= 5 {
			windows = append(windows, median(byWindow[w]))
		}
	}
	raw = median(all)
	if len(windows) >= 3 {
		raw = median(windows)
	}
	return raw / p.slowness(), raw, windows
}

// latencies fills the open-loop end-to-end figures from whichever phase
// carried each class.
func (r *run) latencies(carrier map[class]*phase) {
	lat := func(s *sample) float64 { return s.latencyMs() }
	report := func(name string, c class, val func(*sample) float64) {
		p := carrier[c]
		ss := classSamples(p, c)
		if len(ss) == 0 {
			r.fail("%s: no successful %s samples", name, c)
			return
		}
		v, raw, windows := scaledMedian(p, ss, val)
		r.res.EndToEnd[name] = value{v, "ms", len(ss)}
		r.unscaled[name] = raw
		r.res.Parts[name+"_windows_raw"] = windows
		r.res.Parts[p.name+"_slowness"] = p.slowness()
		r.res.Parts[p.name+"_ref_ms"] = p.refLatency
		r.res.Parts[p.name+"_cpu_slowness"] = p.cpuSlow
		r.res.Parts[name+"_phase"] = p.name
	}
	report("query_p50_ms", clsQuery, lat)
	report("ingest_p50_ms", clsIngest, lat)
	report("feature_p50_ms", clsFeature, lat)
	report("stream_p50_ms", clsStream, lat)
	report("first_match_p50_ms", clsStream, func(s *sample) float64 { return (s.first - s.due) * 1000 })
	for _, s := range classSamples(carrier[clsStream], clsStream) {
		if s.first == 0 {
			r.fail("stream without a match frame: %s", s.op.stmt.text)
			break
		}
	}
}

// throughput fills sat_rps: the median over the closed phase's windows
// of successful completions per second, times the machine's slowness
// over the phase with every core busy.
func (r *run) throughput(p *phase) {
	var rates []float64
	for _, start := range p.starts {
		n := 0
		for i := range p.samples {
			if s := &p.samples[i]; s.ok && s.sent >= start && s.done < start+p.win {
				n++
			}
		}
		rates = append(rates, float64(n)/p.win)
	}
	if len(rates) == 0 {
		r.fail("sat_rps: closed phase too short")
		return
	}
	r.res.EndToEnd["sat_rps"] = value{median(rates) * p.slowness(), "1/s", len(rates)}
	r.unscaled["sat_rps"] = median(rates)
	r.res.Parts["sat_rps_windows_raw"] = rates
	r.res.Parts["closed_slowness"] = p.slowness()
	r.res.Parts["closed_cpu_slowness"] = p.cpuSlow
}
