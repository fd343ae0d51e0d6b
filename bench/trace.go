package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"seqrep"
	"seqrep/api"
	"seqrep/internal/breaking"
	"seqrep/internal/dft"
	"seqrep/internal/dist"
	"seqrep/internal/feature"
	"seqrep/internal/index/inverted"
	"seqrep/internal/multires"
	"seqrep/internal/pattern"
	"seqrep/internal/querylang"
	"seqrep/internal/rep"
	"seqrep/internal/segment"
	"seqrep/internal/server"
	"seqrep/internal/wal"
)

// The traced run breaks the round trip down by layer from the benchmark's
// own code. For a fixed sample of each operation type it times the live
// HTTP round trip (the client span), then re-executes the same operation
// one layer down at a time against an in-process copy of the same data
// directory: the server's handler, querylang's Parse and Run, core's
// query call, and the dft / dist / multires / breaking / rep / feature /
// wal calls beneath it. Child spans are re-executions (reexec: true), not
// observations of the live request; a layer's self time is its median
// minus its children's medians. Spans inside the program are a later
// change (ROADMAP item 2).

// walPayloadBytes is the size of the log record an ingest of a
// walkLen-sample sequence writes: id length, id, sample count, (t, v) pairs.
const walPayloadBytes = 2 + len("new-000000") + 4 + 16*walkLen

const (
	tracePerType  = 40  // sampled operations per type
	microSamples  = 300 // repetitions of each stand-alone layer measurement
	selfTolerance = 0.10
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = the operation's root
	Op     int    `json:"op"`
	Type   string `json:"type"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Reexec bool   `json:"reexec,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(parent, op int, typ, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Type: typ, Name: name, Reexec: parent != 0,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }

// time runs fn inside a new span and returns the span's id.
func (t *tracer) time(parent, op int, typ, name string, fn func()) int {
	id := t.begin(parent, op, typ, name)
	fn()
	t.end(id)
	return id
}

// us returns the durations in microseconds of every span of one
// operation type and name.
func (t *tracer) us(typ, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Type == typ && s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// layerCopy is the in-process twin of the server under test plus what the
// re-executions below core need, built outside the engine with the
// modules' public functions.
type layerCopy struct {
	db      *seqrep.DB
	handler http.Handler
	cfg     seqrep.Config

	walks    []*record
	walkSeqs []seqrep.Sequence
	feats    []float64 // columnar dft features of walks (comparison form)
	zfeats   []float64
	tree     *dft.VPTree
	ztree    *dft.VPTree
	sketches []*multires.Sketch
	symbols  []string // distinct slope strings of the corpus
	rr       *inverted.Index
	buildMs  []float64
}

func (r *run) newLayerCopy() (*layerCopy, error) {
	dir := filepath.Join(r.cfg.workDir, "trace")
	if err := copyDir(r.corpus.dir, dir); err != nil {
		return nil, err
	}
	cfg := engineConfig(r.cfg.w, r.corpus.payloadBytes)
	snap := &server.DirSnapshotter{Dir: dir, Config: cfg}
	db, err := snap.Open()
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{DB: db, Snapshotter: snap})
	if err != nil {
		db.Close()
		return nil, err
	}
	lc := &layerCopy{db: db, handler: srv.Handler(), cfg: db.Config(), walks: r.corpus.walks}
	k := lc.cfg.IndexCoeffs
	seen := map[string]bool{}
	if lc.rr, err = inverted.New(lc.cfg.BucketWidth); err != nil {
		return nil, err
	}
	for _, rec := range r.corpus.recs {
		if !seen[rec.profile.Symbols] {
			seen[rec.profile.Symbols] = true
			lc.symbols = append(lc.symbols, rec.profile.Symbols)
		}
		for pos, iv := range rec.profile.Intervals {
			if err := lc.rr.Add(iv, inverted.Ref{ID: rec.id, Pos: int32(pos)}); err != nil {
				return nil, err
			}
		}
	}
	for _, w := range lc.walks {
		f, err := dft.Features(w.recon, k)
		if err != nil {
			return nil, err
		}
		zf, err := dft.Features(dist.ZNormalizeValues(w.recon), k)
		if err != nil {
			return nil, err
		}
		lc.feats = append(lc.feats, f...)
		lc.zfeats = append(lc.zfeats, zf...)
		lc.walkSeqs = append(lc.walkSeqs, seqrep.NewSequence(w.recon))
		lc.sketches = append(lc.sketches, multires.BuildSketch(w.recon, lc.cfg.SketchBlock))
	}
	leaf := max(lc.cfg.IndexLeaf, 0)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if lc.tree, err = dft.NewVPTree(lc.feats, 2*k, leaf); err != nil {
			return nil, err
		}
		lc.buildMs = append(lc.buildMs, msSince(t0))
	}
	if lc.ztree, err = dft.NewVPTree(lc.zfeats, 2*k, leaf); err != nil {
		return nil, err
	}
	return lc, nil
}

// serve runs one operation through the in-process handler and returns
// the response body.
func (lc *layerCopy) serve(o *op) (int, []byte) {
	req := httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body))
	rec := httptest.NewRecorder()
	lc.handler.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// drawClass draws the next n operations of one class from the same
// generators the measured phases used.
func (r *run) drawClass(c class, n int) []*op {
	draw := r.cfg.w.mix
	for _, pr := range r.cfg.w.side() {
		if pr.class == c {
			draw = pr.draw
		}
	}
	var out []*op
	for len(out) < n {
		if o := draw(r.gen); o.class == c {
			o.check = true // the trace reads the response
			out = append(out, o)
		}
	}
	return out
}

// usSince and msSince are the time since t0 in micro- and milliseconds.
func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// tracePass is the traced pass in flight: its instruments and what it has
// added up so far.
type tracePass struct {
	r    *run
	lc   *layerCopy
	tr   *tracer
	one  *driver // the traced pass is single-client
	opNo int

	respBytes, encodeUs           []float64
	verifyUs, verifyCands, bandNs []float64
	segsPerSeq, encBytes          []float64
	examined, candidates          float64
	matches, pruned, statQueries  float64
	sketched, bandAccepted        float64
	progMatches, progQueries      float64
}

// traced performs the traced pass and fills the per-layer metrics that
// come from it. The live server is still up; the drills follow.
func (r *run) traced() error {
	lc, err := r.newLayerCopy()
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	defer lc.db.Close()
	t := &tracePass{r: r, lc: lc, tr: &tracer{t0: time.Now()}, one: newDriver(r.node.URL(), 1, r.clock)}
	defer t.one.close()
	sz := r.cfg.sizes()

	// What one cold record costs to page in: the first touch of records
	// spread through the corpus. Under a memory budget most are cold;
	// without one this is a pointer load.
	var faultUs []float64
	for i := 0; i < sz.microSamples; i++ {
		id := r.corpus.walks[(i*7919)%len(r.corpus.walks)].id
		t0 := time.Now()
		if _, err := lc.db.Representation(id); err != nil {
			return err
		}
		faultUs = append(faultUs, usSince(t0))
	}

	// Reads first: a traced write would invalidate the result cache.
	for _, c := range []class{clsQuery, clsStream, clsFeature} {
		for _, o := range r.drawClass(c, sz.tracePerType) {
			if err := t.read(c, o); err != nil {
				return fmt.Errorf("traced %s: %w", o.stmt.text, err)
			}
		}
	}

	// The uncapped top-10, which the mixes avoid (see ops.go), for the
	// layer metric alone.
	var topkUs []float64
	for i := 0; i < sz.tracePerType; i++ {
		ex, err := lc.db.Reconstruct(r.gen.nextExemplar().id)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, _, err := lc.db.DistanceQueryCtx(context.Background(), ex, dist.Euclidean, math.Inf(1), seqrep.QueryOptions{TopK: topK}); err != nil {
			return err
		}
		topkUs = append(topkUs, usSince(t0))
	}

	scratchLog, err := wal.Open(filepath.Join(r.cfg.workDir, "walspan"), wal.Options{})
	if err != nil {
		return err
	}
	defer scratchLog.Close()
	for _, o := range r.drawClass(clsIngest, sz.tracePerType) {
		if err := t.write(o, scratchLog); err != nil {
			return fmt.Errorf("traced ingest %s: %w", o.wrote[0].id, err)
		}
	}

	// ---- stand-alone layer measurements ----
	walAppendUs, walBytes, err := r.measureWAL()
	if err != nil {
		return err
	}
	getUs, flushMs, err := r.measureSegments()
	if err != nil {
		return err
	}
	rp, err := r.replayWrites(lc)
	if err != nil {
		return err
	}

	// ---- assemble ----
	tr, L := t.tr, r.res.Layers
	med := func(typ, name string) float64 { return median(tr.us(typ, name)) }
	n := func(typ, name string) int { return len(tr.us(typ, name)) }
	own := string(r.cfg.w.mainClasses[0]) // the type the workload is about
	ql := own                             // and its first type that goes through querylang
	for _, c := range r.cfg.w.mainClasses {
		if c != clsIngest {
			ql = string(c)
			break
		}
	}
	put := func(name string, v float64, unit string, samples int) { L[name] = value{v, unit, samples} }
	fromSpan := func(name, typ, spanName, unit string) { put(name, med(typ, spanName), unit, n(typ, spanName)) }
	self := tr.selfUs()

	fromSpan("server.handler_us", own, "server.handler", "us")
	fromSpan("querylang.parse_us", ql, "querylang.parse", "us")
	fromSpan("querylang.exec_us", ql, "querylang.exec", "us")
	put("server.self_us", median(self[spanKey{own, "server.handler"}]), "us", n(own, "server.handler"))
	put("querylang.exec_self_us", median(self[spanKey{ql, "querylang.exec"}]), "us", n(ql, "querylang.exec"))
	put("server.encode_us", median(t.encodeUs), "us", len(t.encodeUs))
	put("server.resp_bytes_per_op", mean(t.respBytes), "bytes", len(t.respBytes))
	put("client.http_overhead_us", med(own, "client")-med(own, "server.handler"), "us", n(own, "client"))

	fromSpan("core.query_us", "query", "core.query", "us")
	put("core.topk_us", median(topkUs), "us", len(topkUs))
	fromSpan("core.progressive_us", "stream", "core.progressive", "us")
	fromSpan("core.feature_query_us", "feature", "core.feature_query", "us")
	fromSpan("pattern.match_us", "feature", "pattern.match", "us")
	fromSpan("inverted.query_us", "feature", "inverted.query", "us")
	fromSpan("dft.features_us", "query", "dft.features", "us")
	fromSpan("dft.vptree_search_us", "query", "dft.vptree_search", "us")
	put("dft.vptree_build_ms", median(lc.buildMs), "ms", len(lc.buildMs))
	put("dist.verify_us_per_query", median(t.verifyUs), "us", len(t.verifyUs))
	put("dist.verify_ns_per_candidate", 1e3*sum(t.verifyUs)/math.Max(sum(t.verifyCands), 1), "ns", int(sum(t.verifyCands)))
	put("multires.band_ns_per_record", median(t.bandNs), "ns", len(t.bandNs))
	fromSpan("multires.sketch_build_us", "ingest", "multires.sketch_build", "us")
	put("resident.fault_us", median(faultUs), "us", len(faultUs))

	sq, pq := math.Max(t.statQueries, 1), math.Max(t.progQueries, 1)
	put("core.examined_per_query", t.examined/sq, "count", int(t.statQueries))
	put("core.candidates_per_query", t.candidates/sq, "count", int(t.statQueries))
	put("core.matches_per_query", t.matches/sq, "count", int(t.statQueries))
	put("core.examined_per_match", t.examined/math.Max(t.matches, 1), "ratio", int(t.statQueries))
	put("core.pruned_ratio", t.pruned/math.Max(t.pruned+t.candidates, 1), "ratio", int(t.statQueries))
	put("core.sketched_per_query", t.sketched/pq, "count", int(t.progQueries))
	put("core.band_accept_share", t.bandAccepted/math.Max(t.progMatches, 1), "ratio", int(t.progQueries))

	put("core.ingest_us", median(rp.ingestUs), "us", len(rp.ingestUs))
	fromSpan("core.pipeline_us", "ingest", "core.pipeline", "us")
	put("core.ingest_batch_rps", float64(len(r.corpus.recs))/sum(r.corpus.sliceSeconds), "1/s", len(r.corpus.recs))
	put("core.checkpoint_ms", median(rp.checkpointMs), "ms", len(rp.checkpointMs))
	put("core.checkpoint_bytes", mean(rp.checkpointBytes), "bytes", len(rp.checkpointBytes))
	fromSpan("breaking.break_us", "ingest", "breaking.break", "us")
	put("breaking.segments_per_seq", mean(t.segsPerSeq), "count", len(t.segsPerSeq))
	fromSpan("rep.build_us", "ingest", "rep.build", "us")
	put("rep.floats_per_sample", float64(r.corpus.storedFloats)/float64(r.corpus.samples), "ratio", len(r.corpus.recs))
	put("rep.encode_bytes_per_record", mean(t.encBytes), "bytes", len(t.encBytes))
	fromSpan("feature.extract_us", "ingest", "feature.extract", "us")

	put("wal.append_us", median(walAppendUs), "us", len(walAppendUs))
	put("wal.bytes_per_record", walBytes, "bytes", len(walAppendUs))
	put("segment.flush_ms", median(flushMs), "ms", len(flushMs))
	put("segment.get_us", median(getUs), "us", len(getUs))
	put("segment.count", float64(rp.segments.Segments), "count", 1)
	put("segment.compactions", float64(rp.segments.Compactions), "count", 1)
	put("segment.write_amp", rp.writeAmp, "ratio", len(rp.checkpointBytes))

	e2e := map[string]string{"query": "query_p50_ms", "stream": "stream_p50_ms", "ingest": "ingest_p50_ms", "feature": "feature_p50_ms"}[own]
	put("client.trace_overhead_ratio", med(own, "client")/1e3/r.res.EndToEnd[e2e].Value, "ratio", n(own, "client"))

	r.checkSelfTimes(tr, self)
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{r.cfg.w.name, r.cfg.seed, "parent 0 is an operation's client span; reexec spans are re-executions one layer down, not observations of the live request", tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.cfg.outDir, "trace-"+r.cfg.w.name+".json"), data, 0o644)
}

// read traces one query, stream or feature operation: the live round
// trip, then the same request through the twin's handler, then Parse and
// Run, then what Run called.
func (t *tracePass) read(c class, o *op) error {
	t.opNo++
	tr, lc, typ, st := t.tr, t.lc, string(c), o.stmt
	var live sample
	root := tr.time(0, t.opNo, typ, "client", func() { live = t.one.do(o) })
	if !live.ok {
		t.r.fail("traced %s: %s", st.text, live.err)
		return nil
	}
	cached := bytes.Contains(live.body, []byte(`"cached":true`))
	if cached {
		lc.serve(o) // fill the twin's cache the way the live one is
	}
	var body []byte
	hs := tr.time(root, t.opNo, typ, "server.handler", func() { _, body = lc.serve(o) })
	t.respBytes = append(t.respBytes, float64(len(body)))
	var q querylang.Query
	var err error
	tr.time(hs, t.opNo, typ, "querylang.parse", func() { q, err = querylang.Parse(st.text) })
	if err != nil {
		return err
	}
	if c != clsStream {
		var resp api.QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		t0 := time.Now()
		enc := json.NewEncoder(io.Discard)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(&resp) // io.Discard cannot fail
		t.encodeUs = append(t.encodeUs, usSince(t0))
		if resp.Stats != nil && c == clsQuery {
			t.statQueries++
			t.examined += float64(resp.Stats.Examined)
			t.candidates += float64(resp.Stats.Candidates)
			t.matches += float64(resp.Stats.Matches)
			t.pruned += float64(resp.Stats.Pruned)
		}
	} else if i := bytes.LastIndex(live.body, []byte(`{"done":true`)); i >= 0 {
		var f api.StreamFrame
		if json.Unmarshal(bytes.TrimSpace(live.body[i:]), &f) == nil && f.Stats != nil {
			t.progQueries++
			t.sketched += float64(f.Stats.Sketched)
			t.bandAccepted += float64(f.Stats.BandAccepted)
			t.progMatches += float64(f.Stats.Matches)
		}
	}
	if cached {
		return nil // a cache hit runs nothing below the parse
	}
	ctx := context.Background()
	es := tr.time(hs, t.opNo, typ, "querylang.exec", func() {
		if c == clsStream {
			_, err = querylang.RunProgressive(ctx, lc.db, q, func(seqrep.ProgressiveMatch) bool { return true })
		} else {
			_, err = q.Run(ctx, lc.db)
		}
	})
	if err != nil {
		return err
	}
	return t.belowExec(es, typ, st)
}

// write traces one ingest: the live round trip, the twin's handler,
// IngestRecord on the twin, and beneath it the log append (on a scratch
// log of its own) and the pipeline's calls.
func (t *tracePass) write(o *op, scratchLog *wal.WAL) error {
	t.opNo++
	tr, lc, ns := t.tr, t.lc, o.wrote[0]
	var live sample
	root := tr.time(0, t.opNo, "ingest", "client", func() { live = t.one.do(o) })
	if !live.ok {
		t.r.fail("traced ingest %s: %s", ns.id, live.err)
		return nil
	}
	t.r.orc.observe(&phase{samples: []sample{live}})
	hs := tr.time(root, t.opNo, "ingest", "server.handler", func() { lc.serve(o) })
	s := seqrep.NewSequence(ns.vals)
	var err error
	is := tr.time(hs, t.opNo, "ingest", "core.ingest", func() { _, err = lc.db.IngestRecord(ns.id+"-core", s) })
	if err != nil {
		return err
	}
	tr.time(is, t.opNo, "ingest", "wal.append", func() { _, err = scratchLog.Append(1, 0, make([]byte, walPayloadBytes)) })
	if err != nil {
		return err
	}
	ps := tr.begin(is, t.opNo, "ingest", "core.pipeline")
	var segs []breaking.Segment
	tr.time(ps, t.opNo, "ingest", "breaking.break", func() { segs, err = breaking.Interpolation(lc.cfg.Epsilon).Break(s) })
	if err != nil {
		return err
	}
	var fs *rep.FunctionSeries
	tr.time(ps, t.opNo, "ingest", "rep.build", func() { fs, err = rep.Build(s, segs, nil) })
	if err != nil {
		return err
	}
	tr.time(ps, t.opNo, "ingest", "feature.extract", func() { _, err = feature.Extract(fs, lc.cfg.Delta) })
	if err != nil {
		return err
	}
	recon, err := fs.Reconstruct()
	if err != nil {
		return err
	}
	vals := recon.Values()
	tr.time(ps, t.opNo, "ingest", "dft.features", func() {
		_, _ = dft.Features(vals, lc.cfg.IndexCoeffs) // the coefficient count is the engine's own
		_, _ = dft.Features(dist.ZNormalizeValues(vals), lc.cfg.IndexCoeffs)
	})
	tr.time(ps, t.opNo, "ingest", "multires.sketch_build", func() { multires.BuildSketch(vals, lc.cfg.SketchBlock) })
	tr.end(ps)
	t.segsPerSeq = append(t.segsPerSeq, float64(len(segs)))
	if enc, err := fs.MarshalBinary(); err == nil {
		t.encBytes = append(t.encBytes, float64(len(enc)))
	}
	return nil
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// belowExec re-executes what querylang's Run called: core's query
// function, and beneath it the candidate generation and verification
// rebuilt outside the engine from dft and dist.
func (t *tracePass) belowExec(parent int, typ string, st *statement) error {
	tr, lc, opNo, ctx := t.tr, t.lc, t.opNo, context.Background()
	var err error
	switch st.family {
	case "l2", "zl2", "value", "top", "prog":
		ex, err := lc.db.Reconstruct(st.exemplar.id)
		if err != nil {
			return err
		}
		metric := dist.Euclidean
		if st.family == "zl2" {
			metric = dist.ZEuclidean
		}
		var cs int
		switch st.family {
		case "top":
			tr.time(parent, opNo, typ, "core.query", func() {
				_, _, err = lc.db.DistanceQueryCtx(ctx, ex, metric, st.eps, seqrep.QueryOptions{TopK: topK})
			})
			return err
		case "prog":
			cs = tr.time(parent, opNo, typ, "core.progressive", func() {
				_, err = lc.db.DistanceQueryProgressive(ctx, ex, metric, st.eps, seqrep.QueryOptions{MaxError: st.maxErr}, func(seqrep.ProgressiveMatch) bool { return true })
			})
			if err != nil {
				return err
			}
			t0 := time.Now()
			qs := multires.BuildSketch(ex.Values(), lc.cfg.SketchBlock)
			tr.time(cs, opNo, typ, "multires.band", func() {
				for _, sk := range lc.sketches {
					multires.DistanceBand(qs, sk, "l2")
				}
			})
			t.bandNs = append(t.bandNs, 1e3*usSince(t0)/float64(len(lc.sketches)))
		case "value":
			cs = tr.time(parent, opNo, typ, "core.query", func() {
				_, _, err = lc.db.ValueQueryCtx(ctx, ex, st.eps, seqrep.QueryOptions{})
			})
		default:
			cs = tr.time(parent, opNo, typ, "core.query", func() {
				_, _, err = lc.db.DistanceQueryCtx(ctx, ex, metric, st.eps, seqrep.QueryOptions{})
			})
		}
		if err != nil {
			return err
		}
		// Candidate generation and verification, outside the engine.
		vals, tree, bound := ex.Values(), lc.tree, st.eps
		if st.family == "zl2" {
			vals, tree = dist.ZNormalizeValues(vals), lc.ztree
		}
		if st.family == "value" {
			bound = st.eps * math.Sqrt(float64(len(vals))) // inside the band ⇒ L2 ≤ ε·√n
		}
		var qf []float64
		tr.time(cs, opNo, typ, "dft.features", func() { qf, err = dft.Features(vals, lc.cfg.IndexCoeffs) })
		if err != nil {
			return err
		}
		var cands []int32
		tr.time(cs, opNo, typ, "dft.vptree_search", func() {
			tree.Search(qf, bound*(1+1e-9)+1e-12, func(ord int32, _ float64) { cands = append(cands, ord) })
		})
		t0 := time.Now()
		tr.time(cs, opNo, typ, "dist.verify", func() {
			for _, ord := range cands {
				if st.family == "value" {
					_, _, _ = dist.BandDistance(ex, lc.walkSeqs[ord], st.eps)
				} else {
					_, _, _ = dist.DistanceWithin(metric, ex, lc.walkSeqs[ord], st.eps)
				}
			}
		})
		if st.family != "prog" {
			t.verifyUs = append(t.verifyUs, usSince(t0))
			t.verifyCands = append(t.verifyCands, float64(len(cands)))
		}
	case "pattern", "find":
		cs := tr.time(parent, opNo, typ, "core.feature_query", func() {
			if st.family == "find" {
				_, err = lc.db.SearchPattern(st.pattern)
			} else {
				_, err = lc.db.MatchPattern(st.pattern)
			}
		})
		if err != nil {
			return err
		}
		tr.time(cs, opNo, typ, "pattern.match", func() {
			p, cerr := pattern.Compile(st.pattern)
			if cerr != nil {
				err = cerr
				return
			}
			for _, sym := range lc.symbols {
				if st.family == "find" {
					p.FindAll(sym)
				} else {
					p.Match(sym)
				}
			}
		})
	case "interval":
		cs := tr.time(parent, opNo, typ, "core.feature_query", func() { _, err = lc.db.IntervalQuery(st.n, st.eps) })
		if err != nil {
			return err
		}
		tr.time(cs, opNo, typ, "inverted.query", func() { _, err = lc.rr.Query(st.n-st.eps, st.n+st.eps) })
	case "peaks":
		tr.time(parent, opNo, typ, "core.feature_query", func() { _, err = lc.db.PeakCount(st.k, st.tol) })
	case "shape":
		ex, rerr := lc.db.Reconstruct(st.exemplar.id)
		if rerr != nil {
			return rerr
		}
		tr.time(parent, opNo, typ, "core.feature_query", func() {
			_, _, err = lc.db.ShapeQueryCtx(ctx, ex, seqrep.ShapeTolerance{Height: 0.25, Spacing: 0.3}, seqrep.QueryOptions{})
		})
	}
	return err
}

// measureWAL times Append — frame, write and group fsync — with nproc
// concurrent appenders and payloads the size of an ingest record.
func (r *run) measureWAL() (us []float64, bytesPerRecord float64, err error) {
	dir := filepath.Join(r.cfg.workDir, "walprobe")
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, 0, err
	}
	payload := make([]byte, walPayloadBytes)
	microSamples := r.cfg.sizes().microSamples
	var mu sync.Mutex
	var wg sync.WaitGroup
	for a := 0; a < senders(); a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < microSamples/senders(); i++ {
				t0 := time.Now()
				_, aerr := w.Append(1, 0, payload)
				d := usSince(t0)
				mu.Lock()
				us = append(us, d)
				if aerr != nil {
					err = aerr
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st := w.Stats()
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return us, float64(st.Bytes) / math.Max(float64(st.Records), 1), err
}

// measureSegments times Store.Get with the cache off on a copy of the
// corpus's segment tier, and Store.Flush of a 200-record delta.
func (r *run) measureSegments() (getUs, flushMs []float64, err error) {
	dir := filepath.Join(r.cfg.workDir, "segprobe")
	if err := copyDir(filepath.Join(r.corpus.dir, "segments"), dir); err != nil {
		return nil, nil, err
	}
	st, err := segment.Open(dir, nil, -1)
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	var payload []byte
	for i := 0; i < r.cfg.sizes().microSamples; i++ {
		id := r.corpus.recs[(i*7919)%len(r.corpus.recs)].id
		t0 := time.Now()
		p, _, found, gerr := st.Get(id)
		getUs = append(getUs, usSince(t0))
		if gerr != nil || !found {
			return nil, nil, fmt.Errorf("segment get %s: found=%v err=%v", id, found, gerr)
		}
		payload = p
	}
	for round := 0; round < 3; round++ {
		entries := make([]segment.Entry, 200)
		for i := range entries {
			entries[i] = segment.Entry{ID: fmt.Sprintf("probe-%d-%04d", round, i), Payload: payload}
		}
		t0 := time.Now()
		if err := st.Flush(entries, st.LSN(), st.Meta()); err != nil {
			return nil, nil, err
		}
		flushMs = append(flushMs, msSince(t0))
	}
	return getUs, flushMs, nil
}

// countingWriter counts the bytes checkpoints write to the segment tier.
type countingWriter struct {
	w io.Writer
	n *int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	*c.n += int64(n)
	return n, err
}

// replayed is what replayWrites measured.
type replayed struct {
	ingestUs        []float64 // IngestRecord on the durable twin, one client
	checkpointMs    []float64
	checkpointBytes []float64 // segment bytes each checkpoint wrote
	writeAmp        float64   // checkpoint bytes written ÷ user bytes ingested
	segments        segment.Stats
}

// replayWrites applies the writes of the run's fixed-count phases (and of
// its warm-up, whose sequences the deletes consume), in order, to the
// in-process copy with one client, checkpointing where the run did and
// once at the end. With one client the counts repeat exactly per seed.
func (r *run) replayWrites(lc *layerCopy) (*replayed, error) {
	var written int64
	lc.db.WrapCheckpointWriter(func(w io.Writer) io.Writer { return countingWriter{w, &written} })
	defer lc.db.WrapCheckpointWriter(nil)
	rp := &replayed{}
	checkpoint := func() error {
		before := written
		t0 := time.Now()
		if err := lc.db.Checkpoint(); err != nil {
			return err
		}
		rp.checkpointMs = append(rp.checkpointMs, msSince(t0))
		rp.checkpointBytes = append(rp.checkpointBytes, float64(written-before))
		return nil
	}
	userBytes := 0
	for _, o := range r.replay {
		switch o.class {
		case clsCheckpoint:
			if err := checkpoint(); err != nil {
				return nil, err
			}
		case clsDelete:
			if err := lc.db.Remove(o.delID); err != nil {
				return nil, err
			}
		default:
			for _, ns := range o.wrote {
				if _, ok := lc.db.Record(ns.id); ok {
					continue // the traced pass already put it there
				}
				t0 := time.Now()
				if _, err := lc.db.IngestRecord(ns.id, seqrep.NewSequence(ns.vals)); err != nil {
					return nil, err
				}
				rp.ingestUs = append(rp.ingestUs, usSince(t0))
				userBytes += 8 * len(ns.vals)
			}
		}
	}
	if err := checkpoint(); err != nil {
		return nil, err
	}
	rp.segments, _ = lc.db.SegmentStats()
	rp.writeAmp = float64(written) / math.Max(float64(userBytes), 1)
	return rp, nil
}

type spanKey struct{ typ, name string }

// selfUs returns, per operation type and span name, each span's own time
// in microseconds: its duration minus its children's, operation by
// operation, so that a type mixing cheap and dear statements compares
// each statement with its own re-executions.
func (t *tracer) selfUs() map[spanKey][]float64 {
	under := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		under[s.Parent] += s.End - s.Start
	}
	out := map[spanKey][]float64{}
	for _, s := range t.spans {
		k := spanKey{s.Type, s.Name}
		out[k] = append(out[k], float64(s.End-s.Start-under[s.ID])/1e3)
	}
	return out
}

// checkSelfTimes records each layer's median self time per operation
// type and flags the trace invalid when one is negative by more than a
// tenth of the layer's own median.
func (r *run) checkSelfTimes(tr *tracer, self map[spanKey][]float64) {
	report := map[string]float64{}
	valid := true
	for k, v := range self {
		m := median(v)
		report[k.typ+"/"+k.name] = m
		if m < -selfTolerance*median(tr.us(k.typ, k.name)) {
			valid = false
		}
	}
	r.res.Parts["trace_self_us"] = report
	r.res.Parts["trace_valid"] = valid
}
