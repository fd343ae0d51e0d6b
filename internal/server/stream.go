package server

import (
	"math"
	"net/http"
	"time"

	"seqrep"
	"seqrep/api"
)

// streamFlushInterval paces flushes while item frames are produced: a
// frame written this long after the last flush flushes the buffer, so
// long streams amortize the flush cost. The header, the first frame
// carrying an item (match, hit, interval or id) and the terminal frame
// (trailer or error) flush at once, so a client sees the first answer as
// soon as the engine has produced it, however short the stream.
const streamFlushInterval = 100 * time.Millisecond

// streamWriter serializes api.StreamFrame lines onto an NDJSON response.
// Frames may arrive from the engine's worker goroutines (serialized by
// the engine) and then from the handler goroutine — never concurrently.
// Each frame is encoded into a reused buffer before anything is written,
// so a frame JSON cannot represent is told apart from a dead connection:
// the stream then ends with an error frame naming the encoder's
// complaint. The first failure of either kind sticks: further frames
// report failure, which propagates as a false yield into the engine and
// cancels the query.
type streamWriter struct {
	w         http.ResponseWriter
	fl        http.Flusher
	enc       wireEncoder
	buf       []byte
	matched   bool // a frame carrying an item has been written
	lastFlush time.Time
	err       error
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	fl, _ := w.(http.Flusher)
	return &streamWriter{w: w, fl: fl}
}

// frame writes one NDJSON line and flushes it if it is the header, the
// first item, a terminal frame, or the flush interval has elapsed. It
// reports whether the stream is still writable.
func (sw *streamWriter) frame(f *api.StreamFrame) bool {
	if sw.err != nil {
		return false
	}
	var err error
	if sw.buf, err = sw.enc.frame(sw.buf[:0], f); err != nil {
		// An error frame is one string: it always encodes.
		sw.buf, _ = sw.enc.frame(sw.buf[:0], &api.StreamFrame{Error: err.Error()})
		sw.write()
		sw.flush()
		sw.err = err
		return false
	}
	if !sw.write() {
		return false
	}
	now := f.Canonical != "" || f.Done || f.Error != ""
	if item := f.Match != nil || f.Hit != nil || f.Interval != nil || f.ID != ""; item && !sw.matched {
		sw.matched, now = true, true
	}
	if now || time.Since(sw.lastFlush) >= streamFlushInterval {
		sw.flush()
	}
	return true
}

// write sends the encoded frame in buf, recording a failed write.
func (sw *streamWriter) write() bool {
	if _, err := sw.w.Write(sw.buf); err != nil {
		sw.err = err
		return false
	}
	return true
}

func (sw *streamWriter) flush() {
	if sw.fl != nil {
		sw.fl.Flush()
		sw.lastFlush = time.Now()
	}
}

// toRefineFrame converts one engine refinement frame to its wire form.
// An unbounded upper edge (+Inf before any sample- or feature-derived
// estimate exists) becomes a nil Hi — JSON has no infinity.
func toRefineFrame(pm seqrep.ProgressiveMatch) *api.RefineFrame {
	rf := &api.RefineFrame{
		ID:    pm.ID,
		Tier:  pm.Tier.String(),
		Lo:    pm.Band.Lo,
		Final: pm.Final,
	}
	if !math.IsInf(pm.Band.Hi, 1) {
		hi := pm.Band.Hi
		rf.Hi = &hi
	}
	return rf
}

// handleQueryStream is POST /v1/query/stream: the statement's answer as
// an NDJSON stream of api.StreamFrame lines — header (canonical form),
// items as the engine produces them, trailer (kind, stats, generation).
// Every statement streams incrementally, so a LIMIT/TOP-bounded or
// cancelled statement never materializes the full answer; a client that
// disconnects mid-stream cancels the query through the request context
// and the failed write, freeing the handler promptly. Streamed answers
// bypass the result cache in both directions: they are not served from
// it and not stored into it.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	q, err := seqrep.ParseQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	canonical := q.String()
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	db := s.DB()
	gen := db.Generation()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	sw := newStreamWriter(w)
	sw.frame(&api.StreamFrame{Canonical: canonical})

	var res *seqrep.QueryResult
	if seqrep.IsProgressiveQuery(q) {
		// Progressive statements stream every refinement frame, tagged
		// with its quality tier; final accepts carry the Match alongside
		// the verdict band in the same frame.
		res, err = seqrep.StreamQueryProgressive(ctx, db, seqrep.LimitQuery(q, s.queryLimit), func(pm seqrep.ProgressiveMatch) bool {
			f := &api.StreamFrame{Refine: toRefineFrame(pm)}
			if pm.Final && pm.Match != nil {
				f.Match = &api.Match{ID: pm.Match.ID, Exact: pm.Match.Exact, Deviations: pm.Match.Deviations()}
			}
			return sw.frame(f)
		})
	} else {
		res, err = seqrep.StreamQuery(ctx, db, seqrep.LimitQuery(q, s.queryLimit), func(m seqrep.Match) bool {
			return sw.frame(itemFrame(m))
		})
	}
	if err != nil {
		sw.frame(&api.StreamFrame{Error: err.Error()})
		return
	}
	trailer := &api.StreamFrame{Done: true, Kind: res.Kind, Generation: gen, Explain: res.Explain}
	if res.Stats != nil {
		trailer.Stats = toAPIStats(res.Stats)
	}
	sw.frame(trailer)
}

// itemFrame frames one engine match in its kind's item form: a FIND
// occurrence as a Hit, an interval match as an Interval, a pattern match
// (the id alone) as an ID, a ranked match as a Match.
func itemFrame(m seqrep.Match) *api.StreamFrame {
	switch {
	case m.Hit != nil:
		h := m.Hit
		return &api.StreamFrame{Hit: &api.PatternHit{ID: h.ID, SegLo: h.SegLo, SegHi: h.SegHi, TimeLo: h.TimeLo, TimeHi: h.TimeHi}}
	case m.Interval != nil:
		return &api.StreamFrame{Interval: &api.IntervalMatch{ID: m.ID, Positions: m.Interval.Positions, Intervals: m.Interval.Intervals}}
	case m.Key == "":
		return &api.StreamFrame{ID: m.ID}
	}
	return &api.StreamFrame{Match: &api.Match{ID: m.ID, Exact: m.Exact, Deviations: m.Deviations()}}
}
