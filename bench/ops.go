package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"

	"seqrep/api"
)

// class groups operations by the user-visible figure they feed.
type class string

const (
	clsQuery      class = "query"      // POST /v1/query, similarity statements
	clsStream     class = "stream"     // POST /v1/query/stream, progressive statements
	clsFeature    class = "feature"    // POST /v1/query, the paper's feature statements
	clsIngest     class = "ingest"     // POST /v1/ingest, one new sequence
	clsBatch      class = "batch"      // POST /v1/ingest/batch of batchSize
	clsDelete     class = "delete"     // DELETE /v1/records/{id}
	clsCheckpoint class = "checkpoint" // POST /v1/snapshot/save
	clsGet        class = "get"        // GET /v1/records/{id}, the durability drill's probe
)

const (
	batchSize = 32

	// Tolerances of the similarity statements. Cluster members lie within
	// about 3.2 (l2), 1.0 (zl2) and 0.8 (value band) of each other and
	// other clusters start beyond 20, 3.5 and 4, so an answer is one
	// cluster (tens of matches) and no record sits near a threshold.
	epsL2       = 5.0
	epsZL2      = 1.5
	epsValue    = 1.5
	withinError = 1.0
	topK        = 10
)

// statement is the oracle's description of one query.
type statement struct {
	family   string // l2, zl2, top, value, prog, peaks, interval, pattern, find, shape
	text     string
	exemplar *record
	eps      float64
	maxErr   float64
	k, tol   int
	n        float64
	pattern  string
	limit    int
}

// op is one request, generated from the seed before the phase that sends it.
type op struct {
	class  class
	method string
	path   string
	body   []byte
	want   int        // expected status
	stmt   *statement // query classes
	wrote  []*newSeq  // sequences this op ingests
	delID  string     // id this op deletes
	check  bool       // keep the response for the oracle
}

// newSeq is a sequence written during the run; the oracle derives its
// comparison form and profile with its own pipeline call only if asked.
type newSeq struct {
	id   string
	vals []float64
	rec  *record // lazily filled by oracle.resolve
}

// The statement pools of the feature class. The regexes are over the
// slope alphabet U/F/D.
var (
	matchPatterns = []string{
		"F*U+F*D+F*U+F*D+F*",    // exactly two clean peaks
		"[FD]*U[UF]*D[FD]*",     // one rise then one fall
		".*UDU.*",               // a sharp notch anywhere
		"F*(U+F*D+F*){3}",       // three peaks
		".*D{3,}.*",             // a long descent
		"[^D]*",                 // never descends
		"(F|U)*D(F|D)*U(F|U)*D", // fall, rise, fall
		".*FFFFF.*",             // a long plateau
	}
	findPatterns = []string{"U{2,}D{2,}", "DDD+", "UFD", "U+F*D+U+"}
)

// The mixes are dealt from fixed cycles, not drawn at random: statement
// families differ in cost by an order of magnitude, and a random draw
// would put a different number of the dear ones in every half-second
// window. The seed still picks every exemplar, number and sample. Each
// cycle holds the mix's shares: similarity 5 l2 / 2 zl2 / 2 top / 1
// value; feature 4 interval / 4 peaks / 6 pattern / 3 shape / 3 find;
// mixed 12 ingest / 1 batch / 1 delete / 6 feature. The numbers are the
// switch positions the generators below test.
var (
	similaritySlots = []int{0, 5, 7, 1, 9, 2, 6, 3, 8, 4}
	featureSlots    = []int{0, 8, 4, 14, 9, 17, 1, 10, 5, 15, 11, 18, 2, 12, 6, 16, 13, 19, 3, 7}
	mixedSlots      = []int{0, 14, 1, 2, 15, 3, 12, 4, 16, 5, 6, 17, 7, 13, 8, 18, 9, 10, 19, 11}
)

// opGen turns the seed into operations. One generator serves one run, so
// the same seed always yields the same requests in the same order.
type opGen struct {
	rng                        *rand.Rand
	c                          *corpus
	perm                       []int // exemplar draw order over (kind, walk) pairs, without replacement
	cursor                     int
	nextID                     int
	victims                    []string // acknowledged in warm-up, consumed by DELETE ops
	feverEx                    []*record
	hot                        []*op // the hot-repeat statement set, rank order
	zipf                       *rand.Zipf
	simSlot, featSlot, mixSlot int            // positions in the mix cycles
	checkNo                    map[string]int // per family, how many ops were marked for the oracle
	noMark                     bool           // warm-up lists keep no responses
}

// checkPerFamily is the fixed oracle sample: the first this-many
// statements of every family in a run keep their responses.
const checkPerFamily = 12

func newOpGen(seed int64, c *corpus) *opGen {
	g := &opGen{rng: rand.New(rand.NewSource(seed ^ 0x5eed0b5)), c: c, checkNo: map[string]int{}}
	g.perm = g.rng.Perm(len(c.walks))
	for _, r := range c.recs {
		if r.family == "fever" {
			g.feverEx = append(g.feverEx, r)
		}
	}
	return g
}

// mark keeps the response of the first checkPerFamily statements of each
// family for the oracle.
func (g *opGen) mark(o *op) {
	if !g.noMark && o.stmt != nil && g.checkNo[o.stmt.family] < checkPerFamily {
		g.checkNo[o.stmt.family]++
		o.check = true
	}
}

func queryOp(cls class, path string, st *statement) *op {
	body, _ := json.Marshal(api.QueryRequest{Query: st.text})
	return &op{class: cls, method: http.MethodPost, path: path, body: body, want: 200, stmt: st}
}

// nextExemplar draws a walk without replacement (cycling only after every
// walk has been used, by which time the 256-entry cache has long evicted it).
func (g *opGen) nextExemplar() *record {
	r := g.c.walks[g.perm[g.cursor%len(g.perm)]]
	g.cursor++
	return r
}

// similarity returns one uncached similarity statement in the
// 50/20/20/10 mix of l2 / zl2 / top-10 / value band.
func (g *opGen) similarity() *op {
	ex := g.nextExemplar()
	var st *statement
	g.simSlot++
	switch p := similaritySlots[g.simSlot%len(similaritySlots)]; {
	case p < 5:
		st = &statement{family: "l2", exemplar: ex, eps: epsL2,
			text: fmt.Sprintf("MATCH DISTANCE LIKE %s METRIC l2 EPS %g", ex.id, epsL2)}
	case p < 7:
		st = &statement{family: "zl2", exemplar: ex, eps: epsZL2,
			text: fmt.Sprintf("MATCH DISTANCE LIKE %s METRIC zl2 EPS %g", ex.id, epsZL2)}
	case p < 9:
		// The radius cap keeps the statement's cost near a range query's.
		// Without it a top-10 costs about 4 ms (25 range queries) with a
		// spread of 2-11 ms that depends on the seed's geometry, which
		// alone put a quarter of seed-to-seed spread into sat_rps; the
		// uncapped form stays visible as the layer metric core.topk_us.
		st = &statement{family: "top", exemplar: ex, eps: epsL2,
			text: fmt.Sprintf("MATCH DISTANCE LIKE %s METRIC l2 EPS %g TOP %d BY DISTANCE", ex.id, epsL2, topK)}
	default:
		st = &statement{family: "value", exemplar: ex, eps: epsValue,
			text: fmt.Sprintf("MATCH VALUE LIKE %s EPS %g", ex.id, epsValue)}
	}
	return queryOp(clsQuery, "/v1/query", st)
}

// exact is the plain ε-query half of paged-progressive.
func (g *opGen) exact() *op {
	ex := g.nextExemplar()
	return queryOp(clsQuery, "/v1/query", &statement{family: "l2", exemplar: ex, eps: epsL2,
		text: fmt.Sprintf("MATCH DISTANCE LIKE %s METRIC l2 EPS %g", ex.id, epsL2)})
}

// progressive is an error-bounded statement sent to the streaming endpoint.
func (g *opGen) progressive() *op {
	ex := g.nextExemplar()
	return queryOp(clsStream, "/v1/query/stream", &statement{family: "prog", exemplar: ex, eps: epsL2, maxErr: withinError,
		text: fmt.Sprintf("MATCH DISTANCE LIKE %s METRIC l2 EPS %g WITHIN ERROR %g", ex.id, epsL2, withinError)})
}

// feature returns one of the paper's own query class, mixed so that the
// median request is a pattern match: 20 % interval, 20 % peaks, 30 %
// pattern, 15 % shape, 15 % find.
func (g *opGen) feature() *op {
	var st *statement
	g.featSlot++
	switch p := featureSlots[g.featSlot%len(featureSlots)]; {
	case p < 4:
		n := float64(110 + g.rng.Intn(80))
		e := float64(1 + g.rng.Intn(2))
		st = &statement{family: "interval", n: n, eps: e, text: fmt.Sprintf("MATCH INTERVAL %g +- %g", n, e)}
	case p < 8:
		k, tol := 2+g.rng.Intn(4), g.rng.Intn(2)
		st = &statement{family: "peaks", k: k, tol: tol, limit: 100,
			text: fmt.Sprintf("MATCH PEAKS %d TOLERANCE %d LIMIT 100", k, tol)}
	case p < 14:
		pat := matchPatterns[g.featSlot/len(featureSlots)%len(matchPatterns)]
		st = &statement{family: "pattern", pattern: pat, text: fmt.Sprintf("MATCH PATTERN %q", pat)}
	case p < 17:
		ex := g.feverEx[g.rng.Intn(len(g.feverEx))]
		st = &statement{family: "shape", exemplar: ex, text: fmt.Sprintf("MATCH SHAPE LIKE %s HEIGHT 0.25 SPACING 0.3", ex.id)}
	default:
		pat := findPatterns[g.featSlot/len(featureSlots)%len(findPatterns)]
		st = &statement{family: "find", pattern: pat, limit: 200, text: fmt.Sprintf("FIND PATTERN %q LIMIT 200", pat)}
	}
	return queryOp(clsFeature, "/v1/query", st)
}

// featureLight is the side-phase feature probe: the three families the
// engine answers from resident profiles and indexes alone. SHAPE and FIND
// read every record's representation, which under a memory budget faults
// the whole corpus in and takes seconds; they stay in ingest-mixed's own
// mix, where the corpus is resident.
func (g *opGen) featureLight() *op {
	for {
		if o := g.feature(); o.stmt.family != "shape" && o.stmt.family != "find" {
			return o
		}
	}
}

func (g *opGen) newSeq() *newSeq {
	g.nextID++
	return &newSeq{id: fmt.Sprintf("new-%06d", g.nextID), vals: smoothWalk(g.rng, walkLen)}
}

func (g *opGen) ingest() *op {
	ns := g.newSeq()
	body, _ := json.Marshal(api.IngestRequest{ID: ns.id, Values: ns.vals})
	return &op{class: clsIngest, method: http.MethodPost, path: "/v1/ingest", body: body, want: 201, wrote: []*newSeq{ns}}
}

func (g *opGen) batch(n int) *op {
	req := api.BatchRequest{}
	o := &op{class: clsBatch, method: http.MethodPost, path: "/v1/ingest/batch", want: 200}
	for i := 0; i < n; i++ {
		ns := g.newSeq()
		req.Items = append(req.Items, api.IngestRequest{ID: ns.id, Values: ns.vals})
		o.wrote = append(o.wrote, ns)
	}
	o.body, _ = json.Marshal(req)
	return o
}

// delete consumes one victim; it falls back to an ingest when the pool is
// dry so that no generated operation can fail.
func (g *opGen) delete() *op {
	if len(g.victims) == 0 {
		return g.ingest()
	}
	id := g.victims[len(g.victims)-1]
	g.victims = g.victims[:len(g.victims)-1]
	return &op{class: clsDelete, method: http.MethodDelete, path: "/v1/records/" + id, want: 200, delID: id}
}

func checkpointOp() *op {
	return &op{class: clsCheckpoint, method: http.MethodPost, path: "/v1/snapshot/save", want: 200}
}

func getOp(id string, want int) *op {
	return &op{class: clsGet, method: http.MethodGet, path: "/v1/records/" + id, want: want}
}

// buildHotSet fixes the 64 statements of hot-repeat. The family at each
// popularity rank is the same for every seed (only exemplars and numbers
// vary), so the response size of the hottest ranks — which is what the
// median request costs — does not depend on the seed. Three ranks carry
// multi-thousand-id answers.
func (g *opGen) buildHotSet() {
	const n = 64
	for rank := 0; rank < n; rank++ {
		var o *op
		switch {
		case rank == 9 || rank == 21 || rank == 40:
			k := 2 + rank%2 // 3 peaks: about 1 700 ids, 120 KB; 2 peaks: 3 400 ids, 240 KB
			o = queryOp(clsQuery, "/v1/query", &statement{family: "peaks", k: k,
				text: fmt.Sprintf("MATCH PEAKS %d", k)})
		case rank%8 == 3:
			o = g.feature()
		case rank%8 == 6:
			pat := matchPatterns[(rank/8)%len(matchPatterns)]
			o = queryOp(clsQuery, "/v1/query", &statement{family: "pattern", pattern: pat, text: fmt.Sprintf("MATCH PATTERN %q", pat)})
		default:
			o = g.similarity()
		}
		o.class = clsQuery
		g.hot = append(g.hot, o)
	}
	g.zipf = rand.NewZipf(g.rng, 1.1, 1, n-1)
}

// hotRepeat draws one of the 64 statements Zipf(1.1) by rank.
func (g *opGen) hotRepeat() *op {
	base := g.hot[g.zipf.Uint64()]
	o := *base
	return &o
}

// mixed is the ingest-mixed request mix: 60 % single ingest, 5 % batch of
// 32, 5 % delete, 30 % feature queries.
func (g *opGen) mixed() *op {
	g.mixSlot++
	switch p := mixedSlots[g.mixSlot%len(mixedSlots)]; {
	case p < 12:
		return g.ingest()
	case p == 12:
		return g.batch(batchSize)
	case p == 13:
		return g.delete()
	default:
		return g.feature()
	}
}

// list draws n operations from next, inserting a checkpoint after every
// `every` write requests (never when every is 0). The schedule is by
// operation count, so the number of checkpoints in a phase of fixed length
// repeats.
func (g *opGen) list(n int, next func() *op, every int) []*op {
	ops := make([]*op, 0, n)
	writes := 0
	for len(ops) < n {
		o := next()
		g.mark(o)
		ops = append(ops, o)
		if o.class == clsIngest || o.class == clsBatch || o.class == clsDelete {
			writes++
			if every > 0 && writes%every == 0 {
				ops = append(ops, checkpointOp())
			}
		}
	}
	return ops
}
