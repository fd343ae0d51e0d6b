package server

// Fuzz targets for the request bodies a client controls: /v1/ingest,
// /v1/ingest/batch and /v1/query, each served end to end through the
// server's handler over a fresh volatile database. The properties: no
// panic, no 5xx (a volatile database has no storage to fault, so a 5xx is
// the server's own failure), and every 2xx or 207 body decodes as the
// endpoint's response type.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"seqrep"
	"seqrep/api"
)

// wireSeries renders n samples of value v as a JSON array.
func wireSeries(n int, v float64) string {
	var b strings.Builder
	b.WriteByte('[')
	for i := range n {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, v+float64(i%7))
	}
	b.WriteByte(']')
	return b.String()
}

// wireBodySeeds are the seeds every wire target shares: empty and giant
// sequences, samples at and just past seqrep.MaxMagnitude, non-finite
// spellings, duplicate ids in one batch, and malformed JSON.
func wireBodySeeds() (ingest, batch []string) {
	past := math.Nextafter(seqrep.MaxMagnitude, math.Inf(1))
	ingest = []string{
		`{"id":"a","values":[1,2,3,2,1]}`,
		`{"id":"a","values":[]}`,
		`{"id":"","values":[1]}`,
		`{"id":"a","times":[0,1],"values":[1,2,3]}`,
		`{"id":"a","times":[1,0,2],"values":[1,2,3]}`,
		`{"id":"giant","values":` + wireSeries(20000, 3) + `}`,
		fmt.Sprintf(`{"id":"cap","values":[%g,%g,%g]}`, seqrep.MaxMagnitude, -seqrep.MaxMagnitude, 0.0),
		fmt.Sprintf(`{"id":"past","values":[1,%v,1]}`, past),
		`{"id":"big","values":[1e308,-1e308,1e308]}`,
		`{"id":"nan","values":["NaN"]}`,
		`{"id":"a","values":[1,2],"extra":1}`,
		`{"id":"a","values":[1,2]} trailing`,
		`[]`,
		``,
	}
	batch = []string{
		`{"items":[{"id":"a","values":[1,2,3]},{"id":"a","values":[4,5,6]}]}`,
		`{"items":[]}`,
		`{"items":[{"id":"x","values":[]},{"id":"y","values":[1,2]}]}`,
		`{"items":[{"id":"g","values":` + wireSeries(20000, -2) + `},{"id":"h","values":[1]}]}`,
		fmt.Sprintf(`{"items":[{"id":"c","values":[%g]},{"id":"p","values":[%v]}]}`, seqrep.MaxMagnitude, past),
		`{"items":[{"id":"a","values":[1,2,3]},{"id":"a","values":[1,2,3]},{"id":"b","values":[0]}]}`,
		`{"items":null}`,
		`{"items":[null]}`,
	}
	return ingest, batch
}

// wireServer returns a handler over a fresh volatile database holding two
// records the query seeds name, "walk" and "flat".
func wireServer(t *testing.T) http.Handler {
	db, err := seqrep.New(seqrep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	walk, flat := make([]float64, 64), make([]float64, 64)
	for i := range walk {
		walk[i] = float64(i%16) - 0.25*float64(i%5)
		flat[i] = 2
	}
	for id, vals := range map[string][]float64{"walk": walk, "flat": flat} {
		if err := db.Ingest(id, seqrep.NewSequence(vals)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(Config{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler()
}

// serveWire posts body to path and checks the wire properties, decoding a
// success body into a fresh value from newResp.
func serveWire(t *testing.T, h http.Handler, path string, body []byte, newResp func() any) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	code := rec.Code
	if code >= 500 {
		t.Fatalf("POST %s %q: status %d, body %s", path, body, code, rec.Body.Bytes())
	}
	if code/100 != 2 {
		return
	}
	resp := newResp()
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(resp); err != nil {
		t.Fatalf("POST %s %q: status %d body does not decode: %v", path, body, code, err)
	}
}

func FuzzIngestBody(f *testing.F) {
	ingest, _ := wireBodySeeds()
	for _, s := range ingest {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		serveWire(t, wireServer(t), "/v1/ingest", body, func() any { return new(api.IngestResponse) })
	})
}

func FuzzIngestBatchBody(f *testing.F) {
	_, batch := wireBodySeeds()
	for _, s := range batch {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		serveWire(t, wireServer(t), "/v1/ingest/batch", body, func() any { return new(api.BatchResponse) })
	})
}

func FuzzQueryBody(f *testing.F) {
	for _, q := range []string{
		`MATCH DISTANCE LIKE walk METRIC l2 EPS 3`,
		`EXPLAIN MATCH DISTANCE LIKE walk METRIC zl2 EPS 3 WITHIN ERROR 0.5`,
		`MATCH DISTANCE LIKE flat METRIC zl2 EPS 1`,
		`MATCH VALUE LIKE walk EPS 0.5 LIMIT 1`,
		`MATCH DISTANCE LIKE walk METRIC linf TOP 2 BY DISTANCE`,
		`MATCH DISTANCE LIKE walk METRIC l1 EPS 1e308 APPROX candidate`,
		`MATCH DISTANCE LIKE missing METRIC l2 EPS 1`,
		`MATCH SHAPE LIKE walk PEAKS 0 HEIGHT 0.25 SPACING 0.3`,
		`MATCH PATTERN "U+F*D+"`,
		`FIND PATTERN "U+D+"`,
		`MATCH PEAKS 2 TOLERANCE 1`,
		`MATCH INTERVAL 5 +- 2`,
		``,
	} {
		b, err := json.Marshal(api.QueryRequest{Query: q})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"query":1}`))
	f.Add([]byte(`{"query":"MATCH PEAKS 1","x":0}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		serveWire(t, wireServer(t), "/v1/query", body, func() any { return new(api.QueryResponse) })
	})
}
