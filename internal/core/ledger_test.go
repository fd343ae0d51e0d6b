package core

// The work ledger: the counters every query family reports, summed over
// a fixed grid of corpora, statements and deliveries, committed in
// testdata/work.golden. For a range query these counters are a pure
// function of corpus, configuration and statement, so they measure a
// change to a bound, a source or a tier without a clock: a change that
// moves a row says so in its description, and one that claims to move
// none shows the file untouched. Regenerate after an intended change
// with
//
//	go test -run TestWorkLedger ./internal/core/ -update

import (
	"bufio"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"seqrep/internal/seq"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/work.golden from this run")

const ledgerPath = "testdata/work.golden"

// ledgerCorpus is one database of the grid: its items, its
// configuration, and whether it also answers the feature families.
type ledgerCorpus struct {
	name     string
	cfg      Config
	items    []BatchItem
	features bool
}

// ledgerRow is one grid cell's summed work: the QueryStats counters over
// its statements, the payloads the paged database read (every
// verification is a cold hit under a 1-byte budget), and a hash of the
// answers. The hash takes each match's id and, where the engine computed
// it, its deviations' bits; a band-accepted match contributes its id
// only, because its deviation is a band edge, whose last bits are the
// rounding contract's business and not a decision.
type ledgerRow struct {
	key                                                                 string
	examined, pruned, sketched, candidates, bandAccepted, matches, cold int
	answers                                                             string
}

func (r ledgerRow) String() string {
	return fmt.Sprintf("%s %d %d %d %d %d %d %d %s", r.key, r.examined, r.pruned, r.sketched,
		r.candidates, r.bandAccepted, r.matches, r.cold, r.answers)
}

// ledgerRows runs the whole grid and returns one line per cell.
func ledgerRows(t *testing.T) []string {
	t.Helper()
	corpora := []ledgerCorpus{
		{name: "clustered-index", items: clusteredItems(6000, 128)},
		{name: "clustered-linear", cfg: Config{IndexCoeffs: -1}, items: clusteredItems(3000, 64)},
		{name: "feature", items: featureCorpus(t, rand.New(rand.NewSource(5)), 4000), features: true},
	}
	var rows []string
	for _, c := range corpora {
		db := pagedDB(t, c.cfg)
		if _, err := db.IngestBatch(c.items); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for _, r := range ledgerSimilarity(t, db, c.items) {
			rows = append(rows, c.name+" "+r.String())
		}
		if c.features {
			for _, r := range ledgerFeatures(t, db, c.items) {
				rows = append(rows, c.name+" "+r.String())
			}
		}
	}
	return rows
}

// ledgerDeliveries are the ways a similarity statement is delivered:
// exact, progressive at WITHIN ERROR 0, 0.1·ε and 1·ε, and capped at the
// band (APPROX candidate).
var ledgerDeliveries = []struct {
	name     string
	progress bool
	errShare float64
	maxTier  Tier
}{
	{name: "exact"},
	{name: "within-0", progress: true},
	{name: "within-0.1", progress: true, errShare: 0.1},
	{name: "within-1", progress: true, errShare: 1},
	{name: "approx", progress: true, maxTier: TierCandidate},
}

// ledgerExemplars picks the grid's 12 exemplars, spread over the corpus
// so that a mixed corpus contributes every length.
func ledgerExemplars(items []BatchItem) []seq.Sequence {
	out := make([]seq.Sequence, 12)
	for i := range out {
		out[i] = items[i*len(items)/len(out)+1].Seq
	}
	return out
}

// ledgerEps is an exemplar's 30th-nearest distance under the given
// kernel, among the corpus's raw items of its length: a tolerance that
// admits about 30 records, derived without the engine.
func ledgerEps(t *testing.T, items []BatchItem, ex seq.Sequence, d func(a, b []float64) (float64, error)) float64 {
	t.Helper()
	var ds []float64
	for _, it := range items {
		if len(it.Seq) != len(ex) {
			continue
		}
		v, err := d(ex.Values(), it.Seq.Values())
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, v)
	}
	slices.Sort(ds)
	return ds[min(29, len(ds)-1)]
}

// ledgerSimilarity runs every metric and the value band, at every
// delivery, over the 12 exemplars.
func ledgerSimilarity(t *testing.T, db *DB, items []BatchItem) []ledgerRow {
	t.Helper()
	var rows []ledgerRow
	for _, r := range progressiveRunners() {
		exemplars := ledgerExemplars(items)
		eps := make([]float64, len(exemplars))
		for i, ex := range exemplars {
			eps[i] = ledgerEps(t, items, ex, r.truth.Distance)
		}
		for _, dl := range ledgerDeliveries {
			row := ledgerRow{key: r.name + " " + dl.name}
			h := sha256.New()
			before := ledgerColdHits(db)
			for i, ex := range exemplars {
				spec := r.spec(ex, eps[i])
				var st QueryStats
				var err error
				if !dl.progress {
					var matches []Match
					matches, st, err = db.querySorted(context.Background(), spec, QueryOptions{})
					for _, m := range matches {
						hashMatch(h, m, true)
					}
				} else {
					var accepted []ProgressiveMatch
					opts := QueryOptions{MaxError: dl.errShare * eps[i], MaxTier: dl.maxTier}
					st, err = db.QueryProgressive(context.Background(), spec, opts, func(pm ProgressiveMatch) bool {
						if pm.Final && pm.Match != nil {
							accepted = append(accepted, pm)
						}
						return true
					})
					slices.SortFunc(accepted, func(a, b ProgressiveMatch) int { return strings.Compare(a.ID, b.ID) })
					for _, pm := range accepted {
						hashMatch(h, *pm.Match, pm.Tier == TierExact)
					}
				}
				if err != nil {
					t.Fatalf("%s %s: %v", r.name, dl.name, err)
				}
				h.Write([]byte{'|'})
				row.add(st)
			}
			row.cold = ledgerColdHits(db) - before
			row.answers = fmt.Sprintf("%x", h.Sum(nil))[:16]
			rows = append(rows, row)
		}
	}
	return rows
}

// ledgerFeatures runs the feature families: MATCH PATTERN, FIND with and
// without LIMIT, PEAKS, SHAPE around a fever, and INTERVAL.
func ledgerFeatures(t *testing.T, db *DB, items []BatchItem) []ledgerRow {
	t.Helper()
	fever := items[len(items)*60/100].Seq
	var rows []ledgerRow
	for _, f := range []struct {
		name string
		spec QuerySpec
		opts QueryOptions
	}{
		{"pattern", QuerySpec{Family: FamilyPattern, Pattern: "F*U+F*D+F*U+F*D+F*"}, QueryOptions{}},
		{"find", QuerySpec{Family: FamilyFind, Pattern: "U+F*D+U+"}, QueryOptions{}},
		{"find-limit", QuerySpec{Family: FamilyFind, Pattern: "U+F*D+U+"}, QueryOptions{Limit: 200}},
		{"peaks", QuerySpec{Family: FamilyPeaks, Peaks: 2, PeakTolerance: 1}, QueryOptions{}},
		{"shape", QuerySpec{Family: FamilyShape, Exemplar: fever, Shape: ShapeTolerance{Height: 0.25, Spacing: 0.3}}, QueryOptions{}},
		{"interval", QuerySpec{Family: FamilyInterval, Interval: 150, Eps: 2}, QueryOptions{}},
	} {
		before := ledgerColdHits(db)
		matches, st, err := db.querySorted(context.Background(), f.spec, f.opts)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		h := sha256.New()
		for _, m := range matches {
			hashMatch(h, m, true)
		}
		row := ledgerRow{key: f.name + " -", cold: ledgerColdHits(db) - before, answers: fmt.Sprintf("%x", h.Sum(nil))[:16]}
		row.add(st)
		rows = append(rows, row)
	}
	return rows
}

func (r *ledgerRow) add(st QueryStats) {
	r.examined += st.Examined
	r.pruned += st.Pruned
	r.sketched += st.Sketched
	r.candidates += st.Candidates
	r.bandAccepted += st.BandAccepted
	r.matches += st.Matches
}

// hashMatch writes one match to an answer hash: its id, exactness and
// pattern or interval hit, and, when computed is set, its deviations in
// key order.
func hashMatch(h interface{ Write([]byte) (int, error) }, m Match, computed bool) {
	fmt.Fprintf(h, "%s:%t", m.ID, m.Exact)
	if m.Hit != nil {
		fmt.Fprintf(h, ":%v", *m.Hit)
	}
	if m.Interval != nil {
		fmt.Fprintf(h, ":%v", *m.Interval)
	}
	if computed {
		devs := m.Deviations()
		for _, k := range slices.Sorted(maps.Keys(devs)) {
			fmt.Fprintf(h, ":%s=%x", k, math.Float64bits(devs[k]))
		}
	}
	fmt.Fprint(h, ";")
}

func ledgerColdHits(db *DB) int {
	rs, _ := db.ResidencyStats()
	return int(rs.ColdHits)
}

// TestWorkLedger compares the grid's rows with testdata/work.golden, or
// rewrites the file under -update. Each row reads: corpus, statement,
// delivery, then Examined, Pruned, Sketched, Candidates, BandAccepted,
// Matches and cold hits summed over the row's queries, and the answer
// hash.
func TestWorkLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the ledger's counters do not depend on the race detector, only its run time does")
	}
	rows := ledgerRows(t)
	if *updateLedger {
		body := "# corpus statement delivery examined pruned sketched candidates band_accepted matches cold answers\n" +
			strings.Join(rows, "\n") + "\n"
		if err := os.MkdirAll(filepath.Dir(ledgerPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(ledgerPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Errorf("%d rows, golden has %d", len(rows), len(want))
	}
	for i := range min(len(want), len(rows)) {
		if rows[i] != want[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i, rows[i], want[i])
		}
	}
}
