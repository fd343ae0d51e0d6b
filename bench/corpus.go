package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"seqrep"
	"seqrep/internal/feature"
	"seqrep/internal/synth"
)

// Corpus shape. Every workload starts from the same corpus build per seed;
// the counts are fixed so that per-seed variation is only in the samples,
// not in how much work a run does.
const (
	corpusN      = 10000
	walkShare    = 0.60 // 128-sample smoothed random walks in noisy clusters
	feverShare   = 0.25 // 97-sample two- and three-peak fevers
	walkLen      = 128
	feverLen     = 97
	ecgLen       = 256
	walkClusters = 200
	walkNoise    = 0.08 // per-sample member noise, well inside the breaking tolerance
	buildSlices  = 5    // equal ingest slices timed separately (setup_s uses their median)
)

// record is one generated sequence with everything the oracle needs: the
// samples as generated and, once built, the comparison form the engine
// answers distance queries over (the reconstruction of the stored
// representation — the servers run without an archive) and the feature
// profile.
type record struct {
	id      string
	family  string // walk, fever, ecg
	seq     seqrep.Sequence
	recon   []float64
	profile *feature.Profile
}

// corpus is the seeded data set plus the facts measured while building it.
type corpus struct {
	recs  []*record
	byID  map[string]*record
	walks []*record // exemplar pool of the similarity workloads
	dir   string    // checkpointed data directory, copied per server boot

	sliceSeconds      []float64 // one per ingest slice, scaled by the machine's slowness around it
	sliceRaw          []float64 // the same as timed
	checkpointSeconds float64   // scaled likewise
	checkpointRaw     float64
	samples           int
	segments          int
	storedFloats      int
	payloadBytes      int64 // fully-resident payload bytes by the residency tier's own accounting
	cfg               seqrep.Config
}

// buildSeconds is the corpus build's contribution to setup_s: the median
// slice scaled to the whole corpus, plus the one checkpoint. The median
// keeps one stalled slice from moving the figure.
func (c *corpus) buildSeconds() float64 {
	return median(c.sliceSeconds)*float64(len(c.sliceSeconds)) + c.checkpointSeconds
}

// smoothWalk returns an n-sample random walk passed through a moving
// average, so the breaker finds a handful of segments in it rather than
// one per sample.
func smoothWalk(rng *rand.Rand, n int) []float64 {
	const win = 9
	raw := make([]float64, n+win)
	v := 0.0
	for i := range raw {
		v += rng.NormFloat64() * 0.9
		raw[i] = v
	}
	out := make([]float64, n)
	for i := range out {
		s := 0.0
		for j := 0; j < win; j++ {
			s += raw[i+j]
		}
		out[i] = s / win
	}
	return out
}

// generateRecords makes n records from the seed. Family sizes and cluster
// sizes are fixed; only the sample values depend on the seed.
func generateRecords(seed int64, n int) ([]*record, error) {
	rng := rand.New(rand.NewSource(seed))
	nWalk := int(float64(n) * walkShare)
	nFever := int(float64(n) * feverShare)
	nECG := n - nWalk - nFever
	clusters := walkClusters
	if nWalk < clusters*4 {
		clusters = max(1, nWalk/4)
	}
	recs := make([]*record, 0, n)

	centres := make([][]float64, clusters)
	for i := range centres {
		centres[i] = smoothWalk(rng, walkLen)
	}
	for i := 0; i < nWalk; i++ {
		centre := centres[i%clusters]
		vals := make([]float64, walkLen)
		shift := rng.NormFloat64() * 0.05
		for j := range vals {
			vals[j] = centre[j] + shift + rng.NormFloat64()*walkNoise
		}
		recs = append(recs, &record{id: fmt.Sprintf("walk-%05d", i), family: "walk", seq: seqrep.NewSequence(vals)})
	}
	for i := 0; i < nFever; i++ {
		var peaks []synth.Peak
		first := 5 + rng.Float64()*4
		if i%5 < 3 { // 60 % two-peak, 40 % three-peak
			peaks = []synth.Peak{
				{Center: first, Height: 6 + rng.Float64()*3, Width: 1.5 + rng.Float64()*0.5},
				{Center: first + 7 + rng.Float64()*3, Height: 6 + rng.Float64()*3, Width: 1.5 + rng.Float64()*0.5},
			}
		} else {
			peaks = []synth.Peak{
				{Center: first - 1, Height: 6 + rng.Float64()*3, Width: 1.2 + rng.Float64()*0.3},
				{Center: first + 5.5 + rng.Float64(), Height: 5 + rng.Float64()*3, Width: 1.2 + rng.Float64()*0.3},
				{Center: first + 12 + rng.Float64(), Height: 6 + rng.Float64()*3, Width: 1.2 + rng.Float64()*0.3},
			}
		}
		s, err := synth.Bumps(0, 24, feverLen, 97, peaks)
		if err != nil {
			return nil, err
		}
		recs = append(recs, &record{id: fmt.Sprintf("fever-%05d", i), family: "fever", seq: s})
	}
	for i := 0; i < nECG; i++ {
		rr := 110 + rng.Float64()*80
		s, _, err := synth.ECG(rng, synth.ECGOpts{Samples: ecgLen, RRInterval: rr, RRJitter: 1.5, FirstR: 30 + rng.Float64()*20})
		if err != nil {
			return nil, err
		}
		recs = append(recs, &record{id: fmt.Sprintf("ecg-%05d", i), family: "ecg", seq: s})
	}
	// Ingest order is a seeded shuffle so every build slice holds the same
	// family mix and costs the same.
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs, nil
}

// engineConfig is the engine configuration of the in-process copies; it
// mirrors what seqserved derives from the workload's flags.
func engineConfig(w *workload, payloadBytes int64) seqrep.Config {
	cfg := seqrep.Config{}
	if w.memoryBudgetShare > 0 {
		cfg.MemoryBudget = int64(float64(payloadBytes) * w.memoryBudgetShare)
		cfg.SegmentCacheBytes = int64(float64(payloadBytes) * w.segmentCacheShare)
	}
	return cfg
}

// buildCorpus generates n records from seed and ingests them into a fresh
// durable directory with the code under test, through the same calls a
// library user would make: OpenDir, IngestBatch, Checkpoint, Close.
func buildCorpus(seed int64, n int, dir string) (*corpus, error) {
	recs, err := generateRecords(seed, n)
	if err != nil {
		return nil, err
	}
	c := &corpus{recs: recs, byID: make(map[string]*record, len(recs)), dir: dir}
	for _, r := range recs {
		c.byID[r.id] = r
		c.samples += len(r.seq)
		if r.family == "walk" {
			c.walks = append(c.walks, r)
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	db, err := seqrep.OpenDir(dir, seqrep.Config{})
	if err != nil {
		return nil, fmt.Errorf("opening corpus dir: %w", err)
	}
	c.cfg = db.Config()
	per := (len(recs) + buildSlices - 1) / buildSlices
	calBefore := calibrate(true)
	for lo := 0; lo < len(recs); lo += per {
		hi := min(lo+per, len(recs))
		items := make([]seqrep.BatchItem, 0, hi-lo)
		for _, r := range recs[lo:hi] {
			items = append(items, seqrep.BatchItem{ID: r.id, Seq: r.seq})
		}
		t0 := time.Now()
		if _, err := db.IngestBatch(items); err != nil {
			db.Close()
			return nil, fmt.Errorf("corpus ingest: %w", err)
		}
		// Scale a short last slice to the full slice size.
		raw := time.Since(t0).Seconds() * float64(per) / float64(hi-lo)
		calAfter := calibrate(true)
		c.sliceRaw = append(c.sliceRaw, raw)
		c.sliceSeconds = append(c.sliceSeconds, raw/mean([]float64{calBefore, calAfter}))
		calBefore = calAfter
	}
	t0 := time.Now()
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, fmt.Errorf("corpus checkpoint: %w", err)
	}
	c.checkpointRaw = time.Since(t0).Seconds()
	c.checkpointSeconds = c.checkpointRaw / mean([]float64{calBefore, calibrate(true)})

	// Oracle material, read back from the engine once: what it stored is
	// what it answers from.
	for _, r := range recs {
		s, err := db.Reconstruct(r.id)
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("reconstructing %s: %w", r.id, err)
		}
		r.recon = s.Values()
		rec, _ := db.Record(r.id)
		r.profile = rec.Profile
		c.segments += rec.NumSegments()
		c.storedFloats += rec.StoredFloats()
		// The residency tier's cost model (core.Record.setRep).
		c.payloadBytes += int64(rec.StoredFloats())*8 + int64(rec.NumSegments())*48 + 64
	}
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("closing corpus: %w", err)
	}
	return c, nil
}

// copyDir copies a data directory (two levels: segments/ and wal/).
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
