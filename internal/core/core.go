// Package core assembles the substrates into the paper's system: a
// sequence database that stores compact function representations instead
// of raw samples and answers generalized approximate queries from those
// representations.
//
// The ingestion pipeline follows §4-§5: optional preprocessing (filtering,
// normalization), breaking into meaningful subsequences, fitting a
// representing function per subsequence, slope-sign symbolization, peak
// extraction, and inverted-file indexing of peak-to-peak intervals. Raw
// sequences are not kept: every query reads the stored representation,
// and the originals are the caller's to archive (§2.3).
//
// Concurrency design (see docs/ARCHITECTURE.md): records live in
// lock-striped shards keyed by sequence id, so ingests of different
// sequences contend only on their shard; the pipeline itself (breaking,
// fitting, feature extraction) runs outside every lock. The global query
// indexes (sorted id list, interval inverted file, symbol groups) sit
// behind one separate RWMutex; a record is committed to its shard and
// linked into them under one hold of it. IngestBatch builds its items
// across a worker pool and logs and links them as one batch, and the
// linear query scans (ValueQuery, ShapeQuery, DistanceQuery) partition
// the shards across the same number of workers.
package core

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seqrep/internal/breaking"
	"seqrep/internal/dist"
	"seqrep/internal/feature"
	"seqrep/internal/filter"
	"seqrep/internal/fit"
	"seqrep/internal/index/inverted"
	"seqrep/internal/multires"
	"seqrep/internal/rep"
	"seqrep/internal/seq"
)

// Config parameterizes a DB. The zero value is usable: it yields the
// paper's defaults (interpolation breaking, byproduct representation,
// ε = 0.5, δ = 0.25, unit interval buckets, no preprocessing, 16 record
// shards, GOMAXPROCS workers).
type Config struct {
	// Epsilon is the breaking tolerance ε (default 0.5; the paper used
	// 0.5 for temperature curves and 10 for ECGs).
	Epsilon float64
	// Delta is the slope-sign threshold δ of §4.4 (default 0.25, the
	// paper's choice).
	Delta float64
	// BucketWidth is the inverted-index bucket width for peak-interval
	// values (default 1, integer buckets as in Figure 10).
	BucketWidth float64
	// Breaker overrides the breaking algorithm (default: the Figure 8
	// template over interpolation lines with tolerance Epsilon).
	Breaker breaking.Breaker
	// Representer refits each segment for representation; nil keeps the
	// breaker's byproduct functions. The paper represents with regression
	// lines in its goal-post example (§4.4).
	Representer fit.Fitter
	// Preprocess is an optional pipeline applied before breaking (§7).
	Preprocess *filter.Chain
	// Shards is the number of lock-striped record shards (default 16).
	// More shards reduce contention between concurrent ingests and
	// record lookups at a small fixed memory cost.
	Shards int
	// Workers bounds the concurrency of IngestBatch and of the parallel
	// query scans (default runtime.GOMAXPROCS(0)).
	Workers int
	// IndexCoeffs is the number of leading DFT coefficients kept per
	// sequence in the feature index that accelerates DistanceQuery (l2,
	// zl2 metrics) and ValueQuery through lower-bound candidate pruning
	// (default 8, i.e. 16-dimensional feature vectors; negative disables
	// the index and every query runs as a shard-parallel scan).
	IndexCoeffs int
	// IndexLeaf is the leaf size of the vantage-point trees the feature
	// index builds over each sequence-length group for sub-linear
	// candidate generation (default 16). Smaller leaves prune harder at
	// the cost of deeper trees; length groups below twice the leaf size
	// are scanned linearly. Negative disables the trees entirely, pinning
	// candidate generation to the linear columnar feature scan (the
	// pre-tree behaviour — useful as a benchmark baseline and as an
	// escape hatch).
	IndexLeaf int
	// SketchBlock is the block size of the per-record multiresolution
	// sketch behind progressive queries (default 16 samples per block;
	// negative disables sketches, leaving the band tier only the feature
	// bound's lower edge). Smaller blocks band tighter at the cost of
	// more stored means per record.
	SketchBlock int
	// CompactThreshold is the on-disk segment count at which a checkpoint
	// triggers a full-merge compaction of the segment tier (OpenDir
	// databases only; default segment.DefaultCompactThreshold, negative
	// disables compaction — segments then accumulate one per checkpoint).
	CompactThreshold int
	// SegmentCacheBytes is ignored: OpenDir attaches no payload cache to
	// the segment tier, whose cold reads go through MemoryBudget's
	// residency tracker and the OS page cache.
	//
	// Deprecated: set MemoryBudget instead. The field is kept only so
	// existing configurations still compile.
	SegmentCacheBytes int64
	// MemoryBudget bounds the bytes of record representations held
	// resident in RAM (OpenDir databases only; <= 0 keeps every
	// representation resident — the pre-residency behavior). Under a
	// budget, ids, feature vectors and sketches stay resident (candidate
	// generation and the band tier never touch disk) while
	// cold representation payloads are evicted and paged back in from
	// the segment tier on demand; dirty records (WAL-covered, not yet
	// checkpointed) are pinned resident until a checkpoint commits them.
	MemoryBudget int64
	// RecoveryProbeInterval is how often a degraded database (one whose
	// write-ahead log took an I/O fault, disabling writes — see
	// ErrDegraded) probes the disk for recovery and, on success, restores
	// write service (OpenDir databases only; default 2s, negative
	// disables the supervised probe — DB.Recover still works manually).
	RecoveryProbeInterval time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Epsilon == 0 {
		out.Epsilon = 0.5
	}
	if out.Delta == 0 {
		out.Delta = 0.25
	}
	if out.BucketWidth == 0 {
		out.BucketWidth = 1
	}
	if out.Breaker == nil {
		out.Breaker = breaking.Interpolation(out.Epsilon)
	}
	if out.Shards == 0 {
		out.Shards = 16
	}
	if out.Workers == 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.IndexCoeffs == 0 {
		out.IndexCoeffs = 8
	}
	if out.SketchBlock == 0 {
		out.SketchBlock = 16
	}
	return out
}

// MaxMagnitude caps |v| for every sample a write stores. Every distance
// kernel sums at most n squared differences, so it stays finite while
// 4n·v² ≤ MaxFloat64: up to |v| ≈ 1e150 at a million samples. The cap
// sits fifty orders of magnitude lower, which leaves a stored record's
// reconstruction room to overshoot its samples. A query exemplar may
// reach twice the cap, so any stored record's reconstruction serves as
// one.
const MaxMagnitude = 1e100

// checkMagnitude refuses a sequence holding a sample above limit in
// magnitude. NaN passes: seq.Validate names it.
func checkMagnitude(s seq.Sequence, limit float64) error {
	for i, p := range s {
		if math.Abs(p.V) > limit {
			return fmt.Errorf("%w: sample %d is %g, cap %g", ErrMagnitude, i, p.V, limit)
		}
	}
	return nil
}

// Sentinel errors callers (the serving layer, CLIs) branch on with
// errors.Is; the wrapping message carries the offending id.
var (
	// ErrDuplicateID reports an Ingest under an id that already names a
	// stored or in-flight sequence.
	ErrDuplicateID = errors.New("duplicate sequence id")
	// ErrUnknownID reports an operation on an id the database does not
	// hold.
	ErrUnknownID = errors.New("unknown sequence id")
	// ErrMagnitude reports a sample whose magnitude exceeds MaxMagnitude
	// in a write, or twice that in a query exemplar.
	ErrMagnitude = errors.New("sample magnitude above the cap")
	// ErrStorage reports a server-side storage fault met while answering
	// a query: the comparison form of a *stored* record could not be read
	// (a cold payload that fails to page in or decode). No write
	// produces it. The request was fine; the data layer was not.
	ErrStorage = errors.New("storage fault")
	// ErrDegraded reports a write rejected because the database is in
	// storage-fault read-only mode: its write-ahead log took an append or
	// fsync error, after which no write can be made durable (the on-disk
	// log tail — and, per fsyncgate, the page cache behind it — can no
	// longer be trusted). Reads keep serving; writes fail fast with this
	// error until the supervised recovery probe (or a manual DB.Recover)
	// restores the log. The serving layer maps it to HTTP 503.
	ErrDegraded = errors.New("database degraded: storage fault, writes disabled")
)

// Record is everything the database keeps for one ingested sequence: the
// compact representation and the features derived from it. Raw samples are
// not part of the record.
//
// Everything except the representation pointer is immutable after commit
// and always resident. The representation itself is held behind an atomic
// pointer so the residency subsystem can evict it (store nil) and page it
// back in from the segment tier without replacing the Record object —
// index postings, shard entries and in-flight scans all keep pointing at
// the same record across any number of evict/fault-in cycles.
type Record struct {
	ID      string
	N       int // original sample count
	Profile *feature.Profile

	// rep is the function-series representation; nil while evicted
	// (cold). Use DB.materialize to read it — never assume it is
	// resident. The series itself is immutable; only the pointer moves.
	rep atomic.Pointer[rep.FunctionSeries]
	// repSegments/repFloats cache the representation's dimensions at
	// build time so Stats and the residency accounting work while the
	// payload is cold. The payload's 32-bit length prefix bounds both, so
	// they share one word, which keeps the struct in the 128-byte size
	// class.
	repSegments int32
	repFloats   int32
	// repSpan and repBase are the representation's time span and
	// baseline (its lowest segment boundary value), cached likewise:
	// with the profile's peaks they are all a shape query reads.
	repSpan float64
	repBase float64
	// hot is the CLOCK reference bit shared with the residency tracker:
	// every materialize sets it, the eviction sweep clears it, and its
	// address doubles as the record's identity token in the tracker.
	hot atomic.Bool

	// feats and zfeats are the record's DFT feature vectors over its
	// comparison form and the z-normalized comparison form, computed once
	// at build time for the feature index (nil when the index is disabled
	// or the comparison form could not be read — such records are never
	// pruned). Immutable after commit, like everything else here.
	feats  []float64
	zfeats []float64

	// sketch is the record's block-mean multiresolution sketch over the
	// same comparison form, built at ingest for the progressive query
	// cascade (nil when sketches are disabled or the comparison form
	// could not be read — such records get an uninformative band and are
	// never dismissed early).
	sketch *multires.Sketch
}

// setRep installs the representation and caches its dimensions. Called
// once at build/adopt/decode time, before the record is published.
func (r *Record) setRep(fs *rep.FunctionSeries) {
	r.repSegments = int32(fs.NumSegments())
	r.repFloats = int32(fs.StoredFloats())
	r.repSpan, r.repBase = spanOf(fs), baselineOf(fs)
	r.rep.Store(fs)
}

// NumSegments reports how many function segments represent the sequence.
// It reads a build-time cache, so it works whether or not the
// representation is resident.
func (r *Record) NumSegments() int { return int(r.repSegments) }

// StoredFloats reports how many floats the representation stores,
// cached at build time like NumSegments.
func (r *Record) StoredFloats() int { return int(r.repFloats) }

// residentBytes is the residency tier's cost estimate for the payload:
// stored floats, per-segment struct overhead, and the record's own fixed
// overhead.
func (r *Record) residentBytes() int64 {
	return int64(r.repFloats)*8 + int64(r.repSegments)*48 + 64
}

// shard is one lock stripe of the record store. pending holds ids whose
// ingestion pipeline is in flight: the id is reserved (duplicate ingests
// fail fast) but no record is visible yet.
type shard struct {
	mu      sync.RWMutex
	records map[string]*Record
	pending map[string]struct{}
}

// reserve claims id for an in-flight ingest. It reports false when the id
// already names a stored or in-flight sequence.
func (sh *shard) reserve(id string) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.records[id]; dup {
		return false
	}
	if _, dup := sh.pending[id]; dup {
		return false
	}
	sh.pending[id] = struct{}{}
	return true
}

// commit publishes the record built for a reserved id.
func (sh *shard) commit(rec *Record) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.pending, rec.ID)
	sh.records[rec.ID] = rec
}

// abort releases a reservation whose pipeline failed.
func (sh *shard) abort(id string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.pending, id)
}

// drop removes a committed record (or does nothing if absent) and reports
// whether it was present.
func (sh *shard) drop(id string) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.records[id]
	delete(sh.records, id)
	return ok
}

// DB is the sequence database. It is safe for concurrent use: any number
// of ingests, removals and queries may run in parallel.
type DB struct {
	cfg    Config
	seed   maphash.Seed
	shards []*shard

	// imu guards the global query indexes: the sorted id list with each
	// id's symbol group, the peak-interval inverted file, and the symbol
	// catalogue (symbols.go). A sequence enters these indexes only after
	// its record is committed to its shard, so index readers never
	// observe a half-built record.
	// findex is the columnar, length-grouped DFT feature store behind
	// the query planner (nil when Config.IndexCoeffs < 0). Its group
	// locks are leaf locks: they may be taken while holding imu (link)
	// but never the other way around; queries take them alone.
	findex *featIndex

	// gen counts committed mutations (Ingest, Remove, boot adoption).
	// It only ever grows, so an observer holding a generation number can
	// tell whether the database has changed since — the invalidation
	// signal behind the serving layer's result cache.
	gen atomic.Uint64

	// storage is where records live beyond the catalogue: volatile for
	// New, the directory-backed dirStore for OpenDir (storage.go).
	storage storage

	imu     sync.RWMutex
	ids     []string // sorted
	idGroup []int32  // ids[i]'s symbol group, an ordinal into syms
	rrIndex *inverted.Index
	syms    symCatalogue
}

// New creates a volatile database from cfg (zero value = paper
// defaults): nothing reaches disk and every representation stays
// resident. OpenDir creates a durable one.
func New(cfg Config) (*DB, error) { return newDB(cfg, volatile{}) }

// newDB validates cfg and builds an empty catalogue over st.
func newDB(cfg Config, st storage) (*DB, error) {
	c := cfg.withDefaults()
	// A non-finite scalar would pass every build and then fail every
	// checkpoint (the manifest cannot encode it), so refuse it here.
	if c.Epsilon < 0 || math.IsNaN(c.Epsilon) || math.IsInf(c.Epsilon, 0) {
		return nil, fmt.Errorf("core: epsilon %g is not a finite non-negative number", c.Epsilon)
	}
	if c.Delta < 0 || math.IsNaN(c.Delta) || math.IsInf(c.Delta, 0) {
		return nil, fmt.Errorf("core: delta %g is not a finite non-negative number", c.Delta)
	}
	if c.Shards < 0 {
		return nil, fmt.Errorf("core: negative shard count %d", c.Shards)
	}
	if c.Workers < 0 {
		return nil, fmt.Errorf("core: negative worker count %d", c.Workers)
	}
	ix, err := inverted.New(c.BucketWidth)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	shards := make([]*shard, c.Shards)
	for i := range shards {
		shards[i] = &shard{
			records: make(map[string]*Record),
			pending: make(map[string]struct{}),
		}
	}
	db := &DB{
		cfg:     c,
		seed:    maphash.MakeSeed(),
		shards:  shards,
		storage: st,
		rrIndex: ix,
		syms:    newSymCatalogue(),
	}
	if c.IndexCoeffs > 0 {
		db.findex = newFeatIndex(c.IndexCoeffs, c.IndexLeaf)
	}
	return db, nil
}

// shardOf maps a sequence id onto its lock stripe.
func (db *DB) shardOf(id string) *shard {
	return db.shards[maphash.String(db.seed, id)%uint64(len(db.shards))]
}

// Config returns the database's effective configuration.
func (db *DB) Config() Config { return db.cfg }

// Generation returns the database's mutation generation: a counter bumped
// by every committed Ingest, Remove and boot adoption. Two equal
// generations bracket a span in which no write was committed, so any
// derived result (e.g. a cached query answer) computed at that generation
// is still valid; a change invalidates it.
func (db *DB) Generation() uint64 { return db.gen.Load() }

// Len returns the number of ingested sequences.
func (db *DB) Len() int {
	n := 0
	for _, sh := range db.shards {
		sh.mu.RLock()
		n += len(sh.records)
		sh.mu.RUnlock()
	}
	return n
}

// IDs returns all fully indexed sequence ids in sorted order.
func (db *DB) IDs() []string {
	db.imu.RLock()
	defer db.imu.RUnlock()
	return append([]string(nil), db.ids...)
}

// Record returns the stored record for id.
func (db *DB) Record(id string) (*Record, bool) {
	sh := db.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ok := sh.records[id]
	return r, ok
}

// build runs the ingestion pipeline (preprocess, break, represent,
// extract) without touching any lock. capped refuses a preprocessed
// sample above MaxMagnitude, as admit refuses a raw one: a live write
// stores neither, and replay, which passes false, stores what the log
// acknowledged.
func (db *DB) build(id string, s seq.Sequence, capped bool) (*Record, error) {
	work := s
	if db.cfg.Preprocess != nil {
		pre, err := db.cfg.Preprocess.Run(s)
		if err != nil {
			return nil, fmt.Errorf("core: preprocessing %q: %w", id, err)
		}
		if err := pre.Validate(); err != nil {
			return nil, fmt.Errorf("core: preprocessing %q produced invalid sequence: %w", id, err)
		}
		if capped {
			if err := checkMagnitude(pre, MaxMagnitude); err != nil {
				return nil, fmt.Errorf("core: preprocessing %q: %w", id, err)
			}
		}
		work = pre
	}

	segs, err := db.cfg.Breaker.Break(work)
	if err != nil {
		return nil, fmt.Errorf("core: breaking %q: %w", id, err)
	}
	fs, err := rep.Build(work, segs, db.cfg.Representer)
	if err != nil {
		return nil, fmt.Errorf("core: representing %q: %w", id, err)
	}
	// The one validation of a series this database creates: every later
	// reader (derive, query verification, a fault-in's decode) trusts it.
	if err := fs.Validate(); err != nil {
		return nil, fmt.Errorf("core: representing %q: %w", id, err)
	}
	profile, err := feature.Extract(fs, db.cfg.Delta)
	if err != nil {
		return nil, fmt.Errorf("core: extracting features of %q: %w", id, err)
	}
	rec := &Record{ID: id, N: len(s), Profile: profile}
	rec.setRep(fs)
	// The DFT feature vectors and the progressive sketch are part of the
	// build so they, too, run outside every lock.
	db.derive(rec, fs)
	return rec, nil
}

// lacks reports whether rec lacks the feature vectors and the sketch the
// database keeps: both on a build, neither on a boot that restores them,
// both on a boot of a legacy raw-derived directory.
func (db *DB) lacks(rec *Record) (feats, sketch bool) {
	return db.findex != nil && rec.feats == nil, db.cfg.SketchBlock > 0 && rec.sketch == nil
}

// derive computes the feature vectors and the sketch the database keeps
// and rec lacks from the values of fs, rec's valid representation: its
// comparison form. The values are reconstructed and z-normalized once,
// into pooled scratch every derivation reads, and every derived float
// lands in one block the record keeps: its feature vectors and sketch
// means are windows of it.
func (db *DB) derive(rec *Record, fs *rep.FunctionSeries) {
	feats, sketch := db.lacks(rec)
	if !feats && !sketch {
		return
	}
	sc := derivePool.Get().(*deriveScratch)
	defer derivePool.Put(sc)
	sc.vals = fs.AppendValuesUnchecked(sc.vals[:0])
	sc.zvals = dist.ZNormalizeInto(sc.zvals, sc.vals)
	block := make([]float64, 0, db.derivedFloats(len(sc.vals), feats, sketch))
	if feats {
		block = db.findex.computeFeatures(rec, block, sc.vals, sc.zvals)
	}
	if sketch {
		rec.sketch = multires.BuildSketchZ(block, sc.vals, sc.zvals, db.cfg.SketchBlock)
	}
}

// derivedFloats counts the floats of a length-n record's feature vectors and sketch.
func (db *DB) derivedFloats(n int, feats, sketch bool) (size int) {
	if feats {
		size += 4 * db.findex.k
	}
	if sketch {
		size += 2 * multires.NumBlocks(n, db.cfg.SketchBlock)
	}
	return size
}

// deriveScratch is the working set of derive and of a query's
// prefilters: a sequence's values and their z-normalization.
type deriveScratch struct {
	vals, zvals []float64
}

var derivePool = sync.Pool{New: func() any { return new(deriveScratch) }}

// pending is one batch item on its way through ingest: its built record
// and log payload, or the error that stopped it.
type pending struct {
	rec     *Record
	payload []byte
	err     error
}

// link commits a logged batch to its shards and publishes it to the
// global query indexes, all under one imu hold, so neither a query nor a
// concurrent Remove ever sees one of its records committed but unlinked.
// It takes every item without an error, in batch order; each is counted
// into the generation and reported to the storage as it goes, and the
// batch's ids then merge into the sorted id column in one pass. An item
// whose postings fail is left out (its partial postings removed, its
// reservation released) with the error in its slot.
func (db *DB) link(batch []pending) {
	type entry struct {
		id    string
		group int32
	}
	add := make([]entry, 0, len(batch))
	db.imu.Lock()
	defer db.imu.Unlock()
	for i := range batch {
		p := &batch[i]
		if p.err != nil {
			continue
		}
		rec := p.rec
		if p.err = db.indexIntervals(rec); p.err != nil {
			p.rec = nil
			db.shardOf(rec.ID).abort(rec.ID)
			continue
		}
		db.shardOf(rec.ID).commit(rec)
		add = append(add, entry{rec.ID, db.syms.add(rec.Profile.Symbols, len(rec.Profile.Peaks))})
		if db.findex != nil {
			db.findex.add(rec)
		}
		db.gen.Add(1)
		db.storage.linked(rec)
	}
	// Merge from the back: each batch id, largest first, finds its place
	// among the ids not yet moved, and the run after that place shifts
	// right by one slot per batch id still to place, in one copy. The
	// batch's ids are new (each was reserved), so no two compare equal.
	slices.SortFunc(add, func(a, b entry) int { return strings.Compare(a.id, b.id) })
	n := len(db.ids)
	db.ids = slices.Grow(db.ids, len(add))[:n+len(add)]
	db.idGroup = slices.Grow(db.idGroup, len(add))[:n+len(add)]
	for j := len(add) - 1; j >= 0; j-- {
		pos, _ := slices.BinarySearch(db.ids[:n], add[j].id)
		copy(db.ids[pos+j+1:], db.ids[pos:n])
		copy(db.idGroup[pos+j+1:], db.idGroup[pos:n])
		db.ids[pos+j], db.idGroup[pos+j] = add[j].id, add[j].group
		n = pos
	}
}

// indexIntervals posts rec's peak-to-peak intervals to the inverted
// file, removing the partial postings again on an error. Caller holds
// imu.
func (db *DB) indexIntervals(rec *Record) error {
	for pos, interval := range rec.Profile.Intervals {
		if err := db.rrIndex.Add(interval, inverted.Ref{ID: rec.ID, Pos: int32(pos)}); err != nil {
			db.rrIndex.RemoveID(rec.ID, rec.Profile.Intervals[:pos])
			return fmt.Errorf("core: indexing %q: %w", rec.ID, err)
		}
	}
	return nil
}

// Ingest runs the full pipeline on s and stores the result under id. The
// raw sequence itself is not kept: callers that need full resolution
// archive it themselves. Duplicate ids are rejected; Remove first to
// replace. An error means nothing was committed.
//
// The pipeline runs outside every lock: concurrent ingests of different
// sequences proceed in parallel, serializing only on the brief shard and
// index updates at the end.
func (db *DB) Ingest(id string, s seq.Sequence) error {
	_, err := db.IngestRecord(id, s)
	return err
}

// IngestRecord is Ingest returning the committed record, for callers
// that report on what was stored (the serving layer) without re-reading
// shared state — a lookup by id after Ingest returns can already observe
// a concurrent removal or replacement. It is a batch of one.
func (db *DB) IngestRecord(id string, s seq.Sequence) (*Record, error) {
	p := db.ingest([]BatchItem{{ID: id, Seq: s}}, true)[0]
	return p.rec, p.err
}

// ingest is the one write path behind Ingest, IngestBatch and boot
// replay. It returns, per item, the committed record or the error:
//
//  1. validate and reserve every item in batch order, so that of two
//     items under one id the first wins;
//  2. build the reserved items in parallel, outside every lock, encoding
//     each one's log payload in the same step;
//  3. log the built items behind one fsync;
//  4. commit and link them under one imu hold (link).
//
// An item that fails steps 1 or 2 drops out without stopping the
// others. A log failure fails every surviving item and releases its
// reservation: nothing is published before it is durable. capped
// refuses samples above MaxMagnitude, raw in step 1 and preprocessed in
// step 2; replay passes false, so that a log an older binary
// acknowledged still replays.
func (db *DB) ingest(items []BatchItem, capped bool) []pending {
	out := make([]pending, len(items))
	// A degraded database cannot make the batch durable: fail it before
	// the pipeline runs, since spending CPU on it only deepens the
	// overload that usually accompanies a storage fault.
	werr := db.storage.writable()
	for i, it := range items {
		out[i].err = db.admit(it, werr, capped)
	}
	db.forEachClaimed(len(items), func(i int) {
		p := &out[i]
		if p.err != nil {
			return
		}
		id, s := items[i].ID, items[i].Seq
		if p.rec, p.err = db.build(id, s, capped); p.err == nil {
			p.payload, p.err = db.storage.ingestPayload(id, s)
		}
		if p.err != nil {
			p.rec = nil
			db.shardOf(id).abort(id)
		}
	})
	logged := make([][]byte, 0, len(items))
	for _, p := range out {
		if p.err == nil {
			logged = append(logged, p.payload)
		}
	}
	if len(logged) == 0 {
		return out
	}
	if err := db.storage.logIngest(logged); err != nil {
		for i, it := range items {
			if out[i].err == nil {
				db.shardOf(it.ID).abort(it.ID)
				out[i] = pending{err: err}
			}
		}
		return out
	}
	defer db.storage.endWrite()
	db.link(out)
	return out
}

// admit validates one batch item and reserves its id; werr is the
// storage's writable verdict for the whole batch.
func (db *DB) admit(it BatchItem, werr error, capped bool) error {
	switch {
	case it.ID == "":
		return fmt.Errorf("core: empty sequence id")
	case len(it.Seq) == 0:
		return fmt.Errorf("core: ingesting empty sequence %q", it.ID)
	}
	if err := it.Seq.Validate(); err != nil {
		return fmt.Errorf("core: ingesting %q: %w", it.ID, err)
	}
	if capped {
		if err := checkMagnitude(it.Seq, MaxMagnitude); err != nil {
			return fmt.Errorf("core: ingesting %q: %w", it.ID, err)
		}
	}
	if werr != nil {
		return werr
	}
	if !db.shardOf(it.ID).reserve(it.ID) {
		return fmt.Errorf("core: %w %q", ErrDuplicateID, it.ID)
	}
	return nil
}

// BatchItem names one sequence of a batch ingest.
type BatchItem struct {
	ID  string
	Seq seq.Sequence
}

// ItemError ties one failed batch item to its position and id, so batch
// callers (the serving layer, CLI reporting) can surface structured
// per-item failures instead of one flattened string.
type ItemError struct {
	// Index is the item's position in the submitted batch.
	Index int
	// ID is the sequence id the item carried.
	ID string
	// Err is the underlying ingestion error.
	Err error
}

// Error implements error.
func (e *ItemError) Error() string {
	return fmt.Sprintf("item %d (%q): %v", e.Index, e.ID, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ItemError) Unwrap() error { return e.Err }

// IngestBatch ingests many sequences as one write: every item is built
// in parallel on up to Config.Workers workers, and the whole batch is
// made durable behind one fsync and published at once. It returns the
// number of sequences successfully ingested and an error joining every
// per-item failure (each a *ItemError, inspectable via errors.As). Items
// are independent: one failing item does not stop the others, and of two
// items under one id the first wins. Callers that need the failures
// individually should use IngestBatchItems.
func (db *DB) IngestBatch(items []BatchItem) (int, error) {
	n, itemErrs := db.IngestBatchItems(items)
	errs := make([]error, len(itemErrs))
	for i, ie := range itemErrs {
		errs[i] = ie
	}
	return n, errors.Join(errs...)
}

// IngestBatchItems is IngestBatch with structured failures: it returns the
// number of sequences successfully ingested and one *ItemError per failed
// item, ordered by batch position.
func (db *DB) IngestBatchItems(items []BatchItem) (int, []*ItemError) {
	var failed []*ItemError
	for i, p := range db.ingest(items, true) {
		if p.err != nil {
			failed = append(failed, &ItemError{Index: i, ID: items[i].ID, Err: p.err})
		}
	}
	return len(items) - len(failed), failed
}

// forEachClaimed runs fn over the indices [0, n), fanned across up to
// Config.Workers goroutines that claim the next index from a shared
// counter — the one worker-pool primitive behind IngestBatch and the
// parallel query scans.
func (db *DB) forEachClaimed(n int, fn func(i int)) {
	workers := min(db.cfg.Workers, n)
	if workers <= 1 {
		// One worker (or one index) runs inline: no goroutine to spawn.
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Remove deletes a sequence from the database and its interval postings;
// an error means nothing was committed. While the unlink is in flight the
// id is held in its shard's pending set, so a concurrent Ingest of the
// same id fails with the duplicate error rather than interleaving with
// the removal; once Remove returns, the id is free to reuse.
func (db *DB) Remove(id string) error {
	if err := db.storage.writable(); err != nil {
		return err
	}
	sh := db.shardOf(id)
	sh.mu.Lock()
	rec, ok := sh.records[id]
	if !ok {
		sh.mu.Unlock()
		return fmt.Errorf("core: %w %q", ErrUnknownID, id)
	}
	if _, busy := sh.pending[id]; busy {
		// Another Remove of this id is in flight (an ingest cannot be:
		// reserve fails while the record is stored). Linearize behind it.
		sh.mu.Unlock()
		return fmt.Errorf("core: %w %q", ErrUnknownID, id)
	}
	sh.pending[id] = struct{}{}
	sh.mu.Unlock()
	defer sh.abort(id) // release the hold when the unlink is done

	// The record stays in its shard until the removal is durable.
	if err := db.storage.logRemove(id); err != nil {
		return err
	}
	defer db.storage.endWrite()

	sh.drop(id)
	db.imu.Lock()
	if i, ok := slices.BinarySearch(db.ids, id); ok {
		db.syms.drop(db.idGroup[i])
		db.ids = slices.Delete(db.ids, i, i+1)
		db.idGroup = slices.Delete(db.idGroup, i, i+1)
	}
	db.rrIndex.RemoveID(id, rec.Profile.Intervals)
	if db.findex != nil {
		db.findex.remove(rec)
	}
	db.gen.Add(1)
	db.imu.Unlock()
	db.storage.unlinked(rec)
	return nil
}

// Reconstruct evaluates the stored representation of id at its original
// sample positions — the approximate stand-in for the raw sequence,
// which the database does not keep.
func (db *DB) Reconstruct(id string) (seq.Sequence, error) {
	rec, ok := db.Record(id)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", ErrUnknownID, id)
	}
	fs, err := db.materialize(rec)
	if err != nil {
		return nil, err
	}
	return fs.AppendReconstructionUnchecked(nil), nil
}

// Stats summarizes the database for monitoring and the CLI.
type Stats struct {
	Sequences      int
	Samples        int // original samples represented
	Segments       int // stored function segments
	StoredFloats   int // total floats held by all representations
	SymbolGroups   int // distinct slope-symbol strings
	IntervalCount  int // postings in the interval index
	IntervalBucket int // occupied interval buckets
	Shards         int // lock stripes in the record store
	IndexCoeffs    int // DFT coefficients per feature vector (0 = index disabled)
	FeatureIndexed int // sequences carrying feature vectors in the query-planner index
}

// Stats returns a snapshot of database-wide counters. Counters are read
// shard by shard, so under concurrent writes the snapshot is per-shard
// (not globally) consistent.
func (db *DB) Stats() Stats {
	db.imu.RLock()
	st := Stats{
		SymbolGroups:   db.syms.groups(),
		IntervalCount:  db.rrIndex.Len(),
		IntervalBucket: db.rrIndex.Buckets(),
		Shards:         len(db.shards),
	}
	db.imu.RUnlock()
	if db.findex != nil {
		st.IndexCoeffs = db.findex.k
		st.FeatureIndexed = db.findex.indexedCount()
	}
	for _, sh := range db.shards {
		sh.mu.RLock()
		st.Sequences += len(sh.records)
		for _, rec := range sh.records {
			st.Samples += rec.N
			st.Segments += rec.NumSegments()
			st.StoredFloats += rec.StoredFloats()
		}
		sh.mu.RUnlock()
	}
	return st
}

// snapshotRecords copies each shard's record pointers, shard by shard,
// for lock-free scanning. Records are immutable after commit, so the
// snapshot is safe to read without further locking.
func (db *DB) snapshotRecords() [][]*Record {
	out := make([][]*Record, len(db.shards))
	for i, sh := range db.shards {
		sh.mu.RLock()
		recs := make([]*Record, 0, len(sh.records))
		for _, rec := range sh.records {
			recs = append(recs, rec)
		}
		sh.mu.RUnlock()
		out[i] = recs
	}
	return out
}
