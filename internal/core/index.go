package core

import (
	"sync"

	"seqrep/internal/dft"
)

// featIndex is the DB's whole-sequence DFT feature index: per sequence,
// the first-IndexCoeffs-DFT-coefficient feature vectors of the comparison
// form (the exact samples queries verify against: the representation's
// reconstruction) and of its z-normalized variant. By Parseval the
// Euclidean distance between two feature vectors lower-bounds the
// Euclidean distance between the underlying sample vectors, so the
// planner can discard sequences whose
// feature distance already exceeds a query's tolerance without reading
// them — with zero false dismissals (the Agrawal/Faloutsos/Swami
// F-index guarantee; see internal/dft).
//
// Storage is columnar and grouped by sequence length (whole-sequence
// queries only ever compare equal lengths): each length group holds one
// contiguous []float64 of feature rows plus a parallel record table, and
// lazily builds a vantage-point tree (dft.VPTree) over those rows so
// candidate generation is sub-linear in the group size instead of a
// per-id map walk. Mutations are cheap against the trees: adds append
// rows past the tree's coverage (scanned linearly until the next
// rebuild), removals tombstone their row, and a group rebuilds its store
// and trees only when the overlay grows past a fraction of its size.
// A record whose comparison form could not be read at build time carries
// nil feature vectors, lives in the group's unindexed set, and is simply
// never pruned.
type featIndex struct {
	k    int // DFT coefficient count (feature rows are 2k wide)
	dim  int
	leaf int // VP-tree leaf size; negative pins groups to the linear scan

	mu     sync.RWMutex // guards the groups map (not group contents)
	groups map[int]*featGroup
}

// featGroup is one length group: the columnar feature store, its search
// trees, and the mutation overlays.
type featGroup struct {
	mu sync.RWMutex

	// retired marks a drained group that has been unlinked from the
	// groups map; writers that captured it before the unlink must
	// re-look-up instead of inserting into an orphan. Set only while
	// holding both ix.mu and g.mu, always empty when set.
	retired bool

	// Columnar store: row i of feats/zfeats belongs to recs[i]; ord maps
	// a live record id to its row. dead marks tombstoned rows.
	recs      []*Record
	feats     []float64
	zfeats    []float64
	ord       map[string]int
	dead      []bool
	deadCount int

	// unindexed holds committed records without feature vectors; they
	// are always verification candidates.
	unindexed map[string]*Record

	// tree/ztree cover rows [0, treeN) of feats/zfeats respectively
	// (including rows since tombstoned — the search skips them). Rows
	// appended after the last build are scanned linearly. nil = not
	// built yet, population too small, or invalidated by a rebuild
	// threshold.
	tree, ztree *dft.VPTree
	treeN       int
}

func newFeatIndex(k, leaf int) *featIndex {
	return &featIndex{k: k, dim: 2 * k, leaf: leaf, groups: make(map[int]*featGroup)}
}

// group returns the length group for n, creating it when create is set.
func (ix *featIndex) group(n int, create bool) *featGroup {
	ix.mu.RLock()
	g := ix.groups[n]
	ix.mu.RUnlock()
	if g != nil || !create {
		return g
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if g = ix.groups[n]; g == nil {
		g = &featGroup{ord: make(map[string]int), unindexed: make(map[string]*Record)}
		ix.groups[n] = g
	}
	return g
}

// live reports the number of feature-indexed live rows. Callers hold g.mu.
func (g *featGroup) live() int { return len(g.recs) - g.deadCount }

// tailMax is how many rows may sit past the trees' coverage before the
// group forces a rebuild; staleMax the tombstone budget. Both scale with
// the store so steady churn rebuilds at amortized O(log n) per mutation.
func (g *featGroup) tailMax() int  { return 32 + g.treeN/4 }
func (g *featGroup) staleMax() int { return 32 + len(g.recs)/4 }

// add registers a committed record. Records are immutable after commit,
// so the index stores the pointer and copies its feature vectors into the
// columnar rows. A group retired between lookup and lock is re-resolved.
func (ix *featIndex) add(rec *Record) {
	for {
		g := ix.group(rec.N, true)
		g.mu.Lock()
		if g.retired {
			g.mu.Unlock()
			continue
		}
		if rec.feats == nil || rec.zfeats == nil {
			g.unindexed[rec.ID] = rec
		} else {
			g.ord[rec.ID] = len(g.recs)
			g.recs = append(g.recs, rec)
			g.feats = append(g.feats, rec.feats...)
			g.zfeats = append(g.zfeats, rec.zfeats...)
			g.dead = append(g.dead, false)
			if len(g.recs)-g.treeN > g.tailMax() {
				g.invalidateTrees()
			}
		}
		g.mu.Unlock()
		return
	}
}

// remove drops a record from its length group: unindexed records leave
// immediately, stored rows are tombstoned and compacted once enough
// accumulate. A group drained to empty is retired from the groups map.
func (ix *featIndex) remove(rec *Record) {
	g := ix.group(rec.N, false)
	if g == nil {
		return
	}
	g.mu.Lock()
	if _, ok := g.unindexed[rec.ID]; ok {
		delete(g.unindexed, rec.ID)
	} else if o, ok := g.ord[rec.ID]; ok && g.recs[o] == rec {
		delete(g.ord, rec.ID)
		g.dead[o] = true
		g.deadCount++
		// Compact when tombstones pile past the rebuild budget — or past
		// the live population, so a small or fully-drained group releases
		// its record pointers instead of retaining them below the
		// threshold.
		if g.deadCount > g.staleMax() || g.deadCount > g.live() {
			g.compact(ix.dim)
		}
	}
	empty := len(g.recs) == 0 && len(g.unindexed) == 0
	g.mu.Unlock()
	if empty {
		ix.retire(rec.N, g)
	}
}

// retire unlinks a drained group from the groups map so a workload that
// cycles through many distinct lengths does not accumulate empty groups.
// Emptiness is re-checked under both locks (ix.mu before g.mu, the
// package-wide order); writers that captured the group earlier observe
// the retired flag and re-resolve.
func (ix *featIndex) retire(n int, g *featGroup) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.groups[n] != g {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.recs) == 0 && len(g.unindexed) == 0 {
		g.retired = true
		delete(ix.groups, n)
	}
}

// invalidateTrees drops both trees; the next query rebuilds on demand.
func (g *featGroup) invalidateTrees() {
	g.tree, g.ztree = nil, nil
	g.treeN = 0
}

// compact rewrites the columnar store without tombstoned rows and drops
// the trees. Callers hold g.mu.
func (g *featGroup) compact(dim int) {
	recs := make([]*Record, 0, g.live())
	feats := make([]float64, 0, g.live()*dim)
	zfeats := make([]float64, 0, g.live()*dim)
	for i, rec := range g.recs {
		if g.dead[i] {
			continue
		}
		g.ord[rec.ID] = len(recs)
		recs = append(recs, rec)
		feats = append(feats, g.feats[i*dim:(i+1)*dim]...)
		zfeats = append(zfeats, g.zfeats[i*dim:(i+1)*dim]...)
	}
	g.recs, g.feats, g.zfeats = recs, feats, zfeats
	g.dead = make([]bool, len(recs))
	g.deadCount = 0
	g.invalidateTrees()
}

// needTrees reports whether the group's population justifies trees it
// doesn't currently have. Callers hold g.mu (either mode).
func (g *featGroup) needTrees(ix *featIndex) bool {
	if ix.leaf < 0 {
		return false
	}
	leaf := ix.leaf
	if leaf == 0 {
		leaf = dft.DefaultVPLeaf
	}
	if len(g.recs) < 2*leaf {
		return false
	}
	return g.tree == nil || g.ztree == nil
}

// buildTrees constructs both trees over the current store (compacting
// first when tombstones piled up), so their row coverage — treeN — is one
// number. Callers hold g.mu for writing.
func (g *featGroup) buildTrees(ix *featIndex) {
	if !g.needTrees(ix) { // re-check under the write lock
		return
	}
	if g.deadCount > 0 {
		g.compact(ix.dim)
	}
	t, err := dft.NewVPTree(g.feats, ix.dim, max(ix.leaf, 0))
	if err != nil {
		return // dim validated at construction; defensive only
	}
	zt, err := dft.NewVPTree(g.zfeats, ix.dim, max(ix.leaf, 0))
	if err != nil {
		return
	}
	g.tree, g.ztree = t, zt
	g.treeN = len(g.recs)
}

// lockSearchable read-locks g with its trees built (briefly upgrading to
// the write lock when a build is due) and returns the tree and columnar
// rows lb selects. Callers must g.mu.RUnlock when done.
func (g *featGroup) lockSearchable(ix *featIndex, lb lowerBound) (tree *dft.VPTree, pts []float64) {
	g.mu.RLock()
	if g.needTrees(ix) {
		g.mu.RUnlock()
		g.mu.Lock()
		g.buildTrees(ix)
		g.mu.Unlock()
		g.mu.RLock()
	}
	tree, pts = g.tree, g.feats
	if lb.z {
		tree, pts = g.ztree, g.zfeats
	}
	return tree, pts
}

// collect hands every verification candidate for the exemplar's length
// group to emit while the traversal is still running: rows whose feature
// distance to lb.qf is within bound() (generated through the
// vantage-point tree when one is up, falling back to a linear pass over
// the columnar rows), rows appended since the last tree build, and every
// unindexed record. emit also receives the row's feature distance as
// computed for the pruning decision (-1 for an unindexed record, which has
// no row), so a caller that bands on it need not compute it again. bound
// is re-read at every tree node and every few rows, so a radius the
// caller tightens (top-K's best-so-far K-th distance) prunes subtrees
// mid-flight; a caller without feedback returns a fixed bound. A negative
// bound aborts the collection — the cooperative-cancellation hook — as
// does emit returning false. examined
// counts feature vectors actually compared; pruned those compared and
// discarded — candidates the caller never has to read; cands those
// emitted. Runs under the group's read lock for its whole duration —
// concurrent queries proceed, mutations of this length group wait.
func (ix *featIndex) collect(n int, lb lowerBound, bound func() float64, emit func(rec *Record, fd float64) bool) (examined, pruned, cands int) {
	g := ix.group(n, false)
	if g == nil {
		return 0, 0, 0
	}
	tree, pts := g.lockSearchable(ix, lb)
	defer g.mu.RUnlock()

	linearFrom := 0
	if tree != nil {
		live := 0
		aborted := false
		examined += tree.SearchShrink(lb.qf, bound, func(o int32, fd float64) {
			if aborted || g.dead[o] {
				return
			}
			if !emit(g.recs[o], fd) {
				aborted = true
				return
			}
			live++
		})
		pruned += examined - live
		cands += live
		if aborted {
			return examined, pruned, cands
		}
		linearFrom = g.treeN
	}
	dim := ix.dim
	b := 0.0
	for o := linearFrom; o < len(g.recs); o++ {
		// Re-read every 64 rows: a bound gone stale in between only lets
		// through candidates that verification then rejects.
		if (o-linearFrom)%64 == 0 {
			if b = bound(); b < 0 {
				return examined, pruned, cands
			}
		}
		if g.dead[o] {
			continue
		}
		examined++
		fd := dft.FeatureDist(lb.qf, pts[o*dim:(o+1)*dim])
		if fd > b {
			pruned++
			continue
		}
		if !emit(g.recs[o], fd) {
			return examined, pruned, cands
		}
		cands++
	}
	for _, rec := range g.unindexed {
		if bound() < 0 {
			return examined, pruned, cands
		}
		examined++
		if !emit(rec, -1) {
			return examined, pruned, cands
		}
		cands++
	}
	return examined, pruned, cands
}

// indexedCount reports how many records carry feature vectors.
func (ix *featIndex) indexedCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, g := range ix.groups {
		g.mu.RLock()
		n += g.live()
		g.mu.RUnlock()
	}
	return n
}

// computeFeatures derives a record's feature vectors from its comparison
// form. vals must be the exact samples queries verify the record against,
// and zvals their dist.ZNormalizeValues.
func (ix *featIndex) computeFeatures(rec *Record, vals, zvals []float64) {
	feats, err := dft.Features(vals, ix.k)
	if err != nil {
		return // k is validated at construction; defensive only
	}
	zfeats, err := dft.Features(zvals, ix.k)
	if err != nil {
		return
	}
	rec.feats, rec.zfeats = feats, zfeats
}
