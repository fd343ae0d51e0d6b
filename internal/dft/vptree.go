package dft

import (
	"fmt"
	"math"
	"sort"
)

// VPTree is a vantage-point tree (Yianilos 1993) over a columnar set of
// feature vectors: the metric-tree stand-in for the R*-tree F-index of
// Agrawal, Faloutsos & Swami (1993). Points live in one flat []float64
// (row i occupies pts[i*dim : (i+1)*dim]) and the tree stores only int32
// ordinals into it, so a range search touches a handful of contiguous
// rows instead of chasing per-id map entries.
//
// Every internal node holds one vantage point, the largest distance of
// its inside subtree's points to that vantage (inR) and the smallest
// distance of its outside subtree's (outR). A range query around q with
// radius eps computes d = ‖q - vp‖ once per visited node and descends a
// side only when the triangle inequality says it can still contain a
// point within eps — candidate generation is O(log n)-ish for selective
// radii instead of the linear feature scan's O(n).
//
// Construction is deterministic (first-ordinal vantage selection, ties
// broken by ordinal), so two builds over the same rows prune identically.
// The tree is immutable after Build; owners layer deletions and late
// insertions on top (see the core feature store) and rebuild when those
// overlays grow.
type VPTree struct {
	dim   int
	pts   []float64
	nodes []vpNode
	ords  []int32 // leaf spans, bulk storage
	root  int32
}

// vpNode is one tree node. Leaves (vp == -1) hold a span of ordinals in
// the tree's ords array; internal nodes hold the vantage ordinal, the two
// pruning radii and child node indexes (-1 = absent).
type vpNode struct {
	vp      int32
	inR     float64
	outR    float64
	inside  int32
	outside int32
	lo, hi  int32
}

// DefaultVPLeaf is the leaf capacity used when a builder passes 0: small
// enough that pruning starts early, large enough that the last levels run
// as a tight linear loop over contiguous rows.
const DefaultVPLeaf = 16

// NewVPTree builds a vantage-point tree over n = len(pts)/dim points
// stored columnar in pts. leaf is the maximum leaf size (0 = DefaultVPLeaf).
// The tree keeps a reference to pts; callers must not mutate rows the
// tree covers afterwards.
func NewVPTree(pts []float64, dim, leaf int) (*VPTree, error) {
	if dim < 1 {
		return nil, fmt.Errorf("dft: vp-tree dimension %d must be >= 1", dim)
	}
	if len(pts)%dim != 0 {
		return nil, fmt.Errorf("dft: %d point floats do not tile dimension %d", len(pts), dim)
	}
	if leaf == 0 {
		leaf = DefaultVPLeaf
	}
	if leaf < 1 {
		return nil, fmt.Errorf("dft: vp-tree leaf size %d must be >= 1", leaf)
	}
	n := len(pts) / dim
	t := &VPTree{dim: dim, pts: pts, root: -1}
	if n == 0 {
		return t, nil
	}
	ords := make([]int32, n)
	for i := range ords {
		ords[i] = int32(i)
	}
	t.nodes = make([]vpNode, 0, 2*(n/(leaf+1))+1)
	t.ords = make([]int32, 0, n)
	t.root = t.build(ords, make([]float64, n), leaf)
	return t, nil
}

// Len reports the number of indexed points.
func (t *VPTree) Len() int { return len(t.pts) / t.dim }

// row returns the columnar row of ordinal o.
func (t *VPTree) row(o int32) []float64 {
	return t.pts[int(o)*t.dim : (int(o)+1)*t.dim]
}

// pointDist is the tree's metric: Euclidean distance between two rows of
// equal, pre-validated width — the same accumulation order as
// FeatureDistance, so tree and linear-scan candidate sets agree
// bit-for-bit.
func pointDist(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// vpSplit pairs ordinals with their distance to the current vantage for
// the median split.
type vpSplit struct {
	ords []int32
	d    []float64
}

func (s vpSplit) Len() int { return len(s.ords) }
func (s vpSplit) Less(i, j int) bool {
	if s.d[i] != s.d[j] {
		return s.d[i] < s.d[j]
	}
	return s.ords[i] < s.ords[j]
}
func (s vpSplit) Swap(i, j int) {
	s.ords[i], s.ords[j] = s.ords[j], s.ords[i]
	s.d[i], s.d[j] = s.d[j], s.d[i]
}

// build recursively constructs the subtree over ords, reusing dscratch
// (cap >= len(ords)) for distance staging, and returns its node index.
func (t *VPTree) build(ords []int32, dscratch []float64, leaf int) int32 {
	if len(ords) <= leaf {
		lo := int32(len(t.ords))
		t.ords = append(t.ords, ords...)
		t.nodes = append(t.nodes, vpNode{vp: -1, inside: -1, outside: -1, lo: lo, hi: lo + int32(len(ords))})
		return int32(len(t.nodes)) - 1
	}
	vp := ords[0]
	rest := ords[1:]
	d := dscratch[:len(rest)]
	vpRow := t.row(vp)
	for i, o := range rest {
		d[i] = pointDist(vpRow, t.row(o))
	}
	sort.Sort(vpSplit{rest, d})
	h := (len(rest) + 1) / 2
	node := vpNode{vp: vp, inside: -1, outside: -1, inR: d[h-1], outR: math.Inf(1)}
	if h < len(rest) {
		node.outR = d[h]
	}
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node)
	inside := t.build(rest[:h], dscratch, leaf)
	outside := int32(-1)
	if h < len(rest) {
		outside = t.build(rest[h:], dscratch, leaf)
	}
	t.nodes[idx].inside, t.nodes[idx].outside = inside, outside
	return idx
}

// vpTraverseSlack widens the triangle-inequality descent tests by a
// floating-point whisker so accumulated rounding in the node distances can
// never skip a subtree holding a boundary point. It widens traversal only:
// whether a visited point becomes a result is still decided by the exact
// d <= eps comparison, so the reported set matches a linear scan's.
func vpTraverseSlack(x float64) float64 { return x*(1+1e-9) + 1e-12 }

// Search visits every indexed point whose Euclidean distance to q is at
// most eps, invoking found(ordinal, distance) for each (in deterministic
// tree order, not sorted by distance). It returns the number of distance
// computations performed — the "vectors examined" measure a caller's
// query statistics report; examined - |found| points were examined but
// rejected, and everything else was pruned wholesale by the tree. It is
// SearchShrink under a constant radius, so a negative eps visits nothing.
func (t *VPTree) Search(q []float64, eps float64, found func(ord int32, d float64)) (examined int) {
	return t.SearchShrink(q, func() float64 { return eps }, found)
}

// All comparisons in the traversal below are inverted ("not provably
// excludable") so a NaN distance — a non-finite point or query — falls
// through to visitation and to the found callback rather than silently
// pruning subtrees or dropping points the linear feature scan would
// have handed to exact verification. For finite data the decisions are
// identical.

// SearchShrink is Search with a caller-controlled radius: radius() is
// re-read at every node entry (and after every reported point), so a
// caller that tightens it as verified results accumulate — the kNN
// best-so-far loop — prunes subtrees the initial radius would have
// visited. A negative radius aborts the traversal immediately, which
// doubles as the cooperative-cancellation hook.
func (t *VPTree) SearchShrink(q []float64, radius func() float64, found func(ord int32, d float64)) (examined int) {
	if t.root < 0 || len(q) != t.dim {
		return 0
	}
	return t.searchShrink(t.root, q, radius, found)
}

func (t *VPTree) searchShrink(ni int32, q []float64, radius func() float64, found func(int32, float64)) int {
	eps := radius()
	if eps < 0 {
		return 0
	}
	node := &t.nodes[ni]
	if node.vp < 0 { // leaf
		examined := 0
		for _, o := range t.ords[node.lo:node.hi] {
			d := pointDist(q, t.row(o))
			examined++
			if !(d > eps) {
				found(o, d)
				if eps = radius(); eps < 0 {
					return examined
				}
			}
		}
		return examined
	}
	d := pointDist(q, t.row(node.vp))
	examined := 1
	if !(d > eps) {
		found(node.vp, d)
		if eps = radius(); eps < 0 {
			return examined
		}
	}
	if node.inside >= 0 && !(d > vpTraverseSlack(node.inR+eps)) {
		examined += t.searchShrink(node.inside, q, radius, found)
	}
	if node.outside >= 0 && !(vpTraverseSlack(d+eps) < node.outR) {
		examined += t.searchShrink(node.outside, q, radius, found)
	}
	return examined
}
