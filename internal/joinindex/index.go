// Package joinindex implements the paper's §3 evaluation pipeline end to
// end — the cluster-based join index for ordered label-constraint
// reachability (OLCR) queries:
//
//  1. build the line graph L(G) of the social graph (Definition 4, package
//     linegraph);
//  2. condense L(G) into a DAG via Tarjan SCC (package scc);
//  3. interval-label the DAG following Agrawal et al. (package interval) —
//     the Figure 5 "reachability table";
//  4. compute a 2-hop cover of the DAG (package twohop) — greedy
//     max-cardinality on small graphs, pruned landmark labeling at scale;
//  5. store one base table T_label(id, Lin, Lout) per relationship type in
//     the relational layer (package reldb), build the W-table mapping label
//     pairs to the centers relevant for their reachability join (Figure 6),
//     and a B+tree over the centers' U/V clusters (Figure 7, package btree).
//
// Like the paper's construction, the line graph composes traversals
// head-to-tail, i.e. it models *outgoing* ('+') steps. Steps with incoming
// ('-') or undirected ('*') orientation are supported by the anchored
// evaluator, which walks both edge orientations of G directly; the
// reachability labels then prune only the all-outgoing suffixes of a query.
//
// Query evaluation transforms an OLCR query into line queries (Figure 4),
// evaluates them over the index, and post-processes candidate tuples for
// adjacency, endpoints and attribute predicates (§3.4). Two strategies:
//
//   - EvalPaperJoin: the literal §3.3 strategy — a chain of reachability
//     joins over the base tables (pruned through the W-table), then the
//     §3.4 post-processing that keeps only tuples forming a single adjacent
//     path from owner to requester. Faithful but subject to intermediate-
//     result blowup; used for figure regeneration and as an ablation arm.
//     Queries with non-'+' steps fall back to the anchored evaluator.
//
//   - EvalAnchored (default): the same index structures driving a guided
//     expansion anchored at the owner's incident edges, using the 2-hop /
//     interval labels as a reachability look-ahead that prunes branches
//     which cannot reach any of the requester's incident edges. Sound and
//     complete for the full query class, without the cartesian blowup.
package joinindex

import (
	"fmt"
	"time"

	"reachac/internal/btree"
	"reachac/internal/graph"
	"reachac/internal/interval"
	"reachac/internal/linegraph"
	"reachac/internal/reldb"
	"reachac/internal/scc"
	"reachac/internal/twohop"
)

// Strategy selects the query evaluation algorithm.
type Strategy uint8

// Evaluation strategies.
const (
	EvalAnchored  Strategy = iota // index-guided expansion with 2-hop look-ahead (default)
	EvalPaperJoin                 // literal §3.3 reachability-join chain + §3.4 post-processing
)

// Options configures index construction and evaluation.
type Options struct {
	// Strategy selects the evaluation algorithm (default EvalAnchored).
	Strategy Strategy
	// GreedyCover forces the exact greedy max-cardinality 2-hop cover
	// (small graphs only, see twohop.GreedyLimit); otherwise pruned
	// landmark labeling is used.
	GreedyCover bool
	// DisableWTable turns off W-table pruning in EvalPaperJoin (ablation).
	DisableWTable bool
	// DisableLookahead turns off the reachability look-ahead in
	// EvalAnchored (ablation: degenerates to plain guided BFS).
	DisableLookahead bool
	// MaxUnbounded is the line-query horizon for [lo,*] steps (default
	// linegraph.DefaultMaxUnbounded).
	MaxUnbounded int
	// MaxExpansions caps the number of line queries per OLCR query.
	MaxExpansions int
	// MaxTuples caps intermediate reachability-join results in
	// EvalPaperJoin (default 1<<20); exceeding it fails the query.
	MaxTuples int
	// BTreeOrder is the order of the cluster B+tree (default
	// btree.DefaultOrder).
	BTreeOrder int
	// IntervalBudget caps each condensation vertex's interval set (default
	// 8; see interval.LabelBounded). Exact Agrawal sets can grow
	// quadratically on wide DAGs; the bounded sets over-approximate
	// reachability, which keeps the look-ahead sound.
	IntervalBudget int
}

// BuildStats records construction cost, for the E1/E6 experiments.
type BuildStats struct {
	// LookaheadGated reports that look-ahead pruning was disabled
	// automatically because the line graph condensed into giant SCCs.
	LookaheadGated bool
	LineNodes      int
	LineEdges      int
	SCCs           int
	IntervalCount  int
	CoverSize      int
	Centers        int
	BaseTables     int
	WTableEntries  int
	LineGraphTime  time.Duration
	SCCTime        time.Duration
	IntervalTime   time.Duration
	CoverTime      time.Duration
	TableTime      time.Duration
	TotalTime      time.Duration
}

// IndexBytes estimates resident index size in bytes: 4 bytes per 2-hop label
// entry twice (cover + base-table mirror), 16 per interval, 8 per cluster
// membership entry.
func (s BuildStats) IndexBytes() int {
	return s.CoverSize*4*2 + s.IntervalCount*16 + s.CoverSize*8
}

// Cluster is one center's pair of clusters (U_w, V_w) from Definition 6:
// U_w holds the line nodes that reach the center, V_w those the center
// reaches (both include the center's own component members).
type Cluster struct {
	Rank   int32
	Center int32 // representative line node of the center's SCC
	U, V   []int32
}

// Index is the cluster-based join index over one social graph. Build once,
// query many times; the index is read-only after construction and safe for
// concurrent readers.
type Index struct {
	g     *graph.Graph
	l     *linegraph.L
	parts *scc.Result
	lab   *interval.Labeling
	cover *twohop.Cover
	// tables holds one base table per relationship type.
	tables map[graph.Label]*reldb.Table
	// wtable maps an ordered label pair to the ranks of the centers
	// relevant for their reachability join (Figure 6).
	wtable map[wKey][]int32
	// clusters, indexed by center rank (Figure 7 payload).
	clusters []Cluster
	// tree is the B+tree over the clusters, keyed by center name.
	tree *btree.Tree
	// rowOf caches each line node's base-table row.
	rowOf []reldb.Row
	opts  Options
	stats BuildStats
	// builtAt is the graph version the index was built from; queries
	// against a mutated graph are refused (stale pruning structures could
	// wrongly deny paths that use edges added after the build).
	builtAt uint64
}

type wKey struct {
	a, b graph.Label
}

// Build constructs the index for g.
func Build(g *graph.Graph, opts Options) (*Index, error) {
	if opts.MaxUnbounded <= 0 {
		opts.MaxUnbounded = linegraph.DefaultMaxUnbounded
	}
	if opts.MaxExpansions <= 0 {
		opts.MaxExpansions = linegraph.DefaultMaxExpansions
	}
	if opts.MaxTuples <= 0 {
		opts.MaxTuples = 1 << 20
	}
	idx := &Index{
		g:      g,
		tables: make(map[graph.Label]*reldb.Table),
		wtable: make(map[wKey][]int32),
		opts:   opts,
	}
	t0 := time.Now()

	// 1. Forward line graph (Definition 4).
	idx.l = linegraph.Build(g, linegraph.Opts{})
	idx.stats.LineNodes = idx.l.NumNodes()
	idx.stats.LineEdges = idx.l.NumEdges()
	idx.stats.LineGraphTime = time.Since(t0)

	// 2. SCC condensation.
	t1 := time.Now()
	idx.parts = scc.Tarjan(idx.l.D)
	dag := scc.Condense(idx.l.D, idx.parts)
	idx.stats.SCCs = idx.parts.NumComp
	idx.stats.SCCTime = time.Since(t1)
	// Reciprocity-heavy social graphs collapse the line graph into a few
	// giant SCCs; plain-reachability look-ahead then prunes almost nothing
	// and is pure overhead, so it is gated off when the condensation
	// retains less than a quarter of the line nodes.
	if !opts.DisableLookahead && idx.l.NumNodes() > 0 &&
		idx.parts.NumComp*4 < idx.l.NumNodes() {
		idx.opts.DisableLookahead = true
		idx.stats.LookaheadGated = true
	}

	// 3. Interval labeling (Figure 5), bounded per vertex.
	t2 := time.Now()
	if opts.IntervalBudget <= 0 {
		opts.IntervalBudget = 8
		idx.opts.IntervalBudget = 8
	}
	lab, err := interval.LabelBounded(dag, opts.IntervalBudget)
	if err != nil {
		return nil, fmt.Errorf("joinindex: interval labeling: %w", err)
	}
	idx.lab = lab
	idx.stats.IntervalCount = lab.Size()
	idx.stats.IntervalTime = time.Since(t2)

	// 4. 2-hop cover.
	t3 := time.Now()
	if opts.GreedyCover {
		idx.cover, err = twohop.Greedy(dag)
		if err != nil {
			return nil, fmt.Errorf("joinindex: greedy cover: %w", err)
		}
	} else {
		idx.cover = twohop.Pruned(dag)
	}
	idx.stats.CoverSize = idx.cover.Size()
	idx.stats.Centers = idx.cover.NumCenters()
	idx.stats.CoverTime = time.Since(t3)

	// 5. Base tables, clusters, W-table, B+tree.
	t4 := time.Now()
	idx.buildTables()
	idx.buildClusters()
	idx.buildWTable()
	idx.buildTree()
	idx.stats.TableTime = time.Since(t4)
	idx.stats.BaseTables = len(idx.tables)
	idx.stats.WTableEntries = len(idx.wtable)
	idx.stats.TotalTime = time.Since(t0)
	idx.builtAt = g.Version()
	return idx, nil
}

// ErrStale is returned by Reachable when the underlying graph was mutated
// after the index was built; rebuild with Build.
var ErrStale = errStale{}

type errStale struct{}

func (errStale) Error() string {
	return "joinindex: graph mutated since index build; rebuild required"
}

// comp returns the condensed-DAG vertex of a line node.
func (idx *Index) comp(lineNode int32) int { return idx.parts.Comp[lineNode] }

// lineReach reports x ⇝ y between forward line nodes, in two stages: the
// bounded interval labeling answers "definitely not" cheaply (it
// over-approximates, so false is conclusive); when it says "maybe" and the
// interval sets were truncated, the exact 2-hop labels decide.
func (idx *Index) lineReach(x, y int32) bool {
	cx, cy := idx.comp(x), idx.comp(y)
	if !idx.lab.Reachable(cx, cy) {
		return false
	}
	if !idx.lab.Approx {
		return true
	}
	return idx.cover.Reachable(cx, cy)
}

// buildTables materializes one T_label(id, Lin, Lout) base table per
// relationship type, rows in line-node order.
func (idx *Index) buildTables() {
	idx.rowOf = make([]reldb.Row, idx.l.NumNodes())
	byLabel := make(map[graph.Label][]reldb.Row)
	for i := range idx.l.Nodes {
		n := idx.l.Nodes[i]
		if n.Virtual {
			continue
		}
		c := idx.comp(int32(i))
		row := reldb.Row{ID: int32(i), In: idx.cover.InLabel(c), Out: idx.cover.OutLabel(c)}
		idx.rowOf[i] = row
		byLabel[n.Label] = append(byLabel[n.Label], row)
	}
	for l, rows := range byLabel {
		idx.tables[l] = reldb.NewTable(idx.g.LabelName(l), rows)
	}
}

// buildClusters derives each center's (U_w, V_w) from the base-table labels:
// U_w = line nodes whose Lout contains w, V_w = line nodes whose Lin
// contains w.
func (idx *Index) buildClusters() {
	idx.clusters = make([]Cluster, idx.cover.NumCenters())
	for r := range idx.clusters {
		rank := int32(r)
		idx.clusters[r] = Cluster{
			Rank:   rank,
			Center: int32(idx.parts.Rep[idx.cover.CenterVertex(rank)]),
		}
	}
	for i := range idx.l.Nodes {
		if idx.l.Nodes[i].Virtual {
			continue
		}
		row := idx.rowOf[i]
		for _, r := range row.Out {
			idx.clusters[r].U = append(idx.clusters[r].U, int32(i))
		}
		for _, r := range row.In {
			idx.clusters[r].V = append(idx.clusters[r].V, int32(i))
		}
	}
}

// buildWTable fills the two-entry W-table: for every ordered label pair
// (a, b), the centers w with a label-a line node in U_w and a label-b line
// node in V_w — exactly the centers through which a reachability join
// T_a ⋈ T_b can produce answers (Figure 6).
func (idx *Index) buildWTable() {
	for r := range idx.clusters {
		uLabels := make(map[graph.Label]bool)
		for _, u := range idx.clusters[r].U {
			uLabels[idx.l.Nodes[u].Label] = true
		}
		vLabels := make(map[graph.Label]bool)
		for _, v := range idx.clusters[r].V {
			vLabels[idx.l.Nodes[v].Label] = true
		}
		for a := range uLabels {
			for b := range vLabels {
				k := wKey{a, b}
				idx.wtable[k] = append(idx.wtable[k], int32(r))
			}
		}
	}
}

// buildTree stores the clusters in a B+tree keyed by center name (Figure 7).
func (idx *Index) buildTree() {
	order := idx.opts.BTreeOrder
	if order == 0 {
		order = btree.DefaultOrder
	}
	idx.tree = btree.New(order)
	for r := range idx.clusters {
		key := fmt.Sprintf("%s#%04d", idx.l.NodeString(int(idx.clusters[r].Center)), r)
		idx.tree.Put(key, &idx.clusters[r])
	}
}

// Stats returns construction statistics.
func (idx *Index) Stats() BuildStats { return idx.stats }

// Line exposes the underlying forward line graph (read-only), used by the
// figure regeneration tool.
func (idx *Index) Line() *linegraph.L { return idx.l }

// Partition exposes the SCC decomposition of the line graph.
func (idx *Index) Partition() *scc.Result { return idx.parts }

// Intervals exposes the interval labeling of the condensed line DAG.
func (idx *Index) Intervals() *interval.Labeling { return idx.lab }

// Cover exposes the 2-hop cover.
func (idx *Index) Cover() *twohop.Cover { return idx.cover }

// Clusters returns the centers with their U/V clusters, by rank.
func (idx *Index) Clusters() []Cluster { return idx.clusters }

// Tree returns the cluster B+tree.
func (idx *Index) Tree() *btree.Tree { return idx.tree }

// BaseTable returns the base table for a relationship type, or nil.
func (idx *Index) BaseTable(label string) *reldb.Table {
	l, ok := idx.g.LookupLabel(label)
	if !ok {
		return nil
	}
	return idx.tables[l]
}

// WEntry returns the W-table center ranks for an ordered label pair.
func (idx *Index) WEntry(labelA, labelB string) []int32 {
	la, ok := idx.g.LookupLabel(labelA)
	if !ok {
		return nil
	}
	lb, ok := idx.g.LookupLabel(labelB)
	if !ok {
		return nil
	}
	return idx.wtable[wKey{la, lb}]
}
