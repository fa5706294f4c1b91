// Package reldb is the minimal in-memory relational layer of §3.3: the
// paper stores the 2-hop labeling in a relational database as one
// three-column base table per relationship type,
//
//	T_label(id, Lin(id), Lout(id)),
//
// and evaluates each step of a reachability query as a *reachability join*
// T_a ⋈_{a↪b} T_b: the pair ⟨x, y⟩ joins iff Lout(x) ∩ Lin(y) ≠ ∅.
// The paper used an external DBMS purely as a table store and join executor;
// this package implements those two roles directly.
package reldb

import "sort"

// Row is one tuple of a base table: a line-graph node id with its 2-hop
// labels (center ranks, ascending).
type Row struct {
	ID  int32
	In  []int32
	Out []int32
}

// Table is a named base table.
type Table struct {
	Name string
	Rows []Row
}

// NewTable returns a table with the given name and rows.
func NewTable(name string, rows []Row) *Table {
	return &Table{Name: name, Rows: rows}
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// Filter returns a new table with the rows satisfying keep.
func (t *Table) Filter(keep func(Row) bool) *Table {
	out := &Table{Name: t.Name}
	for _, r := range t.Rows {
		if keep(r) {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// Lookup returns the row with the given id, scanning; ok reports presence.
func (t *Table) Lookup(id int32) (Row, bool) {
	for _, r := range t.Rows {
		if r.ID == id {
			return r, true
		}
	}
	return Row{}, false
}

// Intersects reports whether two ascending label slices share an element —
// the reachability condition Lout(x) ∩ Lin(y) ≠ ∅ of Definition 5.
func Intersects(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Pair is one result pair of a reachability join.
type Pair struct {
	L, R int32
}

// ReachJoin computes T_left ⋈ T_right under the reachability condition:
// every ⟨x, y⟩ with Lout(x) ∩ Lin(y) ≠ ∅. Pairs are emitted in
// (left-row-order, right-row-order), deterministic.
func ReachJoin(left, right *Table) []Pair {
	var out []Pair
	for _, x := range left.Rows {
		if len(x.Out) == 0 {
			continue
		}
		for _, y := range right.Rows {
			if Intersects(x.Out, y.In) {
				out = append(out, Pair{x.ID, y.ID})
			}
		}
	}
	return out
}

// TupleSet is an intermediate result of a chain of reachability joins: each
// tuple is a sequence of row ids, one per joined table (⟨x1, …, xk⟩ in the
// paper's notation). last holds the full row of each tuple's final element so
// the next join can test its Lout.
type TupleSet struct {
	Tuples [][]int32
	last   []Row
}

// FromTable seeds a tuple set with every row of t as a 1-tuple.
func FromTable(t *Table) *TupleSet {
	ts := &TupleSet{}
	for _, r := range t.Rows {
		ts.Tuples = append(ts.Tuples, []int32{r.ID})
		ts.last = append(ts.last, r)
	}
	return ts
}

// Len returns the number of tuples.
func (ts *TupleSet) Len() int { return len(ts.Tuples) }

// LastRow returns the full row of tuple i's final element.
func (ts *TupleSet) LastRow(i int) Row { return ts.last[i] }

// Append adds a tuple whose final element has the given row.
func (ts *TupleSet) Append(tuple []int32, lastRow Row) {
	ts.Tuples = append(ts.Tuples, tuple)
	ts.last = append(ts.last, lastRow)
}

// Extend joins the tuple set with the next table under the reachability
// condition, producing tuples one element longer. maxTuples > 0 bounds the
// result size; exceeding it returns ok=false (the caller should fall back to
// another strategy).
func (ts *TupleSet) Extend(next *Table, maxTuples int) (*TupleSet, bool) {
	out := &TupleSet{}
	for i, tup := range ts.Tuples {
		x := ts.last[i]
		if len(x.Out) == 0 {
			continue
		}
		for _, y := range next.Rows {
			if !Intersects(x.Out, y.In) {
				continue
			}
			if maxTuples > 0 && len(out.Tuples) >= maxTuples {
				return nil, false
			}
			nt := make([]int32, len(tup)+1)
			copy(nt, tup)
			nt[len(tup)] = y.ID
			out.Tuples = append(out.Tuples, nt)
			out.last = append(out.last, y)
		}
	}
	return out, true
}

// SortTuples orders tuples lexicographically, for deterministic output.
func (ts *TupleSet) SortTuples() {
	idx := make([]int, len(ts.Tuples))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ta, tb := ts.Tuples[idx[a]], ts.Tuples[idx[b]]
		for k := 0; k < len(ta) && k < len(tb); k++ {
			if ta[k] != tb[k] {
				return ta[k] < tb[k]
			}
		}
		return len(ta) < len(tb)
	})
	tuples := make([][]int32, len(idx))
	last := make([]Row, len(idx))
	for i, j := range idx {
		tuples[i] = ts.Tuples[j]
		last[i] = ts.last[j]
	}
	ts.Tuples, ts.last = tuples, last
}
