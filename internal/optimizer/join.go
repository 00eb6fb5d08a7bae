package optimizer

import (
	"fmt"
	"math"
	"sort"

	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// joinGraph is the per-query data the left-deep enumerators consult for
// every join candidate, computed once per query: each predicate's table
// bitmask and, when the §4.4 unpruneable retention is on, each expensive
// predicate's bit in a subplan's buried set.
type joinGraph struct {
	q *query.Query
	// predTables[i] is the bitset of q.Tables indices q.Preds[i] references;
	// 0 when it references a table outside the query (it never connects).
	predTables []uint32
	// buriedBit gives every expensive predicate its own bit, assigned in
	// ascending ID order; nil when retention is off.
	buriedBit map[*query.Predicate]uint64
}

// maxBuried is the number of expensive predicates a buried set can track.
const maxBuried = 64

// newJoinGraph computes q's join graph. retention assigns buried bits; it
// fails for a query with more expensive predicates than maxBuried rather
// than silently dropping the retention for some of them.
func newJoinGraph(q *query.Query, retention bool) (*joinGraph, error) {
	g := &joinGraph{q: q, predTables: make([]uint32, len(q.Preds))}
	for i, p := range q.Preds {
		var mask uint32
		for _, t := range p.Tables {
			ti := tableIndex(q, t)
			if ti < 0 {
				mask = 0
				break
			}
			mask |= 1 << uint(ti)
		}
		g.predTables[i] = mask
	}
	if !retention {
		return g, nil
	}
	var exp []*query.Predicate
	for _, p := range q.Preds {
		if p.IsExpensive() {
			exp = append(exp, p)
		}
	}
	if len(exp) > maxBuried {
		return nil, fmt.Errorf("optimizer: %d expensive predicates exceed the %d that unpruneable-subplan retention tracks", len(exp), maxBuried)
	}
	// Bits in ID order keep prune's tie-break order of buried sets the
	// order of the predicate IDs they hold.
	sort.Slice(exp, func(a, b int) bool { return exp[a].ID < exp[b].ID })
	g.buriedBit = make(map[*query.Predicate]uint64, len(exp))
	for i, p := range exp {
		g.buriedBit[p] = 1 << uint(i)
	}
	return g, nil
}

// connectingPreds returns the predicates that span the outer set and the
// inner table: every referenced table is available in the join, and at least
// one lives on each side.
func (g *joinGraph) connectingPreds(outerSet uint32, innerIdx int) []*query.Predicate {
	inner := uint32(1) << uint(innerIdx)
	avail := outerSet | inner
	var out []*query.Predicate
	for i, p := range g.q.Preds {
		m := g.predTables[i]
		if p.IsJoin() && m&^avail == 0 && m&inner != 0 && m&outerSet != 0 {
			out = append(out, p)
		}
	}
	return out
}

// tableIndex returns the position of t in q.Tables.
func tableIndex(q *query.Query, t string) int {
	for i, x := range q.Tables {
		if x == t {
			return i
		}
	}
	return -1
}

// joinCandidates builds every join of outer ⋈ inner the methods allow,
// applying the configured algorithm's pullup policy, and returns annotated
// subplans.
func (o *Optimizer) joinCandidates(g *joinGraph, outer, inner *subplan) ([]*subplan, error) {
	innerIdx := bits32(inner.set)
	conns := g.connectingPreds(outer.set, innerIdx)
	innerTable := g.q.Tables[innerIdx]

	// Classify the connecting predicates.
	var eqPreds []*query.Predicate // cheap equality column-column joins
	for _, p := range conns {
		if p.Kind == query.KindJoinCmp && p.Op == expr.OpEQ && !p.IsExpensive() {
			eqPreds = append(eqPreds, p)
		}
	}

	type method struct {
		m        plan.JoinMethod
		primary  *query.Predicate
		indexCol string
	}
	var methods []method
	tab, err := o.cat.Table(innerTable)
	if err != nil {
		return nil, err
	}
	for _, p := range eqPreds {
		innerRef, _ := sides(p, innerTable)
		methods = append(methods,
			method{m: plan.HashJoin, primary: p},
			method{m: plan.MergeJoin, primary: p},
		)
		if tab.HasIndex(innerRef.Col) {
			methods = append(methods, method{m: plan.IndexNestLoop, primary: p, indexCol: innerRef.Col})
		}
	}
	// Nested loop with the minimal-rank connecting predicate as primary
	// (footnote 1 of the paper); a cross product when nothing connects.
	nlPrimary := minRankPred(conns)
	methods = append(methods, method{m: plan.NestLoop, primary: nlPrimary})

	// Every method's join emits the same columns; its nodes share one list,
	// read-only.
	cols := plan.ConcatCols(outer.root, inner.root)
	var out []*subplan
	for _, md := range methods {
		var secondaries []*query.Predicate
		for _, p := range conns {
			if p != md.primary {
				secondaries = append(secondaries, p)
			}
		}
		sp, err := o.buildJoin(g, outer, inner, cols, md.m, md.primary, md.indexCol, secondaries)
		if err != nil {
			return nil, err
		}
		if sp != nil {
			out = append(out, sp)
		}
	}
	return out, nil
}

// sides splits an equality join predicate into (innerSide, outerSide)
// references relative to innerTable.
func sides(p *query.Predicate, innerTable string) (innerRef, outerRef query.ColRef) {
	if p.Left.Table == innerTable {
		return p.Left, p.Right
	}
	return p.Right, p.Left
}

// minRankPred picks the minimal-rank predicate (nil if none).
func minRankPred(preds []*query.Predicate) *query.Predicate {
	var best *query.Predicate
	bestRank := math.Inf(1)
	for _, p := range preds {
		if r := p.Rank(); best == nil || r < bestRank {
			best, bestRank = p, r
		}
	}
	return best
}

func bits32(set uint32) int {
	for i := 0; i < 32; i++ {
		if set&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

// buildJoin constructs one candidate join with the algorithm's pullup policy
// and returns its annotated subplan (nil when the combination is invalid).
// Only the candidate's new nodes are costed: the join, any re-chained input
// filters and the filters above it. The inputs' subtrees keep the estimates
// the DP stored when it built them (AnnotateOver; DESIGN.md §20).
func (o *Optimizer) buildJoin(g *joinGraph, outer, inner *subplan, cols []query.ColRef,
	m plan.JoinMethod, primary *query.Predicate, indexCol string,
	secondaries []*query.Predicate) (*subplan, error) {

	// mk builds the join over the inputs with the given selections kept
	// below it; an input keeping its whole chain is reused as it is.
	mk := func(oPreds, iPreds []*query.Predicate) (*plan.Join, error) {
		on, in := outer.root, inner.root
		if len(oPreds) != len(outer.chain) {
			on = chainFilters(outer.base, oPreds)
		}
		if len(iPreds) != len(inner.chain) {
			in = chainFilters(inner.base, iPreds)
		}
		j := &plan.Join{
			Method:           m,
			Outer:            on,
			Inner:            in,
			Primary:          primary,
			InnerIndexCol:    indexCol,
			ExpensivePrimary: primary != nil && primary.IsExpensive(),
			ColRefs:          cols,
		}
		if m == plan.MergeJoin {
			innerTable := g.q.Tables[bits32(inner.set)]
			innerRef, outerRef := sides(primary, innerTable)
			j.SortOuter = outer.order != outerRef
			j.SortInner = inner.order != innerRef
		}
		if err := o.model.AnnotateOver(j, outer.root, outer.base, inner.root, inner.base); err != nil {
			return nil, err
		}
		return j, nil
	}

	hoistOut, hoistIn, j, err := o.chooseHoists(mk, outer, inner)
	if err != nil {
		return nil, nil //nolint:nilerr // invalid method/shape combination: skip candidate
	}
	keepOut := subtract(outer.chain, hoistOut)
	keepIn := subtract(inner.chain, hoistIn)
	if j == nil || len(hoistOut)+len(hoistIn) > 0 {
		if j, err = mk(keepOut, keepIn); err != nil {
			return nil, nil //nolint:nilerr
		}
	}

	// Everything above the join: secondaries plus hoisted selections, in
	// ascending rank order (bottom first).
	above := append(append([]*query.Predicate(nil), secondaries...), hoistOut...)
	above = append(above, hoistIn...)
	above = o.orderByRank(above, j.EstCard)
	root := chainFilters(j, above)
	if err := o.model.AnnotateOver(root, j); err != nil {
		return nil, err
	}

	// Output order: merge join emits join-column order; the others preserve
	// the outer stream's order.
	var order query.ColRef
	if m == plan.MergeJoin {
		innerTable := g.q.Tables[bits32(inner.set)]
		_, outerRef := sides(primary, innerTable)
		order = outerRef
	} else {
		order = outer.order
	}

	buried := outer.buried | inner.buried
	if g.buriedBit != nil {
		for _, p := range keepOut {
			buried |= g.buriedBit[p]
		}
		for _, p := range keepIn {
			buried |= g.buriedBit[p]
		}
	}

	return &subplan{
		root:   root,
		base:   j,
		chain:  above,
		set:    outer.set | inner.set,
		order:  order,
		cost:   root.Cost(),
		card:   root.Card(),
		buried: buried,
	}, nil
}

// chooseHoists decides which expensive selections to pull above the join,
// per the configured algorithm. Inner pullup is decided first (§5.2).
// PullRank and Migration compare each selection's rank with the join's
// per-input ranks, measured on the tentative join mk builds with both
// chains kept below it; that join is returned so the caller can reuse it
// when nothing is hoisted. The other algorithms never build it.
func (o *Optimizer) chooseHoists(mk func(oPreds, iPreds []*query.Predicate) (*plan.Join, error),
	outer, inner *subplan) (hoistOut, hoistIn []*query.Predicate, tentative *plan.Join, err error) {

	switch o.opts.Algorithm {
	case NaivePushDown, PushDown:
		return nil, nil, nil, nil
	case PullUp:
		return expensiveOf(outer.chain), expensiveOf(inner.chain), nil, nil
	default: // PullRank, Migration
		tentative, err = mk(outer.chain, inner.chain)
		if err != nil {
			return nil, nil, nil, err
		}
		os, is := o.model.JoinInputStats(tentative)
		innerRank := is.Rank()
		for _, p := range expensiveOf(inner.chain) {
			if o.selRank(p, inner.card) > innerRank {
				hoistIn = append(hoistIn, p)
			}
		}
		outerRank := os.Rank()
		for _, p := range expensiveOf(outer.chain) {
			if o.selRank(p, outer.card) > outerRank {
				hoistOut = append(hoistOut, p)
			}
		}
		return hoistOut, hoistIn, tentative, nil
	}
}

func expensiveOf(preds []*query.Predicate) []*query.Predicate {
	var out []*query.Predicate
	for _, p := range preds {
		if p.IsExpensive() {
			out = append(out, p)
		}
	}
	return out
}

// subtract returns preds minus remove, preserving order.
func subtract(preds, remove []*query.Predicate) []*query.Predicate {
	rm := map[*query.Predicate]bool{}
	for _, p := range remove {
		rm[p] = true
	}
	var out []*query.Predicate
	for _, p := range preds {
		if !rm[p] {
			out = append(out, p)
		}
	}
	return out
}
