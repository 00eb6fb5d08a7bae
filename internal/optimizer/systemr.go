package optimizer

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"predplace/internal/cost"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// subplan is one retained entry of the dynamic-programming table.
type subplan struct {
	root plan.Node
	// base and chain split root into its top Filter chain (bottom first)
	// and the node beneath it — what plan.TopFilters would find — for the
	// subplans the System R enumerator builds; joins re-chain their inputs
	// from them without walking the tree.
	base  plan.Node
	chain []*query.Predicate
	set   uint32       // bitset of q.Tables indices
	order query.ColRef // output ordering column (zero value = unordered)
	cost  float64
	card  float64
	// buried marks expensive predicates sitting below some join in this
	// subplan — the paper's "unpruneable" condition: PullRank declined a
	// pullup, so Predicate Migration must see this subplan later. Each
	// expensive predicate has its own bit (joinGraph.buriedBit); it is
	// tracked only while the §4.4 retention is on.
	buried uint64
}

// planSystemR runs the left-deep System R enumeration with the configured
// placement algorithm.
func (o *Optimizer) planSystemR(q *query.Query) (plan.Node, *Info, error) {
	_, finalists, info, err := o.enumerate(q)
	if err != nil {
		return nil, nil, err
	}
	root, err := o.finalize(q, finalists, info)
	return root, info, err
}

// enumerate runs the System R dynamic program and returns its table of
// retained subplans by table set, the finalists handed to finalize, and the
// enumeration's diagnostics.
func (o *Optimizer) enumerate(q *query.Query) (map[uint32][]*subplan, []*subplan, *Info, error) {
	n := len(q.Tables)
	if n > 12 {
		return nil, nil, nil, fmt.Errorf("optimizer: %d-way join exceeds the System R enumerator's limit", n)
	}
	info := &Info{}

	base := make([][]*subplan, n)
	table := make(map[uint32][]*subplan)
	for i := range q.Tables {
		sps, err := o.accessPaths(q, i)
		if err != nil {
			return nil, nil, nil, err
		}
		base[i] = sps
		table[1<<uint(i)] = sps
	}

	if n == 1 {
		info.PlansRetained = len(base[0])
		finalists := []*subplan{cheapest(base[0])}
		if o.opts.TopK != nil {
			// Keep every access path alive for finalize: a full index scan
			// on the ORDER BY key loses on unwrapped cost but can win once
			// an early-terminating Limit prices it.
			finalists = base[0]
		}
		return table, finalists, info, nil
	}

	g, err := newJoinGraph(q, o.retention())
	if err != nil {
		return nil, nil, nil, err
	}
	full := uint32(1)<<uint(n) - 1
	for mask := uint32(1); mask <= full; mask++ {
		size := bits.OnesCount32(mask)
		if size < 2 {
			continue
		}
		var cands []*subplan
		for i := 0; i < n; i++ {
			bit := uint32(1) << uint(i)
			if mask&bit == 0 {
				continue
			}
			outerMask := mask &^ bit
			for _, op := range table[outerMask] {
				for _, ip := range base[i] {
					cs, err := o.joinCandidates(g, op, ip)
					if err != nil {
						return nil, nil, nil, err
					}
					cands = append(cands, cs...)
				}
			}
		}
		kept, unpr := o.prune(cands)
		table[mask] = kept
		info.UnpruneableRetained += unpr
	}
	for _, sps := range table {
		info.PlansRetained += len(sps)
	}
	return table, table[full], info, nil
}

// retention reports whether the DP keeps unpruneable subplans (§4.4).
func (o *Optimizer) retention() bool {
	return o.opts.Algorithm == Migration && !o.opts.DisableUnpruneable
}

// finalize applies the Predicate Migration post-pass (when selected) to every
// retained final plan and returns the cheapest. With top-k planning on, it is
// also the wrap site: wrapping happens after migration (Flatten cannot stream
// a TopK/Limit root), with the baseline best plan first so ties keep the plan
// the facade sort would have executed, and other finalists considered only
// when their output order satisfies the ORDER BY.
func (o *Optimizer) finalize(q *query.Query, finalists []*subplan, info *Info) (plan.Node, error) {
	if len(finalists) == 0 {
		return nil, fmt.Errorf("optimizer: no plan found")
	}
	var roots []plan.Node
	var baseline plan.Node
	if o.opts.Algorithm != Migration {
		baseline = cheapest(finalists).root
		if o.opts.TopK == nil {
			return baseline, nil
		}
		for _, sp := range finalists {
			roots = append(roots, sp.root)
		}
	} else {
		bestCost := math.Inf(1)
		for _, sp := range finalists {
			migrated, passes, err := o.migrate(sp.root)
			if err != nil {
				return nil, err
			}
			info.MigrationPasses += passes
			roots = append(roots, migrated)
			if migrated.Cost() < bestCost {
				baseline, bestCost = migrated, migrated.Cost()
			}
		}
		if o.opts.TopK == nil {
			return baseline, nil
		}
	}
	cands := []plan.Node{baseline}
	for _, r := range roots {
		if r != baseline && o.orderSatisfied(r) {
			cands = append(cands, r)
		}
	}
	return o.chooseTopK(cands, info)
}

func cheapest(sps []*subplan) *subplan {
	best := sps[0]
	for _, sp := range sps[1:] {
		if sp.cost < best.cost {
			best = sp
		}
	}
	return best
}

// prune keeps, per (order, buried-signature) bucket, only the cheapest plan.
// Plans with a non-empty buried set survive pruning they would otherwise
// lose (the unpruneable retention of §4.4); unpr counts them.
func (o *Optimizer) prune(cands []*subplan) (kept []*subplan, unpr int) {
	type key struct {
		order  query.ColRef
		buried uint64
	}
	bestBy := map[key]*subplan{}
	for _, sp := range cands {
		k := key{order: sp.order, buried: sp.buried}
		if cur, ok := bestBy[k]; !ok || sp.cost < cur.cost {
			bestBy[k] = sp
		}
	}
	// Count plans that survive only due to their buried signature.
	minCost := map[query.ColRef]float64{}
	for k, sp := range bestBy {
		if cur, ok := minCost[k.order]; !ok || sp.cost < cur {
			minCost[k.order] = sp.cost
		}
	}
	for k, sp := range bestBy {
		kept = append(kept, sp)
		if k.buried != 0 && sp.cost > minCost[k.order] {
			unpr++
		}
	}
	// Deterministic order (map iteration above is not): cost, then order
	// column, then buried signature — equal-cost ties always resolve the
	// same way, so plans are reproducible run to run.
	sort.Slice(kept, func(i, j int) bool {
		if !cost.ApproxEq(kept[i].cost, kept[j].cost) {
			return kept[i].cost < kept[j].cost
		}
		oi, oj := kept[i].order.String(), kept[j].order.String()
		if oi != oj {
			return oi < oj
		}
		return kept[i].buried < kept[j].buried
	})
	return kept, unpr
}

// accessPaths generates base subplans for table index i: a sequential scan
// and one index scan per matching cheap selection, each with the remaining
// selections layered per the configured algorithm (cheap first, expensive
// rank-ordered above — at base level every algorithm but Naive agrees).
func (o *Optimizer) accessPaths(q *query.Query, i int) ([]*subplan, error) {
	return o.accessPathsPlace(q, i, true)
}

// accessPathsPlace is accessPaths with control over whether the table's
// expensive selections are attached (the LDL and Exhaustive enumerators
// place them explicitly).
func (o *Optimizer) accessPathsPlace(q *query.Query, i int, withExpensive bool) ([]*subplan, error) {
	t := q.Tables[i]
	tab, err := o.cat.Table(t)
	if err != nil {
		return nil, err
	}
	cols := make([]query.ColRef, len(tab.Columns))
	for ci, c := range tab.Columns {
		cols[ci] = query.ColRef{Table: t, Col: c.Name}
	}
	sels := q.SelectionsOn(t)
	var cheap, exp []*query.Predicate
	for _, p := range sels {
		if p.IsExpensive() {
			if withExpensive {
				exp = append(exp, p)
			}
		} else {
			cheap = append(cheap, p)
		}
	}

	build := func(baseNode plan.Node, order query.ColRef, rest []*query.Predicate) (*subplan, error) {
		var preds []*query.Predicate
		if o.opts.Algorithm == NaivePushDown {
			preds = o.orderByRank(append(append([]*query.Predicate(nil), rest...), exp...), float64(tab.Card))
		} else {
			preds = append(preds, o.orderByRank(rest, float64(tab.Card))...)
			preds = append(preds, o.orderByRank(exp, float64(tab.Card))...)
		}
		root := chainFilters(baseNode, preds)
		if err := o.model.Annotate(root); err != nil {
			return nil, err
		}
		return &subplan{
			root:  root,
			base:  baseNode,
			chain: preds,
			set:   1 << uint(i),
			order: order,
			cost:  root.Cost(),
			card:  root.Card(),
		}, nil
	}

	var out []*subplan
	seq, err := build(&plan.SeqScan{Table: t, ColRefs: cols}, query.ColRef{}, cheap)
	if err != nil {
		return nil, err
	}
	out = append(out, seq)

	for _, p := range cheap {
		if p.Kind != query.KindSelCmp || !tab.HasIndex(p.Left.Col) || p.Value.Kind != expr.TInt {
			continue
		}
		is := &plan.IndexScan{Table: t, Col: p.Left.Col, Matched: p, ColRefs: cols}
		var order query.ColRef
		v := p.Value
		switch p.Op {
		case expr.OpEQ:
			is.Eq = &v
		case expr.OpLT, expr.OpLE:
			hi := v
			if p.Op == expr.OpLT {
				hi = expr.I(v.I - 1)
			}
			is.Hi = &hi
			order = p.Left
		case expr.OpGT, expr.OpGE:
			lo := v
			if p.Op == expr.OpGT {
				lo = expr.I(v.I + 1)
			}
			is.Lo = &lo
			order = p.Left
		default:
			continue
		}
		rest := make([]*query.Predicate, 0, len(cheap)-1)
		for _, c := range cheap {
			if c != p {
				rest = append(rest, c)
			}
		}
		sp, err := build(is, order, rest)
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	// Top-k order propagation: a full ascending index scan on the ORDER BY
	// key delivers rows in query order with no sort node. On its own it loses
	// to a SeqScan (a random fetch per tuple), but under an ordered Limit
	// only the first k survivors' fetches are ever paid — finalize prices
	// that when it wraps the retained roots.
	if spec := o.opts.TopK; spec != nil && !spec.Desc && spec.Key.Table == t && tab.HasIndex(spec.Key.Col) {
		is := &plan.IndexScan{Table: t, Col: spec.Key.Col, ColRefs: cols}
		sp, err := build(is, spec.Key, cheap)
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	return out, nil
}
