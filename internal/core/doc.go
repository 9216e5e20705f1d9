// Package core implements the two labeling algorithms that are the
// contribution of Jin & Wang, "Simple, Fast, and Scalable Reachability
// Oracle" (VLDB 2013):
//
//   - Distribution-Labeling (DL, §5): vertices are ranked by
//     (|Nout|+1)·(|Nin|+1); each hop is distributed in rank order to the
//     Lout/Lin sets of exactly the vertices whose coverage it extends,
//     via pruned reverse and forward BFS (Algorithm 2). The labeling is
//     complete (Theorem 3) and non-redundant (Theorem 4).
//
//   - Hierarchical-Labeling (HL, §4): a recursive one-side reachability
//     backbone decomposition assigns every vertex a level; the small core
//     graph is labeled directly, then labels broadcast downward level by
//     level using the ⌈ε/2⌉-neighborhoods and backbone vertex sets of
//     Formulas 4 and 5 (Algorithm 1).
//
// Both produce a hoplabel.Labeling: u reaches v iff Lout(u) ∩ Lin(v) ≠ ∅,
// answered by sorted-merge intersection. DL distributes hops in rank order
// but records each hop as its topological position, so a query's merge
// stops at the target's position (see DL). Construction never materializes a
// transitive closure — the property that makes these algorithms scale where
// classic set-cover 2-hop labeling does not.
package core
