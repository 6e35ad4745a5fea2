//! Stages 2 and 3 — graph node compression (paper §III-A2):
//! single-transaction address compression (Fig. 3) merges the one-shot
//! counterparties of each transaction into per-side hyper nodes;
//! multi-transaction address compression (Fig. 4) merges recurring
//! counterparties with similar connectivity via the similarity framework
//! S = AAᵀ, M = SD⁻¹, Q = ReLU(M − Ψ·I) (Eq. 3–7).

use crate::construction::address_graph::{AddressGraph, Edge, Node, NodeKind, Side};
use crate::construction::sfe::sfe;
use std::collections::BTreeMap;

/// Marks "no entry" in the dense node-indexed lookups below.
const NONE: usize = usize::MAX;

/// The distinct transaction nodes each node touches, in CSR form: node
/// `n`'s transactions are `tx[start[n]..start[n + 1]]`, ascending. Nodes
/// without edges (transaction nodes among them) get an empty list.
#[derive(Clone, Debug)]
pub struct NodeTxs {
    start: Vec<usize>,
    tx: Vec<usize>,
}

impl NodeTxs {
    /// Collect every node's distinct transactions from the graph's edges.
    pub fn of(g: &AddressGraph) -> Self {
        let n = g.nodes.len();
        let (mut start, mut tx) = bucket(n, g.edges.iter().map(|e| (e.addr_node, e.tx_node)));
        // Edge order is not relied upon (compressed graphs append hyper
        // edges after the kept ones): sort and dedup each row, compacting
        // in place. The write cursor never passes the row being read.
        let mut w = 0;
        for i in 0..n {
            let (s, e) = (start[i], start[i + 1]);
            start[i] = w;
            tx[s..e].sort_unstable();
            for k in s..e {
                if k == s || tx[k] != tx[k - 1] {
                    tx[w] = tx[k];
                    w += 1;
                }
            }
        }
        start[n] = w;
        tx.truncate(w);
        Self { start, tx }
    }

    /// Distinct transaction nodes of node `n`, ascending.
    pub fn get(&self, n: usize) -> &[usize] {
        &self.tx[self.start[n]..self.start[n + 1]]
    }
}

/// Bucket `(row, item)` pairs by row, keeping their order within a row, in
/// CSR form: row r's items are `items[start[r]..start[r + 1]]`.
fn bucket(
    rows: usize,
    pairs: impl Iterator<Item = (usize, usize)> + Clone,
) -> (Vec<usize>, Vec<usize>) {
    let mut start = vec![0usize; rows + 1];
    for (r, _) in pairs.clone() {
        start[r + 1] += 1;
    }
    for r in 0..rows {
        start[r + 1] += start[r];
    }
    let mut next = start.clone();
    let mut items = vec![0usize; start[rows]];
    for (r, item) in pairs {
        items[next[r]] = item;
        next[r] += 1;
    }
    (start, items)
}

/// Merge the given groups of address nodes into hyper nodes of `hyper_kind`,
/// rebuilding indices and collapsing the merged nodes' parallel edges.
fn rebuild_with_merges(
    g: &AddressGraph,
    groups: &[Vec<usize>],
    hyper_kind: NodeKind,
) -> AddressGraph {
    let mut group_of = vec![NONE; g.nodes.len()];
    for (gi, group) in groups.iter().enumerate() {
        for &n in group {
            debug_assert!(
                g.nodes[n].is_address_like() && n != 0,
                "cannot merge focus/tx nodes"
            );
            debug_assert_eq!(group_of[n], NONE, "node in two merge groups");
            group_of[n] = gi;
        }
    }

    // Kept nodes keep their relative order; hyper nodes are appended.
    let mut new_index = vec![NONE; g.nodes.len()];
    let mut nodes: Vec<Node> = Vec::with_capacity(g.nodes.len());
    for (i, n) in g.nodes.iter().enumerate() {
        if group_of[i] == NONE {
            new_index[i] = nodes.len();
            nodes.push(n.clone());
        }
    }
    let mut hyper_index = Vec::with_capacity(groups.len());
    for group in groups {
        let mut hyper = Node::new(hyper_kind, g.nodes[group[0]].address);
        hyper.merged_count = group.iter().map(|&n| g.nodes[n].merged_count).sum();
        hyper_index.push(nodes.len());
        nodes.push(hyper);
    }

    // Remap edges; collapse parallel (hyper, tx, side) edges by summing.
    let mut edges: Vec<Edge> = Vec::with_capacity(g.edges.len());
    let mut hyper_edges: BTreeMap<(usize, usize, bool), f64> = BTreeMap::new();
    let mut hyper_values: Vec<Vec<f64>> = vec![Vec::new(); groups.len()];
    for e in &g.edges {
        let tx = new_index[e.tx_node];
        debug_assert_ne!(tx, NONE, "tx nodes are never merged");
        match group_of[e.addr_node] {
            NONE => edges.push(Edge {
                addr_node: new_index[e.addr_node],
                tx_node: tx,
                value: e.value,
                side: e.side,
            }),
            gi => {
                let key = (hyper_index[gi], tx, e.side == Side::Input);
                *hyper_edges.entry(key).or_insert(0.0) += e.value;
                hyper_values[gi].push(e.value);
            }
        }
    }
    for ((addr_node, tx_node, is_input), value) in hyper_edges {
        edges.push(Edge {
            addr_node,
            tx_node,
            value,
            side: if is_input { Side::Input } else { Side::Output },
        });
    }

    // Refresh values/SFE on hyper nodes (paper Eq. 2 / Eq. 7: SFE over the
    // merged addresses' transfer values).
    for (gi, vals) in hyper_values.into_iter().enumerate() {
        let idx = hyper_index[gi];
        nodes[idx].sfe = sfe(&vals);
        nodes[idx].values = vals;
    }

    let out = AddressGraph {
        focus: g.focus,
        slice_index: g.slice_index,
        start_timestamp: g.start_timestamp,
        num_txs: g.num_txs,
        nodes,
        edges,
    };
    debug_assert_eq!(out.check_invariants(), Ok(()));
    out
}

/// Stage 2 — single-transaction address compression.
///
/// For every transaction, the counterparty addresses that appear in exactly
/// one transaction of the slice are merged into at most two hyper nodes: one
/// for the input side, one for the output side (paper Fig. 3). The focus
/// address is never merged. Groups of one are left unmerged (nothing to
/// compress).
pub fn compress_single_tx(g: &AddressGraph) -> AddressGraph {
    let txs = NodeTxs::of(g);
    // Side of each node = side of its first edge (a node with edges on both
    // sides of one tx joins the input-side group).
    let mut side_of: Vec<Option<Side>> = vec![None; g.nodes.len()];
    for e in &g.edges {
        side_of[e.addr_node].get_or_insert(e.side);
    }
    let mut groups: BTreeMap<(usize, bool), Vec<usize>> = BTreeMap::new();
    for (i, n) in g.nodes.iter().enumerate().skip(1) {
        if n.kind != NodeKind::Address {
            continue;
        }
        if let &[tx] = txs.get(i) {
            let is_input = side_of[i] == Some(Side::Input);
            groups.entry((tx, is_input)).or_default().push(i);
        }
    }
    let merge_groups: Vec<Vec<usize>> = groups.into_values().filter(|g| g.len() >= 2).collect();
    rebuild_with_merges(g, &merge_groups, NodeKind::SingleHyper)
}

/// Parameters of Stage 3 (paper Eq. 5–6).
#[derive(Clone, Copy, Debug)]
pub struct MultiCompressParams {
    /// Similarity threshold Ψ: addresses with normalised co-occurrence above
    /// this are merge candidates.
    pub psi: f64,
    /// Retention threshold σ: a node must have more than this many similar
    /// neighbours to seed a hyper node.
    pub sigma: usize,
}

impl Default for MultiCompressParams {
    fn default() -> Self {
        Self { psi: 0.5, sigma: 1 }
    }
}

/// Stage 3 — multi-transaction address compression.
///
/// Over the counterparty addresses appearing in ≥ 2 transactions of the
/// slice, computes the co-occurrence matrix S = AAᵀ, column-normalises
/// M = SD⁻¹ (D = diag(S)), thresholds Q = ReLU(M − Ψ), and greedily merges
/// each high-similarity neighbourhood into a multi-transaction hyper node
/// (paper Fig. 4, Eq. 3–7). This is the dominant construction cost the
/// paper reports (Table V, Stage 3 ≈ 62%).
///
/// S is built one row at a time (Gustavson's sparse AAᵀ): row i walks the
/// transactions of candidate i and, for each, that transaction's candidate
/// members, adding `u32` co-occurrence counts into one dense accumulator
/// whose touched entries are thresholded and then reset. S is symmetric, so
/// the sizing pass accumulates only the upper triangle and credits both
/// m_ij and m_ji; a seed's full row is re-accumulated when the greedy merge
/// needs its neighbourhood. Every s_ij and s_jj is a small integer, so
/// `s_ij / s_jj` is exactly the f64 a floating-point accumulation in any
/// order would give: the neighbourhoods, and hence the output, do not
/// depend on the summation order.
pub fn compress_multi_tx(g: &AddressGraph, params: MultiCompressParams) -> AddressGraph {
    let txs = NodeTxs::of(g);
    // Candidate nodes: plain multi-transaction counterparties.
    let multi: Vec<usize> = (1..g.nodes.len())
        .filter(|&i| g.nodes[i].kind == NodeKind::Address && txs.get(i).len() >= 2)
        .collect();
    if multi.len() < 2 {
        return g.clone();
    }
    let n = multi.len();

    // Each transaction's candidate members (positions in `multi`,
    // ascending): tx's members are `members[start[tx]..start[tx + 1]]`.
    let incidences = multi
        .iter()
        .enumerate()
        .flat_map(|(p, &node)| txs.get(node).iter().map(move |&tx| (tx, p)));
    let (start, members) = bucket(g.nodes.len(), incidences);
    let diag: Vec<u32> = multi
        .iter()
        .map(|&node| txs.get(node).len() as u32)
        .collect();

    // q_i = { j ≠ i : m_ij > Ψ }, with M = S·D⁻¹ (m_ij = s_ij / s_jj). The
    // paper's worked example divides by the *other* node's degree, matching
    // this column normalisation. Only |q_i| is kept here.
    let similar = |s_ij: u32, s_jj: u32| f64::from(s_ij) / f64::from(s_jj) > params.psi;
    let mut count = vec![0u32; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut degree = vec![0usize; n];
    for (i, &node) in multi.iter().enumerate() {
        for &tx in txs.get(node) {
            let row = &members[start[tx]..start[tx + 1]];
            let after_i = row.partition_point(|&j| j <= i);
            accumulate(&row[after_i..], &mut count, &mut touched);
        }
        for j in touched.drain(..) {
            degree[i] += usize::from(similar(count[j], diag[j]));
            degree[j] += usize::from(similar(count[j], diag[i]));
            count[j] = 0;
        }
    }

    // Greedy merge: highest-degree-of-similarity seeds first (deterministic
    // tie-break on index). A seed's group is sorted, so the order in which
    // its re-accumulated row enumerates q_i does not matter.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(degree[i]), i));
    let mut merged = vec![false; n];
    let mut merge_groups: Vec<Vec<usize>> = Vec::new();
    for &i in &order {
        if merged[i] || degree[i] <= params.sigma {
            continue;
        }
        for &tx in txs.get(multi[i]) {
            accumulate(&members[start[tx]..start[tx + 1]], &mut count, &mut touched);
        }
        let mut group = vec![multi[i]];
        merged[i] = true;
        for j in touched.drain(..) {
            if !merged[j] && similar(count[j], diag[j]) {
                merged[j] = true;
                group.push(multi[j]);
            }
            count[j] = 0;
        }
        // A seed whose neighbours were all taken stays merged-alone: it
        // keeps its identity.
        if group.len() >= 2 {
            group.sort_unstable();
            merge_groups.push(group);
        }
    }
    rebuild_with_merges(g, &merge_groups, NodeKind::MultiHyper)
}

/// One transaction's contribution to a row of S: add a co-occurrence to
/// `count[j]` for every member j, recording first touches for the reset.
fn accumulate(members: &[usize], count: &mut [u32], touched: &mut Vec<usize>) {
    for &j in members {
        if count[j] == 0 {
            touched.push(j);
        }
        count[j] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::extract::extract_original_graphs;
    use btcsim::{Address, AddressRecord, Amount, Label, TxView, Txid};

    fn view(ts: u64, inputs: &[(u64, f64)], outputs: &[(u64, f64)]) -> TxView {
        TxView {
            txid: Txid(ts * 131 + outputs.len() as u64),
            timestamp: ts,
            inputs: inputs
                .iter()
                .map(|&(a, v)| (Address(a), Amount::from_btc(v)))
                .collect(),
            outputs: outputs
                .iter()
                .map(|&(a, v)| (Address(a), Amount::from_btc(v)))
                .collect(),
        }
    }

    fn graph_of(txs: Vec<TxView>) -> AddressGraph {
        let record = AddressRecord {
            address: Address(0),
            label: Label::Mining,
            txs,
        };
        extract_original_graphs(&record, 100).remove(0)
    }

    #[test]
    fn single_compression_merges_one_shot_outputs() {
        // Focus pays 5 distinct one-shot addresses in one tx.
        let g = graph_of(vec![view(
            0,
            &[(0, 5.0)],
            &[(10, 1.0), (11, 1.0), (12, 1.0), (13, 1.0), (14, 1.0)],
        )]);
        let c = compress_single_tx(&g);
        assert_eq!(c.check_invariants(), Ok(()));
        // focus + tx + 1 output-side hyper
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.count_kind(NodeKind::SingleHyper), 1);
        let hyper = c
            .nodes
            .iter()
            .find(|n| n.kind == NodeKind::SingleHyper)
            .unwrap();
        assert_eq!(hyper.merged_count, 5);
        assert_eq!(hyper.sfe.count(), 5.0);
        assert!((hyper.sfe.sum() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn single_compression_keeps_sides_separate() {
        // 3 one-shot funders and 3 one-shot receivers -> 2 hyper nodes.
        let g = graph_of(vec![view(
            0,
            &[(0, 1.0), (20, 1.0), (21, 1.0), (22, 1.0)],
            &[(30, 1.2), (31, 1.2), (32, 1.2)],
        )]);
        let c = compress_single_tx(&g);
        assert_eq!(c.count_kind(NodeKind::SingleHyper), 2);
        // A transaction links to at most two single-hyper nodes (paper).
        let tx = c
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::Transaction)
            .unwrap();
        let hyper_links = c
            .edges
            .iter()
            .filter(|e| e.tx_node == tx && c.nodes[e.addr_node].kind == NodeKind::SingleHyper)
            .count();
        assert_eq!(hyper_links, 2);
    }

    #[test]
    fn focus_is_never_merged() {
        let g = graph_of(vec![view(0, &[(0, 1.0)], &[(10, 0.5), (11, 0.5)])]);
        let c = compress_single_tx(&g);
        assert_eq!(c.nodes[0].kind, NodeKind::Focus);
        assert_eq!(c.nodes[0].address, Some(Address(0)));
    }

    #[test]
    fn multi_tx_addresses_survive_single_compression() {
        // Address 9 appears in both txs: not single-tx, stays plain.
        let g = graph_of(vec![
            view(0, &[(0, 1.0)], &[(9, 0.5), (10, 0.5)]),
            view(1, &[(0, 1.0)], &[(9, 0.5), (11, 0.5)]),
        ]);
        let c = compress_single_tx(&g);
        assert!(c
            .nodes
            .iter()
            .any(|n| n.address == Some(Address(9)) && n.kind == NodeKind::Address));
        // 10 and 11 are lone single-tx addresses per (tx, side): groups of
        // one are not merged.
        assert_eq!(c.count_kind(NodeKind::SingleHyper), 0);
    }

    #[test]
    fn multi_compression_merges_cohort() {
        // Mining-pool pattern: addresses 50..55 all appear in all 3 payouts.
        let cohort: Vec<(u64, f64)> = (50..56).map(|a| (a, 0.3)).collect();
        let g = graph_of(vec![
            view(0, &[(0, 3.0)], &cohort),
            view(1, &[(0, 3.0)], &cohort),
            view(2, &[(0, 3.0)], &cohort),
        ]);
        let c = compress_multi_tx(&g, MultiCompressParams::default());
        assert_eq!(c.check_invariants(), Ok(()));
        assert_eq!(c.count_kind(NodeKind::MultiHyper), 1);
        let hyper = c
            .nodes
            .iter()
            .find(|n| n.kind == NodeKind::MultiHyper)
            .unwrap();
        assert_eq!(hyper.merged_count, 6);
        // 6 addresses x 3 txs = 18 original edges summarised.
        assert_eq!(hyper.sfe.count(), 18.0);
        // Hyper has one collapsed edge per transaction.
        let hyper_idx = c
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::MultiHyper)
            .unwrap();
        assert_eq!(
            c.edges.iter().filter(|e| e.addr_node == hyper_idx).count(),
            3
        );
    }

    #[test]
    fn dissimilar_multi_addresses_stay_separate() {
        // 60 appears in txs {0,1}; 61 in txs {2,3}: no co-occurrence.
        let g = graph_of(vec![
            view(0, &[(0, 1.0)], &[(60, 0.9)]),
            view(1, &[(0, 1.0)], &[(60, 0.9)]),
            view(2, &[(0, 1.0)], &[(61, 0.9)]),
            view(3, &[(0, 1.0)], &[(61, 0.9)]),
        ]);
        let c = compress_multi_tx(&g, MultiCompressParams::default());
        assert_eq!(c.count_kind(NodeKind::MultiHyper), 0);
        assert!(c.nodes.iter().any(|n| n.address == Some(Address(60))));
        assert!(c.nodes.iter().any(|n| n.address == Some(Address(61))));
    }

    #[test]
    fn sigma_gates_merging() {
        // Two addresses co-occur perfectly; with sigma=1 a seed needs >1
        // similar neighbours, so nothing merges; sigma=0 merges the pair.
        let pair: Vec<(u64, f64)> = vec![(70, 0.4), (71, 0.4)];
        let g = graph_of(vec![
            view(0, &[(0, 1.0)], &pair),
            view(1, &[(0, 1.0)], &pair),
        ]);
        let strict = compress_multi_tx(&g, MultiCompressParams { psi: 0.5, sigma: 1 });
        assert_eq!(strict.count_kind(NodeKind::MultiHyper), 0);
        let loose = compress_multi_tx(&g, MultiCompressParams { psi: 0.5, sigma: 0 });
        assert_eq!(loose.count_kind(NodeKind::MultiHyper), 1);
    }

    #[test]
    fn compression_pipeline_shrinks_fanout_graphs() {
        // 3 payouts to an 80-address cohort + per-tx one-shot change.
        let cohort: Vec<(u64, f64)> = (100..180).map(|a| (a, 0.1)).collect();
        let mut txs = Vec::new();
        for t in 0..3u64 {
            let mut outs = cohort.clone();
            outs.push((500 + t, 0.05)); // one-shot change address
            txs.push(view(t, &[(0, 9.0)], &outs));
        }
        let g = graph_of(txs);
        let before = g.num_nodes();
        let c2 = compress_single_tx(&g);
        let c3 = compress_multi_tx(&c2, MultiCompressParams::default());
        assert!(
            c3.num_nodes() * 10 <= before,
            "{} -> {}",
            before,
            c3.num_nodes()
        );
        // focus + 3 txs + 1 multi-hyper (cohort) + up to 3 singles kept
        assert_eq!(c3.count_kind(NodeKind::MultiHyper), 1);
    }

    #[test]
    fn compression_is_deterministic() {
        let cohort: Vec<(u64, f64)> = (100..140).map(|a| (a, 0.1)).collect();
        let txs: Vec<TxView> = (0..4).map(|t| view(t, &[(0, 5.0)], &cohort)).collect();
        let g = graph_of(txs);
        let a = compress_multi_tx(&compress_single_tx(&g), MultiCompressParams::default());
        let b = compress_multi_tx(&compress_single_tx(&g), MultiCompressParams::default());
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.edges.len(), b.edges.len());
        for (x, y) in a.edges.iter().zip(&b.edges) {
            assert_eq!(x, y);
        }
    }
}
