//! Property-based tests of graph construction and compression on randomly
//! generated transaction histories: structural invariants, mass
//! conservation, and monotone shrinkage must hold for *any* input, and the
//! row-wise dense-accumulator Stage 3 must match the hash-map formulation
//! it replaced bit for bit.

use baclassifier::construction::{
    compress_multi_tx, compress_single_tx, extract_original_graphs, graphs_identical,
    MultiCompressParams, NodeKind, NodeTxs,
};
use btcsim::{Address, AddressRecord, Amount, Label, TxView, Txid};
use proptest::prelude::*;

/// Strategy: a random transaction history for focus address 0.
/// Counterparties are drawn from a small id pool so that both single- and
/// multi-transaction addresses occur.
fn history_strategy() -> impl Strategy<Value = AddressRecord> {
    let tx = (
        proptest::collection::vec((1u64..40, 1u64..1_000_000), 0..6), // other inputs
        proptest::collection::vec((1u64..40, 1u64..1_000_000), 1..8), // outputs
        any::<bool>(),                                                // focus side
    );
    proptest::collection::vec(tx, 1..30).prop_map(|txs| {
        let views = txs
            .into_iter()
            .enumerate()
            .map(|(i, (mut ins, mut outs, focus_in))| {
                // The focus participates in every tx of its own history.
                if focus_in {
                    ins.push((0, 500_000));
                } else {
                    outs.push((0, 400_000));
                }
                TxView {
                    txid: Txid(i as u64),
                    timestamp: i as u64 * 600,
                    inputs: ins
                        .into_iter()
                        .map(|(a, v)| (Address(a), Amount::from_sats(v)))
                        .collect(),
                    outputs: outs
                        .into_iter()
                        .map(|(a, v)| (Address(a), Amount::from_sats(v)))
                        .collect(),
                }
            })
            .collect();
        AddressRecord {
            address: Address(0),
            label: Label::Service,
            txs: views,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invariants_hold_through_both_compressions(record in history_strategy()) {
        for g in extract_original_graphs(&record, 10) {
            prop_assert_eq!(g.check_invariants(), Ok(()));
            let s2 = compress_single_tx(&g);
            prop_assert_eq!(s2.check_invariants(), Ok(()));
            let s3 = compress_multi_tx(&s2, MultiCompressParams::default());
            prop_assert_eq!(s3.check_invariants(), Ok(()));
        }
    }

    #[test]
    fn compression_never_increases_node_count(record in history_strategy()) {
        for g in extract_original_graphs(&record, 10) {
            let s2 = compress_single_tx(&g);
            prop_assert!(s2.num_nodes() <= g.num_nodes());
            let s3 = compress_multi_tx(&s2, MultiCompressParams::default());
            prop_assert!(s3.num_nodes() <= s2.num_nodes());
            // Transaction nodes and the focus are never removed.
            prop_assert_eq!(
                s3.count_kind(NodeKind::Transaction),
                g.count_kind(NodeKind::Transaction)
            );
            prop_assert_eq!(s3.count_kind(NodeKind::Focus), 1);
        }
    }

    #[test]
    fn address_mass_and_value_are_conserved(record in history_strategy()) {
        for g in extract_original_graphs(&record, 10) {
            let s3 = compress_multi_tx(
                &compress_single_tx(&g),
                MultiCompressParams::default(),
            );
            let mass_before =
                g.nodes.iter().filter(|n| n.is_address_like()).count();
            let mass_after: usize = s3
                .nodes
                .iter()
                .filter(|n| n.is_address_like())
                .map(|n| n.merged_count)
                .sum();
            prop_assert_eq!(mass_before, mass_after);
            let value_before: f64 = g.edges.iter().map(|e| e.value).sum();
            let value_after: f64 = s3.edges.iter().map(|e| e.value).sum();
            prop_assert!((value_before - value_after).abs() < 1e-9 * (1.0 + value_before));
        }
    }

    #[test]
    fn sfe_count_matches_merged_edge_count(record in history_strategy()) {
        for g in extract_original_graphs(&record, 10) {
            let s3 = compress_multi_tx(
                &compress_single_tx(&g),
                MultiCompressParams::default(),
            );
            for n in &s3.nodes {
                if matches!(n.kind, NodeKind::SingleHyper | NodeKind::MultiHyper) {
                    prop_assert_eq!(n.sfe.count() as usize, n.values.len());
                    prop_assert!(n.merged_count >= 2, "hyper node of fewer than 2");
                }
            }
        }
    }

    #[test]
    fn slicing_partitions_the_history(record in history_strategy(), slice in 1usize..12) {
        let graphs = extract_original_graphs(&record, slice);
        let total: usize = graphs.iter().map(|g| g.num_txs).sum();
        prop_assert_eq!(total, record.txs.len());
        prop_assert_eq!(graphs.len(), record.txs.len().div_ceil(slice));
        for w in graphs.windows(2) {
            prop_assert!(w[0].start_timestamp <= w[1].start_timestamp);
        }
    }
}

/// The hash-map Stages 2 and 3 that the flat per-node transaction lists and
/// the dense-accumulator S = AAᵀ replaced, kept verbatim as a test oracle.
mod oracle {
    use baclassifier::construction::{
        sfe, AddressGraph, Edge, MultiCompressParams, Node, NodeKind, Side,
    };
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    /// Distinct transaction nodes each address-like node touches.
    pub fn tx_sets(g: &AddressGraph) -> HashMap<usize, BTreeSet<usize>> {
        let mut sets: HashMap<usize, BTreeSet<usize>> = HashMap::new();
        for e in &g.edges {
            sets.entry(e.addr_node).or_default().insert(e.tx_node);
        }
        sets
    }

    fn rebuild_with_merges(
        g: &AddressGraph,
        groups: &[Vec<usize>],
        hyper_kind: NodeKind,
    ) -> AddressGraph {
        let mut group_of: HashMap<usize, usize> = HashMap::new();
        for (gi, group) in groups.iter().enumerate() {
            for &n in group {
                group_of.insert(n, gi);
            }
        }
        let mut new_index: Vec<Option<usize>> = vec![None; g.nodes.len()];
        let mut nodes: Vec<Node> = Vec::with_capacity(g.nodes.len());
        for (i, n) in g.nodes.iter().enumerate() {
            if !group_of.contains_key(&i) {
                new_index[i] = Some(nodes.len());
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
        let mut edges: Vec<Edge> = Vec::with_capacity(g.edges.len());
        let mut hyper_edges: BTreeMap<(usize, usize, bool), f64> = BTreeMap::new();
        let mut hyper_values: Vec<Vec<f64>> = vec![Vec::new(); groups.len()];
        for e in &g.edges {
            let tx = new_index[e.tx_node].expect("tx nodes are never merged");
            match group_of.get(&e.addr_node) {
                None => {
                    let a = new_index[e.addr_node].expect("kept node");
                    edges.push(Edge {
                        addr_node: a,
                        tx_node: tx,
                        value: e.value,
                        side: e.side,
                    });
                }
                Some(&gi) => {
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
        for (gi, vals) in hyper_values.into_iter().enumerate() {
            let idx = hyper_index[gi];
            nodes[idx].sfe = sfe(&vals);
            nodes[idx].values = vals;
        }
        AddressGraph {
            focus: g.focus,
            slice_index: g.slice_index,
            start_timestamp: g.start_timestamp,
            num_txs: g.num_txs,
            nodes,
            edges,
        }
    }

    pub fn compress_single_tx(g: &AddressGraph) -> AddressGraph {
        let sets = tx_sets(g);
        let mut side_of: HashMap<usize, Side> = HashMap::new();
        for e in &g.edges {
            side_of.entry(e.addr_node).or_insert(e.side);
        }
        let mut groups: BTreeMap<(usize, bool), Vec<usize>> = BTreeMap::new();
        for (i, n) in g.nodes.iter().enumerate() {
            if i == 0 || n.kind != NodeKind::Address {
                continue;
            }
            let Some(txs) = sets.get(&i) else { continue };
            if txs.len() == 1 {
                let tx = *txs.iter().next().expect("non-empty");
                let side = side_of.get(&i).copied().unwrap_or(Side::Output);
                groups.entry((tx, side == Side::Input)).or_default().push(i);
            }
        }
        let merge_groups: Vec<Vec<usize>> = groups.into_values().filter(|g| g.len() >= 2).collect();
        rebuild_with_merges(g, &merge_groups, NodeKind::SingleHyper)
    }

    pub fn compress_multi_tx(g: &AddressGraph, params: MultiCompressParams) -> AddressGraph {
        let sets = tx_sets(g);
        let multi: Vec<usize> = g
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, n)| {
                i != 0 && n.kind == NodeKind::Address && sets.get(&i).is_some_and(|s| s.len() >= 2)
            })
            .map(|(i, _)| i)
            .collect();
        if multi.len() < 2 {
            return g.clone();
        }
        let pos: HashMap<usize, usize> = multi.iter().enumerate().map(|(p, &n)| (n, p)).collect();
        let mut per_tx: HashMap<usize, Vec<usize>> = HashMap::new();
        for &n in &multi {
            for &tx in &sets[&n] {
                per_tx.entry(tx).or_default().push(pos[&n]);
            }
        }
        let n = multi.len();
        let mut s: Vec<HashMap<usize, f64>> = vec![HashMap::new(); n];
        for members in per_tx.values() {
            for (a_i, &a) in members.iter().enumerate() {
                for &b in &members[a_i + 1..] {
                    *s[a].entry(b).or_insert(0.0) += 1.0;
                    *s[b].entry(a).or_insert(0.0) += 1.0;
                }
            }
        }
        let diag: Vec<f64> = multi.iter().map(|&node| sets[&node].len() as f64).collect();
        let neighbourhoods: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut q: Vec<usize> = s[i]
                    .iter()
                    .filter(|&(&j, &sij)| sij / diag[j] > params.psi)
                    .map(|(&j, _)| j)
                    .collect();
                q.sort_unstable();
                q
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(neighbourhoods[i].len()), i));
        let mut merged = vec![false; n];
        let mut merge_groups: Vec<Vec<usize>> = Vec::new();
        for &i in &order {
            if merged[i] || neighbourhoods[i].len() <= params.sigma {
                continue;
            }
            let mut group = vec![multi[i]];
            merged[i] = true;
            for &j in &neighbourhoods[i] {
                if !merged[j] {
                    merged[j] = true;
                    group.push(multi[j]);
                }
            }
            if group.len() >= 2 {
                group.sort_unstable();
                merge_groups.push(group);
            }
        }
        let merge_groups: Vec<Vec<usize>> =
            merge_groups.into_iter().filter(|g| g.len() >= 2).collect();
        rebuild_with_merges(g, &merge_groups, NodeKind::MultiHyper)
    }
}

/// Strategy: histories built to stress Stage 3. Counterparties come from a
/// small pool (repeats across txs); some inputs reappear as outputs of the
/// same tx (both sides of one tx); and a shared cohort of up to 60
/// addresses is paid by a random subset of the txs.
fn oracle_history_strategy() -> impl Strategy<Value = AddressRecord> {
    let tx = (
        proptest::collection::vec((1u64..25, 1u64..1_000_000), 0..5), // other inputs
        proptest::collection::vec((1u64..25, 1u64..1_000_000), 1..6), // outputs
        any::<bool>(),                                                // focus side
        0usize..3,                                                    // inputs also paid
        any::<bool>(),                                                // pays the cohort
    );
    (0u64..60, proptest::collection::vec(tx, 1..40)).prop_map(|(cohort, txs)| {
        let views = txs
            .into_iter()
            .enumerate()
            .map(|(i, (mut ins, mut outs, focus_in, both, pays_cohort))| {
                let again: Vec<(u64, u64)> = ins
                    .iter()
                    .take(both)
                    .map(|&(a, v)| (a, v / 2 + 1))
                    .collect();
                outs.extend(again);
                if pays_cohort {
                    outs.extend((1_000..1_000 + cohort).map(|a| (a, 10_000 + a)));
                }
                if focus_in {
                    ins.push((0, 500_000));
                } else {
                    outs.push((0, 400_000));
                }
                TxView {
                    txid: Txid(i as u64),
                    timestamp: i as u64 * 600,
                    inputs: ins
                        .into_iter()
                        .map(|(a, v)| (Address(a), Amount::from_sats(v)))
                        .collect(),
                    outputs: outs
                        .into_iter()
                        .map(|(a, v)| (Address(a), Amount::from_sats(v)))
                        .collect(),
                }
            })
            .collect();
        AddressRecord {
            address: Address(0),
            label: Label::Service,
            txs: views,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn stages_2_and_3_match_the_hash_map_oracle_bitwise(
        record in oracle_history_strategy(),
        slice in 3usize..41,
    ) {
        for g in extract_original_graphs(&record, slice) {
            let s2 = compress_single_tx(&g);
            let old_s2 = oracle::compress_single_tx(&g);
            prop_assert_eq!(
                graphs_identical(std::slice::from_ref(&s2), &[old_s2]),
                Ok(())
            );
            for psi in [0.0, 0.5, 0.99] {
                for sigma in [0, 1, 3] {
                    let params = MultiCompressParams { psi, sigma };
                    // Stage 3 on raw graphs (tx-ordered edges) and on Stage 2
                    // output (hyper edges appended out of tx order).
                    for input in [&g, &s2] {
                        let new = compress_multi_tx(input, params);
                        let old = oracle::compress_multi_tx(input, params);
                        prop_assert_eq!(graphs_identical(&[new], &[old]), Ok(()));
                    }
                }
            }
        }
    }

    #[test]
    fn node_tx_lists_equal_the_oracle_sets(
        record in oracle_history_strategy(),
        slice in 3usize..41,
    ) {
        for g in extract_original_graphs(&record, slice) {
            let s2 = compress_single_tx(&g);
            let s3 = compress_multi_tx(&s2, MultiCompressParams { psi: 0.5, sigma: 0 });
            for graph in [&g, &s2, &s3] {
                let lists = NodeTxs::of(graph);
                let sets = oracle::tx_sets(graph);
                for n in 0..graph.num_nodes() {
                    let want: Vec<usize> =
                        sets.get(&n).map(|s| s.iter().copied().collect()).unwrap_or_default();
                    prop_assert_eq!(lists.get(n), &want[..]);
                }
            }
        }
    }
}
