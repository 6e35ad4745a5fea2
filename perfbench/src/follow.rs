//! The follow phase: one `Follower` drains the pre-generated chain in a
//! closed loop at the `bstream-follow` defaults (reclassify every block,
//! reclass threads = all cores, micro-batches of 128). The chain is
//! followed in segments that the run interleaves with its other phases;
//! only time inside [`Follow::advance`] counts.
//!
//! Traced, each block's `ingest_block` and `reclassify_dirty` run under
//! their own spans, and the tick is then replayed stage by stage on a
//! mirror of the follower's state: Stage 1 is the mirror's
//! `IncrementalGraphs::apply_tx`, Stages 2–4 run on the stale raw slices,
//! then `embed_graphs` and `classify_embeddings_batch`. The replay must
//! reproduce the follower's embeddings and labels bit for bit.

use crate::trace::{SpanId, Tracer};
use baclassifier::config::resolve_threads;
use baclassifier::construction::{
    augment_with_centralities, compress_multi_tx, compress_single_tx, construct_address_graphs,
    graphs_identical, AddressGraph, IncrementalGraphs, MultiCompressParams,
};
use baclassifier::ConstructionConfig;
use bstream::{Follower, FollowerConfig};
use btcsim::{Address, AddressRecord, Block, TxView};
use numnet::Matrix;
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

pub fn follower_config() -> FollowerConfig {
    FollowerConfig {
        reclass_threads: 0,
        ..FollowerConfig::default()
    }
}

/// Work counts of a traced follow; span times come from the tracer.
#[derive(Default)]
pub struct FollowLayers {
    pub reclass_addrs: u64,
    pub reclass_slices: u64,
    pub tx_applications: u64,
    pub raw_nodes: u64,
    pub derived_nodes: u64,
    pub gfn_graphs: u64,
    pub head_seqs: u64,
    pub head_steps: u64,
}

/// The mirror's copy of one address: raw slices plus the embeddings the
/// follower should hold for them.
struct Mirror {
    inc: IncrementalGraphs,
    txs: usize,
    clean: usize,
    embeds: Vec<Matrix>,
    dirty: bool,
}

pub struct Follow {
    follower: Follower,
    /// Kept only when traced.
    mirror: Option<BTreeMap<Address, Mirror>>,
    pub layers: FollowLayers,
    /// Per block: from handing it to the follower until every address it
    /// touched carries a current label.
    pub label_latency_ms: Vec<f64>,
    pub wall: Duration,
    pub blocks: usize,
}

impl Follow {
    pub fn new(follower: Follower, traced: bool) -> Self {
        Follow {
            follower,
            mirror: traced.then(BTreeMap::new),
            layers: FollowLayers::default(),
            label_latency_ms: Vec::new(),
            wall: Duration::ZERO,
            blocks: 0,
        }
    }

    pub fn follower(&self) -> &Follower {
        &self.follower
    }

    /// Follow the next blocks: one `step` each untraced; traced, the
    /// follower's two calls under spans plus the replay.
    pub fn advance(&mut self, blocks: &[Block], tracer: &mut Tracer) -> Result<(), String> {
        let start = Instant::now();
        if self.mirror.is_none() {
            for block in blocks {
                let t = Instant::now();
                self.follower.step(block);
                self.label_latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        } else {
            let phase = tracer.begin("follow", None, None);
            for block in blocks {
                let blk = tracer.begin("follow.block", Some(phase), Some(block.height));
                let t = Instant::now();
                let s = tracer.begin("stream.ingest", Some(blk), Some(block.height));
                self.follower.ingest_block(block);
                tracer.end(s);
                let s = tracer.begin("stream.reclass", Some(blk), Some(block.height));
                let reclassified = self.follower.reclassify_dirty();
                tracer.end(s);
                self.label_latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let replay = tracer.begin("replay", Some(blk), Some(block.height));
                self.replay_tick(block, reclassified, tracer, replay)?;
                tracer.end(replay);
                tracer.end(blk);
            }
            tracer.end(phase);
        }
        self.wall += start.elapsed();
        self.blocks += blocks.len();
        Ok(())
    }

    /// The follower must have re-embedded exactly what the replay did.
    pub fn check_replay_counts(&self) -> Result<(), String> {
        let m = self.follower.metrics();
        let l = &self.layers;
        if m.reclass_batch_addrs != l.reclass_addrs || m.reclass_batch_slices != l.reclass_slices {
            return Err(format!(
                "follower re-embedded {} addresses / {} slices, replay {} / {}",
                m.reclass_batch_addrs, m.reclass_batch_slices, l.reclass_addrs, l.reclass_slices
            ));
        }
        Ok(())
    }

    fn replay_tick(
        &mut self,
        block: &Block,
        reclassified: usize,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<(), String> {
        let height = Some(block.height);
        let mirror = self.mirror.as_mut().expect("traced follow keeps a mirror");
        let layers = &mut self.layers;
        let clf = self.follower.classifier();
        let cfg = &clf.config().construction;
        let threads = resolve_threads(self.follower.config().reclass_threads);
        let max_slices = clf.config().model.max_slices.max(1);

        let s = tracer.begin("construction.s1", Some(parent), height);
        apply_to_mirror(block, mirror, cfg, layers);
        tracer.end(s);

        // Gather the tick's stale raw slices, as the follower did.
        let min_txs = self.follower.config().min_txs;
        let dirty: Vec<Address> = mirror
            .iter()
            .filter(|(_, m)| m.dirty && m.txs >= min_txs)
            .map(|(a, _)| *a)
            .collect();
        if dirty.len() != reclassified {
            return Err(format!(
                "block {}: follower reclassified {reclassified} addresses, replay found {}",
                block.height,
                dirty.len()
            ));
        }
        let mut raw: Vec<AddressGraph> = Vec::new();
        let mut stale_counts = Vec::with_capacity(dirty.len());
        for a in &dirty {
            let m = mirror.get_mut(a).expect("dirty address mirrored");
            m.dirty = false;
            let stale = &m.inc.raw_graphs()[m.clean..];
            stale_counts.push(stale.len());
            raw.extend_from_slice(stale);
        }
        let derived = derive(cfg, &raw, tracer, parent);
        layers.reclass_addrs += dirty.len() as u64;
        layers.reclass_slices += raw.len() as u64;
        layers.raw_nodes += raw.iter().map(|g| g.num_nodes() as u64).sum::<u64>();
        layers.derived_nodes += derived.iter().map(|g| g.num_nodes() as u64).sum::<u64>();

        let s = tracer.begin("models.gfn", Some(parent), height);
        let embedded = clf.embed_graphs(&derived, threads);
        tracer.end(s);
        layers.gfn_graphs += derived.len() as u64;

        let mut embedded = embedded.into_iter();
        let mut seqs: Vec<Vec<Matrix>> = Vec::with_capacity(dirty.len());
        for (a, &n) in dirty.iter().zip(&stale_counts) {
            let m = mirror.get_mut(a).expect("dirty address mirrored");
            m.embeds.truncate(m.clean);
            m.embeds.extend(embedded.by_ref().take(n));
            m.clean = m.embeds.len();
            seqs.push(m.embeds[m.embeds.len().saturating_sub(max_slices)..].to_vec());
        }
        let s = tracer.begin("classify.head", Some(parent), height);
        let labeled = if seqs.is_empty() {
            Vec::new()
        } else {
            clf.classify_embeddings_batch(&seqs, threads)
                .map_err(|e| format!("replay classify: {e}"))?
        };
        tracer.end(s);
        layers.head_seqs += seqs.len() as u64;
        layers.head_steps += seqs.iter().map(|q| q.len() as u64).sum::<u64>();

        let s = tracer.begin("replay.verify", Some(parent), height);
        for (a, (label, _)) in dirty.iter().zip(&labeled) {
            if self.follower.labels().get(a) != Some(label) {
                return Err(format!(
                    "block {}: replay label for {a:?} differs from the follower's",
                    block.height
                ));
            }
            let theirs = self.follower.embeddings(*a).unwrap_or(&[]);
            let ours = &mirror[a].embeds;
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            if theirs.len() != ours.len()
                || theirs.iter().zip(ours).any(|(x, y)| bits(x) != bits(y))
            {
                return Err(format!(
                    "block {}: replay embeddings for {a:?} differ from the follower's",
                    block.height
                ));
            }
        }
        tracer.end(s);
        Ok(())
    }
}

/// `Follower::ingest_block` builds the same view and applies the same
/// first-appearance dedup, so the mirror sees exactly the follower's
/// per-address histories.
fn apply_to_mirror(
    block: &Block,
    mirror: &mut BTreeMap<Address, Mirror>,
    cfg: &ConstructionConfig,
    layers: &mut FollowLayers,
) {
    for tx in &block.txs {
        let view = TxView {
            txid: tx.txid,
            timestamp: tx.timestamp,
            inputs: tx.inputs.iter().map(|i| (i.address, i.value)).collect(),
            outputs: tx.outputs.iter().map(|o| (o.address, o.value)).collect(),
        };
        let mut seen = HashSet::new();
        for addr in view.inputs.iter().chain(&view.outputs).map(|(a, _)| *a) {
            if !seen.insert(addr) {
                continue;
            }
            let m = mirror.entry(addr).or_insert_with(|| Mirror {
                inc: IncrementalGraphs::new(addr, cfg.clone()),
                txs: 0,
                clean: 0,
                embeds: Vec::new(),
                dirty: false,
            });
            m.inc.apply_tx(&view);
            m.txs += 1;
            m.clean = m.clean.min(m.inc.num_slices() - 1);
            m.dirty = true;
            layers.tx_applications += 1;
        }
    }
}

/// Stages 2–4 on raw slices, each stage under its own span.
fn derive(
    cfg: &ConstructionConfig,
    raw: &[AddressGraph],
    tracer: &mut Tracer,
    parent: SpanId,
) -> Vec<AddressGraph> {
    let mut graphs: Vec<AddressGraph> = raw.to_vec();
    if cfg.compress {
        let s = tracer.begin("construction.s2", Some(parent), None);
        graphs = graphs.iter().map(compress_single_tx).collect();
        tracer.end(s);
        let s = tracer.begin("construction.s3", Some(parent), None);
        let params = MultiCompressParams {
            psi: cfg.psi,
            sigma: cfg.sigma,
        };
        graphs = graphs
            .iter()
            .map(|g| compress_multi_tx(g, params))
            .collect();
        tracer.end(s);
    }
    if cfg.augment {
        let s = tracer.begin("construction.s4", Some(parent), None);
        graphs.iter_mut().for_each(augment_with_centralities);
        tracer.end(s);
    }
    graphs
}

/// Stage-by-stage derivation of an address's whole history must equal
/// batch construction and the incremental path, byte for byte.
pub fn staged_graphs_check(record: &AddressRecord, cfg: &ConstructionConfig) -> Result<(), String> {
    let mut inc = IncrementalGraphs::from_history(record.address, &record.txs, cfg.clone());
    let staged = derive(cfg, inc.raw_graphs(), &mut Tracer::new(false), 0);
    let (batch, _) = construct_address_graphs(record, cfg);
    graphs_identical(&staged, &batch)
        .map_err(|e| format!("{:?}: staged vs batch: {e}", record.address))?;
    graphs_identical(&staged, inc.graphs())
        .map_err(|e| format!("{:?}: staged vs incremental: {e}", record.address))
}
