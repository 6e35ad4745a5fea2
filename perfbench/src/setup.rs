//! Set-up: generate the chain, datasets and model from the simulator, then
//! start the serving stack the phases drive. Everything here counts in
//! `setup_s`.

use baclassifier::{BaClassifier, BacConfig, ModelArtifact, ShardAssignment};
use banet::{listen_reuse, NetServer, NetServerConfig, RemoteShardConfig};
use baserve::{Engine, EngineConfig};
use bashard::{remote_router, wait_fleet_up, ShardRouter, WorkerBackend};
use btcsim::{AddressRecord, Block, Dataset, SimConfig, Simulator};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Simulation seed of both chains. It is fixed so that every run measures
/// the same chain, model and training set; the benchmark's `--seed` varies
/// the traffic and the checked samples. Ten seeds then spread only what
/// the system does, not what the simulator happened to generate.
pub const SIM_SEED: u64 = 42;

/// Shards (and connections) of the remote serving phase.
pub const REMOTE_SHARDS: u32 = 2;

/// The chain `bstream-follow` follows by default: 200 blocks, 40 retail
/// users.
pub fn follow_chain_config() -> SimConfig {
    let mut cfg = SimConfig {
        blocks: 200,
        ..SimConfig::tiny(SIM_SEED)
    };
    cfg.retail.num_users = 40;
    cfg
}

/// A larger chain whose labeled addresses form the serving population
/// (about five times the engine's 1,024-entry cache) and the fit sample.
pub fn serve_chain_config() -> SimConfig {
    let mut cfg = SimConfig {
        blocks: 300,
        ..SimConfig::tiny(SIM_SEED)
    };
    cfg.retail.num_users = 1000;
    cfg
}

pub struct Inputs {
    pub chain: Vec<Block>,
    /// Every labeled address of the follow chain, by id, with its history
    /// at the tip — what `predict` sees for the tip check.
    pub follow_records: HashMap<u64, AddressRecord>,
    /// `BacConfig::fast` fitted on the follow chain's dataset, as
    /// `bstream-follow` does without `--artifact`.
    pub artifact: Arc<ModelArtifact>,
    /// Labeled addresses of the serve chain with at least one transaction.
    pub population: Vec<AddressRecord>,
    pub fit_train: Dataset,
    pub fit_test: Dataset,
}

pub fn build_inputs() -> Inputs {
    let follow_sim = Simulator::run_to_completion(follow_chain_config());
    let chain = follow_sim.chain().blocks().to_vec();
    let follow_records = Dataset::from_simulator(&follow_sim, 1)
        .records
        .into_iter()
        .map(|r| (r.address.0, r))
        .collect();
    let mut clf = BaClassifier::new(BacConfig::fast());
    clf.fit(&Dataset::from_simulator(&follow_sim, 3));
    let artifact = Arc::new(clf.to_artifact().expect("fitted classifier exports"));

    let serve_sim = Simulator::run_to_completion(serve_chain_config());
    let population = Dataset::from_simulator(&serve_sim, 1).records;
    let (fit_train, fit_test) =
        Dataset::from_simulator(&serve_sim, 3).stratified_split(0.2, SIM_SEED ^ 0x7e57);
    Inputs {
        chain,
        follow_records,
        artifact,
        population,
        fit_train,
        fit_test,
    }
}

/// The serving stack: one in-process engine, and a two-shard fleet of
/// in-process `NetServer` workers reached through `remote_router` over
/// loopback. Both get `EngineConfig::default()`'s resources in total.
pub struct Serving {
    pub engine: Engine,
    pub router: ShardRouter,
    servers: Vec<NetServer>,
}

impl Serving {
    pub fn start(inputs: &Inputs) -> Result<Serving, String> {
        let config = EngineConfig::default();
        let engine = Engine::new(Arc::clone(&inputs.artifact), config.clone())
            .map_err(|e| format!("engine: {e}"))?;
        let by_id: HashMap<u64, AddressRecord> = inputs
            .population
            .iter()
            .map(|r| (r.address.0, r.clone()))
            .collect();
        let mut servers = Vec::new();
        let mut addrs = Vec::new();
        for index in 0..REMOTE_SHARDS {
            let shard_engine = Engine::new(
                Arc::clone(&inputs.artifact),
                config.for_shard(REMOTE_SHARDS as usize),
            )
            .map_err(|e| format!("shard engine: {e}"))?;
            let backend = WorkerBackend::new(
                shard_engine,
                by_id.clone(),
                ShardAssignment {
                    index,
                    count: REMOTE_SHARDS,
                },
            );
            let listener = listen_reuse("127.0.0.1:0".parse().expect("loopback address"))
                .map_err(|e| format!("listen: {e}"))?;
            let server = NetServer::spawn(
                listener,
                Arc::new(backend),
                NetServerConfig::for_shard(index, REMOTE_SHARDS),
            )
            .map_err(|e| format!("spawn shard server: {e}"))?;
            addrs.push(server.local_addr().to_string());
            servers.push(server);
        }
        let (router, health) = remote_router(&addrs, RemoteShardConfig::default(), None);
        let serving = Serving {
            engine,
            router,
            servers,
        };
        if !wait_fleet_up(&health, Duration::from_secs(10)) {
            serving.stop();
            return Err("remote shard fleet did not come up".into());
        }
        Ok(serving)
    }

    /// Close the client lanes, then stop the servers (joining their
    /// threads and engines), then the in-process engine.
    pub fn stop(self) {
        self.router.shutdown();
        for server in self.servers {
            server.stop();
        }
        self.engine.shutdown();
    }
}
