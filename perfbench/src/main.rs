//! perfbench — one command that measures the follow, serve and fit paths
//! end to end, checks their outputs, and with `--trace 1` splits the time
//! by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zipf|uniform --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets the system up [`SETUP_REPEATS`] times, then measures four
//! phases on it: `fit` (paper configuration, fixed split), `follow` (a
//! `Follower` draining the pre-generated chain), `serve` (open-loop
//! Poisson traffic into an in-process `Engine` at a low and a high rate,
//! plus a rate ladder for `max_rps`) and `remote` (the same low and high
//! schedules through `remote_router` to two loopback `NetServer` shards).
//! The phases are interleaved over [`ROUNDS`] rounds. The workload picks
//! how serving traffic chooses addresses; `--seconds` sizes the open-loop
//! phases, while fit and follow do a fixed amount of work. Human-readable
//! lines (each metric with unit and sample count, and each check) go to
//! stdout, followed by one JSON result line. Any failed check sets
//! `"correct": false` and the exit code to 1. See `perfbench/README.md`.

mod fit;
mod follow;
mod sched;
mod serve;
mod setup;
mod stats;
mod trace;

use baclassifier::construction::construct_address_graphs;
use baclassifier::BaClassifier;
use bstream::Follower;
use btcsim::{Address, AddressRecord, Label};
use sched::{permutation, poisson_schedule, Event, Popularity, Zipf};
use serve::{drive, PhaseRun, Target};
use setup::{build_inputs, Inputs, Serving};
use stats::{beyond, mean, median, quantile, Staircase};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{layer_totals, Tracer};

/// Complete set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Zipf exponent of the `zipf` workload.
const ZIPF_S: f64 = 1.1;
/// Fixed permutation from popularity rank to population member.
const POPULARITY_SEED: u64 = 0x0b5e_55ed;
/// Share of scheduled operations that are cache invalidations.
const INVALIDATE_SHARE: f64 = 0.01;
/// The low rate: about one request in flight at the engine's ~2.4 ms
/// batching-bound latency, so the batching window dominates.
const LOW_RPS: f64 = 500.0;
/// A ladder probe passes when its p99 over all requests and over the last
/// quarter (so a growing backlog fails) stays within this. Refused or
/// failed requests count as infinitely late, so a probe passes with at
/// most 1% of them: the engine's queue (256 deep) is full after about
/// 40 ms of backlog at these rates, so sustained overload shows as
/// refusals, while one brief stall of a shared host sheds a few requests
/// and need not fail the probe.
const P99_LIMIT_US: f64 = 100_000.0;
/// Ladder rungs: `LADDER_FROM · LADDER_STEP^k` up to `LADDER_SPAN` times
/// `LADDER_FROM`. The ladder always offers uniform traffic: with Zipf
/// traffic nearly every request hits the cache and the engine outruns a
/// one-thread load generator on two cores, so the ladder would measure
/// the generator.
const LADDER_FROM: f64 = 2000.0;
const LADDER_STEP: f64 = 1.05;
const LADDER_SPAN: f64 = 6.0;
/// The ladder is a [`Staircase`] that starts at rung `LADDER_START` and
/// first moves `LADDER_JUMP` rungs per probe. `max_rps` is its estimate:
/// the rate at which a probe meets the p99 limit half the time. Averaging
/// many short probes steadies it where the highest single passing rung
/// follows the host's luck.
const LADDER_START: usize = 20;
const LADDER_JUMP: usize = 4;
const LADDER_PROBES: usize = 24;
/// Rounds per run; see `run`.
const ROUNDS: usize = 8;
/// Shares of `--seconds` given to each open-loop phase. Warm-ups run at
/// the low rate, so cold misses do not pile up; the low and high phases
/// (in process and remote alike) split their share over the rounds.
const WARM_SHARE: f64 = 0.08;
const REMOTE_WARM_SHARE: f64 = 0.05;
const LOW_SHARE: f64 = 0.20;
const HIGH_SHARE: f64 = 0.15;
const LADDER_SHARE: f64 = 0.48;

struct Workload {
    name: &'static str,
    zipf: bool,
    /// The fixed high rate: as high as both the in-process engine and
    /// the two remote shards sustain without refusing a request.
    high_rps: f64,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "zipf",
        zipf: true,
        high_rps: 1500.0,
    },
    Workload {
        name: "uniform",
        zipf: false,
        high_rps: 700.0,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    /// Printed with the metrics but not part of the result line: figures
    /// too unsteady on a shared host to carry a regression bound.
    info: Vec<Metric>,
    checks: Vec<(String, Result<(), String>)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    fn check(&mut self, name: impl Into<String>, outcome: Result<(), String>) {
        self.checks.push((name.into(), outcome));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, r)| r.is_ok())
    }

    /// Count a fixed-rate serving phase in `attempted`/`failed`.
    fn count(&mut self, phase: &PhaseRun) {
        self.attempted += phase.outcomes.len() as u64;
        self.failed += phase.failed() as u64;
    }
}

/// Rejections a client saw must equal what the engine counted.
fn accounting_check(phase: &PhaseRun) -> Result<(), String> {
    let c = &phase.counters;
    let engine = c.rejected + c.failed + c.timed_out;
    let client = phase.failed() as u64;
    if engine == client {
        Ok(())
    } else {
        Err(format!(
            "engine counted {engine} failures, client saw {client}"
        ))
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn popularity(zipf: bool, n: usize) -> Popularity {
    if zipf {
        Popularity::Zipf {
            zipf: Zipf::new(n, ZIPF_S),
            rank_to_index: permutation(n, POPULARITY_SEED),
        }
    } else {
        Popularity::Uniform {
            order: permutation(n, POPULARITY_SEED),
        }
    }
}

/// A seeded sample of `k` items.
fn sample<T: Copy>(items: &[T], k: usize, seed: u64) -> Vec<T> {
    permutation(items.len(), seed)
        .into_iter()
        .take(k)
        .map(|i| items[i])
        .collect()
}

struct Phases {
    seed: u64,
    seconds: f64,
}

impl Phases {
    fn schedule(&self, phase: u64, rate: f64, share: f64, mix: &Popularity) -> Vec<Event> {
        let seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ phase;
        // The stratification offset depends on the phase, not the seed.
        let offset = (phase as f64 * 0.618_033_988_749_895).fract();
        let length = Duration::from_secs_f64(self.seconds * share);
        poisson_schedule(seed, offset, rate, length, INVALIDATE_SHARE, mix)
    }
}

/// The rate ladder, probed a few times per round so its probes are spread
/// over the run like every other phase.
struct Ladder {
    stairs: Staircase,
    /// (rate, p99 µs, passed) per probe.
    probes: Vec<(f64, f64, bool)>,
    refused: usize,
}

impl Ladder {
    fn new(from: f64) -> Self {
        let mut rungs = vec![from];
        while *rungs.last().expect("non-empty") * LADDER_STEP <= from * LADDER_SPAN {
            rungs.push(rungs.last().expect("non-empty") * LADDER_STEP);
        }
        Ladder {
            stairs: Staircase::new(rungs, LADDER_START, LADDER_JUMP),
            probes: Vec::new(),
            refused: 0,
        }
    }

    /// One probe at the staircase's current rung.
    fn step<T: Target>(
        &mut self,
        target: &T,
        population: &[AddressRecord],
        mix: &Popularity,
        phases: &Phases,
    ) {
        let rate = self.stairs.rung();
        let events = phases.schedule(
            100 + self.probes.len() as u64,
            rate,
            LADDER_SHARE / LADDER_PROBES as f64,
            mix,
        );
        let run = drive(target, population, &events);
        let lat = run.latencies_us();
        let tail = &lat[lat.len() * 3 / 4..];
        let p99 = quantile(&lat, 0.99).unwrap_or(f64::INFINITY);
        let p99_tail = quantile(tail, 0.99).unwrap_or(f64::INFINITY);
        self.refused += run.failed();
        let pass = p99 <= P99_LIMIT_US && p99_tail <= P99_LIMIT_US;
        self.probes.push((rate, p99, pass));
        self.stairs.record(pass);
    }

    fn max_rps(&self) -> f64 {
        self.stairs.estimate().expect("the ladder made probes")
    }
}

fn record_serve_spans(tracer: &mut Tracer, name: &'static str, run: &PhaseRun) {
    if !tracer.enabled() {
        return;
    }
    let phase = tracer.record(name, None, None, run.start, run.end);
    for o in &run.outcomes {
        let req = tracer.record(
            "serve.request",
            Some(phase),
            Some(o.seq),
            o.due,
            o.completion,
        );
        tracer.record("serve.submit", Some(req), Some(o.seq), o.sent, o.submitted);
    }
}

fn label_map<'a>(
    runs: impl Iterator<Item = &'a PhaseRun>,
) -> Result<HashMap<usize, Label>, String> {
    let mut labels = HashMap::new();
    for run in runs {
        for o in &run.outcomes {
            if let Ok(r) = &o.result {
                if r.degraded {
                    return Err(format!("request {} answered degraded", o.seq));
                }
                if *labels.entry(o.index).or_insert(r.label) != r.label {
                    return Err(format!("population member {} got two labels", o.index));
                }
            }
        }
    }
    Ok(labels)
}

/// A fixed-rate phase, measured as interleaved repetitions so a slow
/// stretch of the host touches one repetition, not the whole phase.
struct Reps {
    runs: Vec<PhaseRun>,
}

impl Reps {
    /// Median over repetitions of each repetition's median latency.
    fn p50(&self) -> f64 {
        let per: Vec<f64> = self
            .runs
            .iter()
            .map(|r| quantile(&r.latencies_us(), 0.5).unwrap_or(f64::INFINITY))
            .collect();
        median(&per).unwrap_or(f64::INFINITY)
    }

    fn samples(&self) -> usize {
        self.runs.iter().map(|r| r.outcomes.len()).sum()
    }

    fn counters(&self) -> serve::Counters {
        let mut c = serve::Counters::default();
        for r in &self.runs {
            c += r.counters;
        }
        c
    }

    fn outcomes(&self) -> impl Iterator<Item = &serve::Outcome> {
        self.runs.iter().flat_map(|r| &r.outcomes)
    }

    fn pooled(&self, f: impl Fn(&PhaseRun) -> Vec<f64>) -> Vec<f64> {
        self.runs.iter().flat_map(f).collect()
    }
}

/// One diagnostic line per phase, pooled over its repetitions.
fn describe(name: &str, runs: &[PhaseRun]) {
    let lat: Vec<f64> = runs.iter().flat_map(PhaseRun::latencies_us).collect();
    let late: Vec<f64> = runs.iter().flat_map(PhaseRun::late_us).collect();
    let q = |v: &[f64], q: f64| quantile(v, q).unwrap_or(f64::NAN);
    let failed: usize = runs.iter().map(PhaseRun::failed).sum();
    let invalidations: u64 = runs.iter().map(|r| r.invalidations).sum();
    let (hits, misses) = runs.iter().fold((0, 0), |(h, m), r| {
        (h + r.counters.cache_hits, m + r.counters.cache_misses)
    });
    eprintln!(
        "[perfbench] {name}: {} requests, {failed} failed, {invalidations} invalidations, \
         p50 {:.0}us p99 {:.0}us, late p99 {:.0}us, cache hits {hits}/{}",
        lat.len(),
        q(&lat, 0.5),
        q(&lat, 0.99),
        q(&late, 0.99),
        hits + misses
    );
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new(args.trace);
    let phases = Phases {
        seed: args.seed,
        seconds: args.seconds,
    };
    let high_rps = args.workload.high_rps;

    // Set-up, repeated; the last one is kept.
    let mut setup_s = Vec::new();
    let mut kept: Option<(Inputs, Serving)> = None;
    for _ in 0..if args.trace { 1 } else { SETUP_REPEATS } {
        if let Some((_, serving)) = kept.take() {
            serving.stop();
        }
        let t = Instant::now();
        let inputs = build_inputs();
        let serving = Serving::start(&inputs)?;
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((inputs, serving));
    }
    let (inputs, serving) = kept.expect("at least one set-up");
    let mix = popularity(args.workload.zipf, inputs.population.len());
    eprintln!(
        "[perfbench] set up in {:.2}s: {} blocks to follow, {} addresses to serve, fit {}/{}",
        setup_s[setup_s.len() - 1],
        inputs.chain.len(),
        inputs.population.len(),
        inputs.fit_train.len(),
        inputs.fit_test.len()
    );
    // The run is `ROUNDS` rounds; each follows the next segment of the
    // chain, fits once, runs one repetition of every fixed-rate serving
    // phase and takes one ladder decision, so one slow stretch of the host
    // skews at most one sample of each metric.
    // Traced, an untraced follow runs beside the traced one for the
    // overhead figure, the first two fits are the untraced baseline and
    // the traced fit, and the ladder is left out.
    let new_follower = || {
        Follower::new(&inputs.artifact, follow::follower_config())
            .map_err(|e| format!("follower: {e}"))
    };
    let mut followed = follow::Follow::new(new_follower()?, args.trace);
    let mut follow_base = if args.trace {
        Some(follow::Follow::new(new_follower()?, false))
    } else {
        None
    };
    let engine = &serving.engine;
    let router = &serving.router;
    let degraded_before = router.degraded_routed();
    let warm = drive(
        engine,
        &inputs.population,
        &phases.schedule(1, LOW_RPS, WARM_SHARE, &mix),
    );
    let rwarm = drive(
        router,
        &inputs.population,
        &phases.schedule(2, LOW_RPS, REMOTE_WARM_SHARE, &mix),
    );
    let hot: Vec<&AddressRecord> = mix
        .hottest(8)
        .into_iter()
        .map(|i| &inputs.population[i])
        .collect();
    report.check(
        "first request after an invalidation misses the cache",
        serve::invalidation_check(engine, &hot),
    );

    let mut fits: Vec<fit::FitRun> = Vec::new();
    let mut ladder = (!args.trace).then(|| Ladder::new(LADDER_FROM));
    let uniform = popularity(false, inputs.population.len());
    let (mut low, mut high, mut rlow, mut rhigh) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let segment = inputs.chain.len().div_ceil(ROUNDS);
    for (k, blocks) in inputs.chain.chunks(segment).enumerate() {
        followed.advance(blocks, &mut tracer)?;
        if let Some(base) = follow_base.as_mut() {
            base.advance(blocks, &mut Tracer::new(false))?;
        }
        if !args.trace || k < 2 {
            let mut untraced = Tracer::new(false);
            let fit_tracer = if args.trace && k == 1 {
                &mut tracer
            } else {
                &mut untraced
            };
            let run = fit::run(&inputs.fit_train, &inputs.fit_test, fit_tracer);
            eprintln!(
                "[perfbench] fit: {:.2}s, macro-F1 {:.4}",
                run.fit.as_secs_f64(),
                run.macro_f1
            );
            fits.push(run);
        }
        let k = k as u64;
        let low_events = phases.schedule(10 + k, LOW_RPS, LOW_SHARE / ROUNDS as f64, &mix);
        let high_events = phases.schedule(20 + k, high_rps, HIGH_SHARE / ROUNDS as f64, &mix);
        low.push(drive(engine, &inputs.population, &low_events));
        high.push(drive(engine, &inputs.population, &high_events));
        rlow.push(drive(router, &inputs.population, &low_events));
        rhigh.push(drive(router, &inputs.population, &high_events));
        if let Some(l) = ladder.as_mut() {
            for _ in 0..LADDER_PROBES / ROUNDS {
                l.step(engine, &inputs.population, &uniform, &phases);
            }
        }
    }
    report.attempted += (followed.blocks + fits.len()) as u64;
    eprintln!(
        "[perfbench] follow: {} blocks in {:.2}s",
        followed.blocks,
        followed.wall.as_secs_f64()
    );
    if args.trace {
        report.check(
            "follower re-embedded what the replay did",
            followed.check_replay_counts(),
        );
    }
    let degraded = router.degraded_routed() - degraded_before;

    describe("warm", std::slice::from_ref(&warm));
    describe("remote warm", std::slice::from_ref(&rwarm));
    for (name, reps) in [
        ("low", &low),
        ("high", &high),
        ("remote low", &rlow),
        ("remote high", &rhigh),
    ] {
        describe(name, reps);
    }
    let local_runs = || std::iter::once(&warm).chain(&low).chain(&high);
    let accounting = local_runs().try_for_each(accounting_check);
    report.check(
        "in process: engine failure counts match the client's",
        accounting,
    );
    for run in local_runs()
        .chain(std::iter::once(&rwarm))
        .chain(&rlow)
        .chain(&rhigh)
    {
        report.count(run);
    }
    for (name, reps) in [
        ("serve.low", &low),
        ("serve.high", &high),
        ("remote.low", &rlow),
        ("remote.high", &rhigh),
    ] {
        for run in reps.iter() {
            record_serve_spans(&mut tracer, name, run);
        }
    }
    let (low, high, rlow, rhigh) = (
        Reps { runs: low },
        Reps { runs: high },
        Reps { runs: rlow },
        Reps { runs: rhigh },
    );

    // Checks.
    let f1 = fits[0].macro_f1;
    report.check(
        "fit is deterministic (same macro-F1 every fit)",
        if fits.iter().all(|f| f.macro_f1.to_bits() == f1.to_bits()) {
            Ok(())
        } else {
            Err(format!(
                "{:?}",
                fits.iter().map(|f| f.macro_f1).collect::<Vec<_>>()
            ))
        },
    );
    let clf =
        BaClassifier::from_artifact(&inputs.artifact).map_err(|e| format!("classifier: {e}"))?;
    let tip_check = {
        let labeled: Vec<Address> = followed
            .follower()
            .labels()
            .keys()
            .copied()
            .filter(|a| inputs.follow_records.contains_key(&a.0))
            .collect();
        let picked = sample(&labeled, 24, args.seed ^ 0xf011);
        let mut outcome = if picked.is_empty() {
            Err("no labeled address to check".to_string())
        } else {
            Ok(())
        };
        for a in &picked {
            let expected = clf
                .predict(&inputs.follow_records[&a.0])
                .map_err(|e| e.to_string())?;
            let got = followed.follower().labels()[a];
            if got != expected {
                outcome = Err(format!("{a:?}: follower {got:?}, predict {expected:?}"));
            }
        }
        outcome
    };
    report.check("follow labels match predict at the tip", tip_check);
    let ids: Vec<u64> = inputs
        .follow_records
        .keys()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let staged = sample(&ids, 8, args.seed ^ 0x57a9)
        .iter()
        .try_for_each(|id| {
            follow::staged_graphs_check(
                &inputs.follow_records[id],
                &inputs.artifact.config.construction,
            )
        });
    report.check(
        "stage-by-stage construction equals batch and incremental",
        staged,
    );
    report.check(
        "no remote request routed degraded",
        if degraded == 0 {
            Ok(())
        } else {
            Err(format!("{degraded} degraded"))
        },
    );
    let local_labels = label_map(std::iter::once(&warm).chain(&low.runs).chain(&high.runs));
    let remote_labels = label_map(std::iter::once(&rwarm).chain(&rlow.runs).chain(&rhigh.runs));
    let (predict_check, remote_check) = match (&local_labels, &remote_labels) {
        (Ok(local), Ok(remote)) => {
            let served: Vec<usize> = local
                .keys()
                .copied()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let mut picked = sample(&served, 48, args.seed ^ 0x5e7e);
            picked.extend(
                mix.hottest(16)
                    .into_iter()
                    .filter(|i| local.contains_key(i)),
            );
            let mut predict_check = Ok(());
            for i in &picked {
                let expected = clf
                    .predict(&inputs.population[*i])
                    .map_err(|e| e.to_string())?;
                if local[i] != expected {
                    predict_check = Err(format!(
                        "member {i}: served {:?}, predict {expected:?}",
                        local[i]
                    ));
                }
            }
            let compared = remote.keys().filter(|i| local.contains_key(i)).count();
            let mismatched = remote
                .iter()
                .filter(|(i, l)| local.get(i).is_some_and(|m| m != *l))
                .count();
            let remote_check = if mismatched > 0 {
                Err(format!(
                    "{mismatched} of {compared} addresses labeled differently"
                ))
            } else if compared == 0 {
                Err("no address served both ways".to_string())
            } else {
                Ok(())
            };
            (predict_check, remote_check)
        }
        (Err(e), _) => (Err(e.clone()), Err("in-process labels unusable".into())),
        (_, Err(e)) => (Ok(()), Err(e.clone())),
    };
    report.check("serve labels match predict", predict_check);
    report.check("remote labels match in-process labels", remote_check);

    if !args.trace {
        report.metric(
            "setup_s",
            median(&setup_s).expect("set-up ran"),
            "s",
            setup_s.len(),
        );
        report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
        report.metric(
            "blocks_per_s",
            followed.blocks as f64 / followed.wall.as_secs_f64(),
            "1/s",
            followed.blocks,
        );
        let n = followed.label_latency_ms.len();
        report.metric(
            "label_p50_ms",
            quantile(&followed.label_latency_ms, 0.5).unwrap_or(f64::NAN),
            "ms",
            n,
        );
        report.metric(
            "label_p90_ms",
            quantile(&followed.label_latency_ms, 0.9).unwrap_or(f64::NAN),
            "ms",
            n,
        );
        for (p50, p99, reps) in [
            ("p50_us.low", "p99_us.low", &low),
            ("p50_us.high", "p99_us.high", &high),
            ("remote.p50_us.low", "remote.p99_us.low", &rlow),
            ("remote.p50_us.high", "remote.p99_us.high", &rhigh),
        ] {
            report.metric(p50, reps.p50(), "us", reps.samples());
            let pooled = reps.pooled(PhaseRun::latencies_us);
            report.info.push(Metric {
                name: p99,
                value: quantile(&pooled, 0.99).unwrap_or(f64::INFINITY),
                unit: "us",
                samples: pooled.len(),
            });
            eprintln!(
                "[perfbench] {p99}: {} samples beyond it",
                beyond(&pooled, 0.99)
            );
        }
        let l = ladder.as_ref().expect("untraced runs climb the ladder");
        for (rate, p99, pass) in &l.probes {
            eprintln!(
                "[perfbench] ladder {rate:.0}/s: p99 {p99:.0}us {}",
                if *pass { "pass" } else { "fail" }
            );
        }
        eprintln!(
            "[perfbench] ladder probes refused or failed {} requests (expected above capacity)",
            l.refused
        );
        report.metric("max_rps", l.max_rps(), "1/s", l.probes.len());
        let fit_s: Vec<f64> = fits.iter().map(|f| f.fit.as_secs_f64()).collect();
        report.metric("fit_s", median(&fit_s).expect("fits ran"), "s", fit_s.len());
        report.metric("macro_f1", f1, "ratio", inputs.fit_test.len());
    } else {
        per_layer(
            &mut report,
            &tracer,
            &inputs,
            &clf,
            args,
            &fits,
            follow_base.as_ref(),
            &followed,
            [&low, &high, &rlow, &rhigh],
            degraded,
        )?;
        let path = PathBuf::from(".bench_out").join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name, args.seed
        ));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "[perfbench] wrote {} spans to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    serving.stop();
    Ok(report)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    report: &mut Report,
    tracer: &Tracer,
    inputs: &Inputs,
    clf: &BaClassifier,
    args: &Args,
    fits: &[fit::FitRun],
    follow_base: Option<&follow::Follow>,
    followed: &follow::Follow,
    [low, high, rlow, rhigh]: [&Reps; 4],
    degraded: u64,
) -> Result<(), String> {
    let totals = layer_totals(tracer.spans());
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| ms(t.total));
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| ms(t.self_time));
    let spans_of = |name: &str| totals.get(name).map_or(0, |t| t.count as usize);
    let layers = &followed.layers;
    let blocks = followed.blocks;

    // Construction, replayed from the follow run.
    for (metric, span) in [
        ("construction.s1_ms", "construction.s1"),
        ("construction.s2_ms", "construction.s2"),
        ("construction.s3_ms", "construction.s3"),
        ("construction.s4_ms", "construction.s4"),
    ] {
        report.metric(metric, total_ms(span), "ms", spans_of(span));
    }
    let follower_ms = total_ms("stream.ingest") + total_ms("stream.reclass");
    report.metric(
        "construction.s3_share_pct",
        100.0 * total_ms("construction.s3") / follower_ms,
        "%",
        blocks,
    );
    report.metric(
        "construction.slices_per_tx",
        layers.reclass_slices as f64 / layers.tx_applications as f64,
        "ratio",
        layers.tx_applications as usize,
    );
    report.metric(
        "construction.nodes_out_ratio",
        layers.derived_nodes as f64 / layers.raw_nodes as f64,
        "ratio",
        layers.reclass_slices as usize,
    );

    // Stream: the follower's own calls.
    report.metric("stream.ingest_ms", total_ms("stream.ingest"), "ms", blocks);
    report.metric(
        "stream.reclass_ms",
        total_ms("stream.reclass"),
        "ms",
        blocks,
    );
    report.metric(
        "stream.reclass_addrs",
        layers.reclass_addrs as f64,
        "count",
        blocks,
    );
    report.metric(
        "stream.reclass_slices",
        layers.reclass_slices as f64,
        "count",
        blocks,
    );
    let sm = followed.follower().metrics();
    report.metric(
        "stream.coalesce_ratio",
        sm.coalesced_flips as f64 / sm.tx_applications as f64,
        "ratio",
        sm.tx_applications as usize,
    );

    // Models and classify, replayed from the follow run.
    report.metric("models.gfn_ms", total_ms("models.gfn"), "ms", blocks);
    report.metric(
        "models.gfn_graphs",
        layers.gfn_graphs as f64,
        "count",
        blocks,
    );
    report.metric(
        "models.gfn_nodes",
        layers.derived_nodes as f64,
        "count",
        blocks,
    );
    report.metric("classify.head_ms", total_ms("classify.head"), "ms", blocks);
    report.metric(
        "classify.head_seqs",
        layers.head_seqs as f64,
        "count",
        blocks,
    );
    report.metric(
        "classify.head_steps",
        layers.head_steps as f64,
        "count",
        blocks,
    );

    // Train: the traced fit's own report. Stage times in FitReport are
    // CPU time summed over the construction workers, not wall time.
    let traced_fit = fits.last().expect("traced fit");
    let r = &traced_fit.report;
    let gfn = ms(r.gnn_log.total_time());
    let head = ms(r.head_log.total_time());
    report.metric("train.gfn_ms", gfn, "ms", r.gnn_log.points.len());
    report.metric("train.head_ms", head, "ms", r.head_log.points.len());
    report.metric("train.rest_ms", ms(traced_fit.fit) - gfn - head, "ms", 1);
    report.metric(
        "train.construction_cpu_ms",
        ms(r.construction.total()),
        "ms",
        r.num_graphs,
    );
    report.metric(
        "train.s3_cpu_ms",
        ms(r.construction.multi_compress),
        "ms",
        r.num_graphs,
    );

    // Serve queue, batch and cache, from phase-scoped engine deltas.
    let per_row = |c: serve::Counters| c.queue_wait_us as f64 / c.rows.max(1) as f64;
    report.metric(
        "serve.queue_wait_us.low",
        per_row(low.counters()),
        "us",
        low.counters().rows as usize,
    );
    report.metric(
        "serve.queue_wait_us.high",
        per_row(high.counters()),
        "us",
        high.counters().rows as usize,
    );
    let handoff: Vec<f64> = high
        .outcomes()
        .filter(|o| o.result.is_ok() && o.wait_start <= o.completion)
        .map(|o| us(o.returned.saturating_duration_since(o.completion)))
        .collect();
    report.metric(
        "serve.handoff_us",
        median(&handoff).unwrap_or(0.0),
        "us",
        handoff.len(),
    );
    let backlog = high
        .runs
        .iter()
        .map(PhaseRun::backlog_max)
        .max()
        .unwrap_or(0);
    report.metric("serve.backlog_max", backlog as f64, "count", high.samples());
    let rejected = low.counters().rejected + high.counters().rejected;
    report.metric(
        "serve.rejected",
        rejected as f64,
        "count",
        low.samples() + high.samples(),
    );
    let c = high.counters();
    report.metric(
        "serve.model_us_per_batch",
        c.model_us as f64 / c.batches.max(1) as f64,
        "us",
        c.batches as usize,
    );
    report.metric(
        "serve.batch_rows_mean",
        c.rows as f64 / c.batches.max(1) as f64,
        "count",
        c.batches as usize,
    );
    report.metric(
        "serve.cache_hit_ratio",
        c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
        "ratio",
        (c.cache_hits + c.cache_misses) as usize,
    );
    report.metric(
        "serve.dedup_hits",
        c.dedup_hits as f64,
        "count",
        c.rows as usize,
    );

    // Misses of the high phase, replayed through construction and GFN.
    let missed: Vec<usize> = high
        .outcomes()
        .filter(|o| matches!(&o.result, Ok(r) if !r.cache_hit))
        .map(|o| o.index)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let cfg = &inputs.artifact.config;
    let max_slices = cfg.model.max_slices.max(1);
    let (mut construct_us, mut gfn_us) = (Vec::new(), Vec::new());
    for i in sample(&missed, 256, args.seed ^ 0x1155) {
        let record = &inputs.population[i];
        let t = Instant::now();
        let (graphs, _) = construct_address_graphs(record, &cfg.construction);
        construct_us.push(us(t.elapsed()));
        let t = Instant::now();
        std::hint::black_box(
            clf.embed_graphs(&graphs[graphs.len().saturating_sub(max_slices)..], 1),
        );
        gfn_us.push(us(t.elapsed()));
    }
    report.metric(
        "serve.miss.construction_us",
        mean(&construct_us).unwrap_or(0.0),
        "us",
        construct_us.len(),
    );
    report.metric(
        "serve.miss.gfn_us",
        mean(&gfn_us).unwrap_or(0.0),
        "us",
        gfn_us.len(),
    );

    // Network hop and shard health.
    let hop: Vec<f64> = rhigh
        .outcomes()
        .filter_map(|o| {
            o.result
                .as_ref()
                .ok()
                .map(|r| us(o.returned.saturating_duration_since(o.sent)) - us(r.latency))
        })
        .collect();
    report.metric("net.hop_us", median(&hop).unwrap_or(0.0), "us", hop.len());
    let reconnects = rlow.counters().reconnects + rhigh.counters().reconnects;
    report.metric(
        "net.reconnects",
        reconnects as f64,
        "count",
        rlow.samples() + rhigh.samples(),
    );
    report.metric(
        "shard.degraded",
        degraded as f64,
        "count",
        rlow.samples() + rhigh.samples(),
    );

    // End-to-end tails, pooled over repetitions. Too unsteady on a shared
    // host to carry a regression bound, so they are reported here.
    for (name, reps) in [
        ("tail.p99_us.low", low),
        ("tail.p99_us.high", high),
        ("tail.remote.p99_us.low", rlow),
        ("tail.remote.p99_us.high", rhigh),
    ] {
        let pooled = reps.pooled(PhaseRun::latencies_us);
        report.metric(
            name,
            quantile(&pooled, 0.99).unwrap_or(f64::INFINITY),
            "us",
            pooled.len(),
        );
    }

    // Generator lateness per phase, pooled over repetitions.
    for (name, reps) in [
        ("gen.late_us_p99.low", low),
        ("gen.late_us_p99.high", high),
        ("gen.late_us_p99.remote_low", rlow),
        ("gen.late_us_p99.remote_high", rhigh),
    ] {
        report.metric(
            name,
            quantile(&reps.pooled(PhaseRun::late_us), 0.99).unwrap_or(0.0),
            "us",
            reps.samples(),
        );
    }

    // Trace coverage and overhead on the fixed-work phases.
    let follow_base = follow_base.expect("traced runs follow untraced first");
    let follow_wall = ms(followed.wall);
    let base_wall = ms(follow_base.wall);
    report.metric(
        "trace.overhead_pct.follow",
        100.0 * (follow_wall - base_wall) / base_wall,
        "%",
        2,
    );
    let unattributed = self_ms("follow") + self_ms("follow.block") + self_ms("replay");
    report.metric(
        "trace.unattributed_pct.follow",
        100.0 * unattributed / follow_wall,
        "%",
        blocks,
    );
    let fit_wall = ms(traced_fit.phase);
    let fit_base = ms(fits[0].phase);
    report.metric(
        "trace.overhead_pct.fit",
        100.0 * (fit_wall - fit_base) / fit_base,
        "%",
        2,
    );
    report.metric(
        "trace.unattributed_pct.fit",
        100.0 * self_ms("fit") / fit_wall,
        "%",
        1,
    );
    Ok(())
}

/// JSON has no infinity; a request that failed reads as this many µs.
const NOT_FINITE: f64 = 1e300;

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload zipf|uniform --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for (name, outcome) in &report.checks {
        match outcome {
            Ok(()) => println!("check ok    {name}"),
            Err(e) => println!("check FAIL  {name}: {e}"),
        }
    }
    let mut json = BTreeMap::new();
    for m in &report.info {
        println!(
            "info   {:<32} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in &report.metrics {
        println!(
            "metric {:<32} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
        let value = if m.value.is_finite() {
            m.value
        } else {
            NOT_FINITE
        };
        json.insert(
            m.name,
            format!("{{\"value\": {value}, \"unit\": \"{}\"}}", m.unit),
        );
    }
    println!(
        "attempted {} failed {} failed_ratio {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    let metrics: Vec<String> = json.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if !report.correct() {
        std::process::exit(1);
    }
}
