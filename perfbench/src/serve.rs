//! Open-loop serving: requests go out on a pre-generated Poisson schedule
//! whether or not earlier ones have been answered, and each latency is
//! counted from the request's due time, so a stall also delays everything
//! due behind it.
//!
//! The load side is the sending thread plus one waiter per connection.
//! In process, a request completes when the engine's worker replies
//! (`Response::latency` is measured from admission), so in-order waiting
//! never inflates it. Remotely, each connection answers in submission
//! order, so one waiter per connection observes replies as they land.

use crate::sched::{Event, Op};
use baserve::{Engine, MetricsSnapshot, Response, ServeError, Ticket};
use bashard::ShardRouter;
use btcsim::{Address, AddressRecord};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What the load generator drives.
pub trait Target: Sync {
    fn submit(&self, record: AddressRecord) -> Result<Ticket, ServeError>;
    fn invalidate(&self, address: Address);
    fn snapshot(&self) -> MetricsSnapshot;
    /// Connections, each with its own waiter.
    fn lanes(&self) -> usize;
    fn lane(&self, address: Address) -> usize;
    /// Whether completion is observed by the client (remote) rather than
    /// reported by the engine worker (in process).
    fn client_clock(&self) -> bool;
}

impl Target for Engine {
    fn submit(&self, record: AddressRecord) -> Result<Ticket, ServeError> {
        Engine::submit(self, record)
    }
    fn invalidate(&self, address: Address) {
        self.invalidate_address(address);
    }
    fn snapshot(&self) -> MetricsSnapshot {
        self.metrics()
    }
    fn lanes(&self) -> usize {
        1
    }
    fn lane(&self, _: Address) -> usize {
        0
    }
    fn client_clock(&self) -> bool {
        false
    }
}

impl Target for ShardRouter {
    fn submit(&self, record: AddressRecord) -> Result<Ticket, ServeError> {
        ShardRouter::submit(self, record)
    }
    fn invalidate(&self, address: Address) {
        self.invalidate_address(address);
    }
    fn snapshot(&self) -> MetricsSnapshot {
        self.metrics()
    }
    fn lanes(&self) -> usize {
        self.shard_count() as usize
    }
    fn lane(&self, address: Address) -> usize {
        self.map().shard_of(address) as usize
    }
    fn client_clock(&self) -> bool {
        true
    }
}

/// One request's life, as seen by the load side.
pub struct Outcome {
    /// Schedule position (the request id in traces).
    pub seq: u64,
    /// Population index.
    pub index: usize,
    pub due: Instant,
    pub sent: Instant,
    pub submitted: Instant,
    pub result: Result<Response, ServeError>,
    pub wait_start: Instant,
    pub returned: Instant,
    pub completion: Instant,
}

impl Outcome {
    /// Due time to completion; a failed or refused request misses every
    /// limit, so it counts as infinitely late.
    pub fn latency_us(&self) -> f64 {
        match &self.result {
            Ok(_) => {
                self.completion
                    .saturating_duration_since(self.due)
                    .as_secs_f64()
                    * 1e6
            }
            Err(_) => f64::INFINITY,
        }
    }

    /// How late the generator sent it.
    pub fn late_us(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e6
    }
}

/// Engine counters that matter per phase, as an after-minus-before delta.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub rejected: u64,
    pub failed: u64,
    pub timed_out: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub dedup_hits: u64,
    pub batches: u64,
    pub rows: u64,
    pub model_us: u64,
    pub queue_wait_us: u64,
    pub reconnects: u64,
}

impl std::ops::AddAssign for Counters {
    fn add_assign(&mut self, o: Counters) {
        self.rejected += o.rejected;
        self.failed += o.failed;
        self.timed_out += o.timed_out;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.dedup_hits += o.dedup_hits;
        self.batches += o.batches;
        self.rows += o.rows;
        self.model_us += o.model_us;
        self.queue_wait_us += o.queue_wait_us;
        self.reconnects += o.reconnects;
    }
}

impl Counters {
    fn of(s: &MetricsSnapshot) -> Self {
        Counters {
            rejected: s.rejected,
            failed: s.failed,
            timed_out: s.timed_out,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            dedup_hits: s.batch_dedup_hits,
            batches: s.batches,
            rows: s.embed_batch_rows_total,
            model_us: s.model_time_us_total,
            queue_wait_us: s.queue_wait_us_total,
            reconnects: s.reconnects_total,
        }
    }

    fn since(after: &MetricsSnapshot, before: &MetricsSnapshot) -> Self {
        let (a, b) = (Counters::of(after), Counters::of(before));
        Counters {
            rejected: a.rejected - b.rejected,
            failed: a.failed - b.failed,
            timed_out: a.timed_out - b.timed_out,
            cache_hits: a.cache_hits - b.cache_hits,
            cache_misses: a.cache_misses - b.cache_misses,
            dedup_hits: a.dedup_hits - b.dedup_hits,
            batches: a.batches - b.batches,
            rows: a.rows - b.rows,
            model_us: a.model_us - b.model_us,
            queue_wait_us: a.queue_wait_us - b.queue_wait_us,
            reconnects: a.reconnects - b.reconnects,
        }
    }
}

pub struct PhaseRun {
    pub start: Instant,
    pub end: Instant,
    /// In schedule order.
    pub outcomes: Vec<Outcome>,
    pub invalidations: u64,
    pub counters: Counters,
}

impl PhaseRun {
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_err()).count()
    }

    pub fn latencies_us(&self) -> Vec<f64> {
        self.outcomes.iter().map(Outcome::latency_us).collect()
    }

    pub fn late_us(&self) -> Vec<f64> {
        self.outcomes.iter().map(Outcome::late_us).collect()
    }

    /// Most requests in the system at once, from the client's view:
    /// due but not yet complete.
    pub fn backlog_max(&self) -> u64 {
        let mut edges: Vec<(Instant, i64)> = Vec::with_capacity(self.outcomes.len() * 2);
        for o in &self.outcomes {
            edges.push((o.due, 1));
            edges.push((o.completion.max(o.due), -1));
        }
        // Completions sort before arrivals at the same instant.
        edges.sort();
        let (mut now, mut max) = (0i64, 0i64);
        for (_, d) in edges {
            now += d;
            max = max.max(now);
        }
        max as u64
    }
}

struct Pending {
    seq: u64,
    index: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    ticket: Ticket,
}

/// Run `events` against `target`, scoping its counters to this phase.
pub fn drive<T: Target>(target: &T, population: &[AddressRecord], events: &[Event]) -> PhaseRun {
    let client_clock = target.client_clock();
    let before = target.snapshot();
    let start = Instant::now() + Duration::from_millis(2);
    let (mut outcomes, invalidations) = std::thread::scope(|scope| {
        let mut senders = Vec::new();
        let mut waiters = Vec::new();
        for _ in 0..target.lanes() {
            let (tx, rx) = mpsc::channel::<Pending>();
            senders.push(tx);
            waiters.push(scope.spawn(move || {
                let mut done = Vec::new();
                for p in rx {
                    let wait_start = Instant::now();
                    let result = p.ticket.wait();
                    let returned = Instant::now();
                    let completion = match (&result, client_clock) {
                        (Ok(r), false) => p.sent + r.latency,
                        _ => returned,
                    };
                    done.push(Outcome {
                        seq: p.seq,
                        index: p.index,
                        due: p.due,
                        sent: p.sent,
                        submitted: p.submitted,
                        result,
                        wait_start,
                        returned,
                        completion,
                    });
                }
                done
            }));
        }
        let mut refused = Vec::new();
        let mut invalidations = 0u64;
        for (seq, ev) in events.iter().enumerate() {
            let due = start + ev.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            match ev.op {
                Op::Invalidate(i) => {
                    target.invalidate(population[i].address);
                    invalidations += 1;
                }
                Op::Classify(i) => {
                    let record = population[i].clone();
                    let lane = target.lane(record.address);
                    let sent = Instant::now();
                    let submitted = target.submit(record);
                    let at = Instant::now();
                    match submitted {
                        Ok(ticket) => senders[lane]
                            .send(Pending {
                                seq: seq as u64,
                                index: i,
                                due,
                                sent,
                                submitted: at,
                                ticket,
                            })
                            .expect("waiter thread alive"),
                        Err(e) => refused.push(Outcome {
                            seq: seq as u64,
                            index: i,
                            due,
                            sent,
                            submitted: at,
                            result: Err(e),
                            wait_start: at,
                            returned: at,
                            completion: at,
                        }),
                    }
                }
            }
        }
        drop(senders);
        for w in waiters {
            refused.extend(w.join().expect("waiter thread panicked"));
        }
        (refused, invalidations)
    });
    let end = Instant::now();
    outcomes.sort_by_key(|o| o.seq);
    PhaseRun {
        start,
        end,
        outcomes,
        invalidations,
        counters: Counters::since(&target.snapshot(), &before),
    }
}

/// The first request for an address after its invalidation must miss the
/// cache, and the one after that must hit again. Run on an idle engine so
/// no in-flight request for the address can refill the cache first.
pub fn invalidation_check(engine: &Engine, records: &[&AddressRecord]) -> Result<(), String> {
    for r in records {
        let classify = |what: &str| {
            engine
                .classify((*r).clone())
                .map_err(|e| format!("{what} request for {:?}: {e}", r.address))
        };
        classify("warm")?;
        engine.invalidate_address(r.address);
        if classify("post-invalidation")?.cache_hit {
            return Err(format!(
                "{:?}: first request after invalidation hit the cache",
                r.address
            ));
        }
        if !classify("repeat")?.cache_hit {
            return Err(format!(
                "{:?}: repeat request after a miss did not hit the cache",
                r.address
            ));
        }
    }
    Ok(())
}
