//! Seeded input generation: a splitmix64 stream, a Zipf sampler and the
//! open-loop Poisson arrival schedule. Everything here is computed before
//! timing starts, so the load generator only sleeps and submits.

use std::time::Duration;

/// splitmix64: tiny, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in 0..n (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Fisher–Yates permutation of 0..n.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Zipf(s) over ranks 0..n by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty population");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank at cumulative probability `u` in [0, 1).
    pub fn quantile(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability mass of the `k` most popular ranks.
    #[cfg(test)]
    pub fn head_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[k.min(self.cdf.len()) - 1]
        }
    }
}

/// How a phase's requests spread over the population.
pub enum Popularity {
    /// Zipf ranks mapped through a fixed permutation, so the hot set is a
    /// spread of history lengths rather than the dataset's first records.
    Zipf {
        zipf: Zipf,
        rank_to_index: Vec<usize>,
    },
    /// Every member equally likely, in a fixed permuted order.
    Uniform { order: Vec<usize> },
}

impl Popularity {
    /// The members `n` requests address: the mix's quantiles at evenly
    /// spaced probabilities `(j + offset) / n`, `offset` in [0, 1). This
    /// is stratified sampling — the multiset depends only on `n`, `offset`
    /// and the mix, so runs with different seeds request the same
    /// addresses as often, and only the order and timing differ. Phases
    /// use different offsets, so under a uniform mix each phase reaches a
    /// different part of the population.
    pub fn stratified(&self, n: usize, offset: f64) -> Vec<usize> {
        (0..n)
            .map(|j| {
                let u = (j as f64 + offset) / n as f64;
                match self {
                    Popularity::Zipf {
                        zipf,
                        rank_to_index,
                    } => rank_to_index[zipf.quantile(u)],
                    Popularity::Uniform { order } => {
                        order[((u * order.len() as f64) as usize).min(order.len() - 1)]
                    }
                }
            })
            .collect()
    }

    /// The `k` most requested members (all equally likely under a uniform
    /// mix, so the first `k` of its order).
    pub fn hottest(&self, k: usize) -> Vec<usize> {
        match self {
            Popularity::Zipf { rank_to_index, .. } => {
                rank_to_index.iter().take(k).copied().collect()
            }
            Popularity::Uniform { order } => order.iter().take(k).copied().collect(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Classify(usize),
    /// A cache invalidation for a population member, as a chain follower
    /// issues when an address's history advances.
    Invalidate(usize),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Offset from the phase start at which the operation is due.
    pub due: Duration,
    pub op: Op,
}

/// An open-loop schedule of `round(rate · length)` operations: arrival
/// times are that many uniform draws over `length`, sorted — a Poisson
/// process at `rate` conditioned on its count. The stratified members
/// (at `offset`) are shuffled over the arrivals, and every
/// `1 / invalidate_share`-th operation is an invalidation of its member
/// instead of a request.
pub fn poisson_schedule(
    seed: u64,
    offset: f64,
    rate: f64,
    length: Duration,
    invalidate_share: f64,
    popularity: &Popularity,
) -> Vec<Event> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = Rng::new(seed);
    let n = (rate * length.as_secs_f64()).round() as usize;
    let mut due: Vec<f64> = (0..n).map(|_| rng.unit() * length.as_secs_f64()).collect();
    due.sort_by(f64::total_cmp);
    let mut members = popularity.stratified(n, offset);
    for i in (1..n).rev() {
        members.swap(i, rng.below(i + 1));
    }
    let every = if invalidate_share > 0.0 {
        (1.0 / invalidate_share).round() as usize
    } else {
        usize::MAX
    };
    due.into_iter()
        .zip(members)
        .enumerate()
        .map(|(j, (t, m))| Event {
            due: Duration::from_secs_f64(t),
            op: if (j + 1) % every == 0 {
                Op::Invalidate(m)
            } else {
                Op::Classify(m)
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_mix(n: usize) -> Popularity {
        Popularity::Zipf {
            zipf: Zipf::new(n, 1.1),
            rank_to_index: permutation(n, 3),
        }
    }

    #[test]
    fn schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let mix = zipf_mix(500);
        let a = poisson_schedule(11, 0.5, 2000.0, Duration::from_millis(500), 0.01, &mix);
        let b = poisson_schedule(11, 0.5, 2000.0, Duration::from_millis(500), 0.01, &mix);
        let c = poisson_schedule(12, 0.5, 2000.0, Duration::from_millis(500), 0.01, &mix);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn seeds_change_order_and_timing_but_not_the_requested_multiset() {
        let mix = zipf_mix(300);
        let members = |seed| {
            let mut m: Vec<usize> =
                poisson_schedule(seed, 0.5, 1000.0, Duration::from_secs(1), 0.0, &mix)
                    .iter()
                    .map(|e| match e.op {
                        Op::Classify(i) | Op::Invalidate(i) => i,
                    })
                    .collect();
            m.sort_unstable();
            m
        };
        assert_eq!(members(1), members(2));
    }

    #[test]
    fn schedule_has_the_requested_count_ordering_and_share() {
        let mix = Popularity::Uniform {
            order: permutation(100, 1),
        };
        let events = poisson_schedule(5, 0.5, 4000.0, Duration::from_secs(2), 0.1, &mix);
        assert_eq!(events.len(), 8000);
        assert!(events.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(events.iter().all(|e| e.due < Duration::from_secs(2)));
        let inv = events
            .iter()
            .filter(|e| matches!(e.op, Op::Invalidate(_)))
            .count();
        assert_eq!(inv, 800);
        // Inter-arrival gaps of a Poisson process have mean 1/rate.
        let mean_gap = events.last().unwrap().due.as_secs_f64() / events.len() as f64;
        assert!(
            (mean_gap - 1.0 / 4000.0).abs() < 0.05 / 4000.0,
            "{mean_gap}"
        );
    }

    #[test]
    fn stratified_members_follow_the_mix() {
        let n = 4000;
        let zipf = Zipf::new(n, 1.1);
        let head = zipf.head_mass(100);
        let mix = Popularity::Zipf {
            zipf: Zipf::new(n, 1.1),
            rank_to_index: (0..n).collect(),
        };
        let draws = mix.stratified(100_000, 0.5);
        let share = draws.iter().filter(|&&r| r < 100).count() as f64 / draws.len() as f64;
        assert!((share - head).abs() < 1e-3, "{share} vs {head}");
        let uniform = Popularity::Uniform {
            order: (0..50).collect(),
        };
        let mut counts = [0usize; 50];
        for i in uniform.stratified(5000, 0.5) {
            counts[i] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100));
        // Different offsets reach different members when n is small.
        let a: Vec<usize> = uniform.stratified(10, 0.1);
        let b: Vec<usize> = uniform.stratified(10, 0.7);
        assert!(a.iter().all(|i| !b.contains(i)));
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut p = permutation(1000, 8);
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<_>>());
    }
}
