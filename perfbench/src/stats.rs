//! Exact order statistics over client-side samples.

/// Nearest-rank quantile: the smallest sample with at least `q` of the
/// samples at or below it. Exact — no bucketing. `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] over samples already sorted ascending.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Samples strictly above the `q` quantile; a percentile is only worth
/// reporting with at least ten of them.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    match quantile(samples, q) {
        Some(v) => samples.iter().filter(|&&s| s > v).count(),
        None => 0,
    }
}

/// An up-down staircase over ascending `rungs`: each result moves it up a
/// pass or down a fail by the current jump, and each reversal halves the
/// jump until it is one rung. Its estimate is the geometric mean of the
/// rungs tried once the jump was one rung, which settles where a pass is
/// as likely as a fail.
pub struct Staircase {
    rungs: Vec<f64>,
    at: usize,
    jump: usize,
    last: Option<bool>,
    /// (rung, tried with a one-rung jump) per result.
    tried: Vec<(f64, bool)>,
}

impl Staircase {
    pub fn new(rungs: Vec<f64>, start: usize, jump: usize) -> Self {
        assert!(!rungs.is_empty(), "a staircase needs rungs");
        Staircase {
            at: start.min(rungs.len() - 1),
            rungs,
            jump: jump.max(1),
            last: None,
            tried: Vec::new(),
        }
    }

    /// The rung to try next.
    pub fn rung(&self) -> f64 {
        self.rungs[self.at]
    }

    pub fn record(&mut self, pass: bool) {
        self.tried.push((self.rung(), self.jump == 1));
        if self.last.is_some_and(|last| last != pass) {
            self.jump = (self.jump / 2).max(1);
        }
        self.last = Some(pass);
        self.at = if pass {
            (self.at + self.jump).min(self.rungs.len() - 1)
        } else {
            self.at.saturating_sub(self.jump)
        };
    }

    /// Geometric mean of the rungs tried with a one-rung jump, or of every
    /// rung tried if the jump never got there; `None` before any result.
    pub fn estimate(&self) -> Option<f64> {
        let settled: Vec<f64> = self.tried.iter().filter(|t| t.1).map(|t| t.0).collect();
        let rungs = if settled.is_empty() {
            self.tried.iter().map(|t| t.0).collect()
        } else {
            settled
        };
        mean(&rungs.iter().map(|r| r.ln()).collect::<Vec<_>>()).map(f64::exp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Rng;

    /// Reference: sort everything, index by the nearest-rank formula.
    fn by_full_sort(samples: &[f64], q: f64) -> f64 {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let k = ((q * s.len() as f64).ceil() as usize).max(1);
        s[k - 1]
    }

    #[test]
    fn quantiles_equal_a_full_sort() {
        let mut rng = Rng::new(42);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 4097] {
            let samples: Vec<f64> = (0..n).map(|_| (rng.unit() * 1000.0).round()).collect();
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    quantile(&samples, q),
                    Some(by_full_sort(&samples, q)),
                    "n {n} q {q}"
                );
            }
        }
    }

    #[test]
    fn quantiles_handle_ties_and_small_inputs() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[5.0, 1.0, 9.0, 3.0], 0.99), Some(9.0));
        assert_eq!(quantile(&[5.0, 1.0, 9.0, 3.0], 0.25), Some(1.0));
        assert_eq!(
            beyond(&(1..=1000).map(f64::from).collect::<Vec<_>>(), 0.99),
            10
        );
    }

    fn geometric(n: usize) -> Vec<f64> {
        (0..n).map(|k| 1000.0 * 1.05f64.powi(k as i32)).collect()
    }

    #[test]
    fn staircase_halves_its_jump_at_each_reversal() {
        let rungs = geometric(40);
        let mut s = Staircase::new(rungs.clone(), 20, 4);
        let mut at = vec![];
        for pass in [true, false, true, false, false, true] {
            at.push(s.rung());
            s.record(pass);
        }
        // up 4, reversal -> down 2, reversal -> up 1, reversal, down 1, reversal, up 1.
        let want: Vec<f64> = [20, 24, 22, 23, 22, 21].iter().map(|&k| rungs[k]).collect();
        assert_eq!(at, want);
        // Only results tried with a one-rung jump count.
        let settled = [23, 22, 21].map(|k| rungs[k].ln());
        let want = (settled.iter().sum::<f64>() / 3.0).exp();
        assert!((s.estimate().unwrap() - want).abs() < 1e-9);
    }

    #[test]
    fn staircase_settles_on_a_sharp_threshold() {
        let rungs = geometric(40);
        for threshold in [1100.0, 2345.0, 4000.0] {
            let mut s = Staircase::new(rungs.clone(), 20, 4);
            for _ in 0..30 {
                let pass = s.rung() <= threshold;
                s.record(pass);
            }
            let e = s.estimate().unwrap();
            assert!(
                e > threshold / 1.05 && e < threshold * 1.05,
                "threshold {threshold}: estimate {e}"
            );
        }
    }

    #[test]
    fn staircase_stays_within_its_rungs() {
        let rungs = geometric(10);
        let mut s = Staircase::new(rungs.clone(), 50, 4);
        assert_eq!(s.estimate(), None);
        for _ in 0..5 {
            s.record(true);
        }
        assert_eq!(s.rung(), rungs[9]);
        // Never reversed, so never settled: every rung tried counts.
        assert!((s.estimate().unwrap() - rungs[9]).abs() < 1e-9);
        for _ in 0..8 {
            s.record(false);
        }
        assert_eq!(s.rung(), rungs[0]);
    }
}
