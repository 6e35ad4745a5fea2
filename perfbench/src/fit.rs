//! The fit phase: `BaClassifier::fit` at the paper configuration
//! (`BacConfig::default()`: slice 100, threads = all cores) on the fixed
//! training split, then `evaluate` on the held-out split.

use crate::trace::Tracer;
use baclassifier::{BaClassifier, BacConfig, FitReport};
use btcsim::Dataset;
use std::time::{Duration, Instant};

pub struct FitRun {
    /// Wall time of the `fit` call.
    pub fit: Duration,
    /// Wall time of fit plus evaluation — the phase.
    pub phase: Duration,
    pub macro_f1: f64,
    pub report: FitReport,
}

pub fn run(train: &Dataset, test: &Dataset, tracer: &mut Tracer) -> FitRun {
    let phase_span = tracer.begin("fit", None, None);
    let start = Instant::now();
    let mut clf = BaClassifier::new(BacConfig::default());
    let s = tracer.begin("train.fit", Some(phase_span), None);
    let report = clf.fit(train);
    tracer.end(s);
    let fit = start.elapsed();
    let s = tracer.begin("train.evaluate", Some(phase_span), None);
    let macro_f1 = clf.evaluate(test).macro_f1;
    tracer.end(s);
    let phase = start.elapsed();
    tracer.end(phase_span);
    FitRun {
        fit,
        phase,
        macro_f1,
        report,
    }
}
