//! What a workload run hands back, and the timing helpers every workload
//! shares.

use crate::stats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Counts, metric values and human-readable notes of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Metric values by name, end-to-end and per-layer alike.
    pub values: BTreeMap<&'static str, f64>,
    /// Lines printed before the result, one finding each.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation or check; a failed one is also noted.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Add a human-readable note.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record the median pass time, noting every pass.
    pub fn set_passes(&mut self, pass_secs: &[f64]) {
        self.set("pass_s", stats::median(pass_secs));
        let each: Vec<String> = pass_secs.iter().map(|s| format!("{s:.3}")).collect();
        self.note(format!("passes (s): {}", each.join(" ")));
    }

    /// Record the per-operation metrics from each pass's operation times:
    /// the median of all of them, and the tail. The tail percentile is the
    /// highest that leaves ten samples beyond it at the `guaranteed` sample
    /// count of a run; it is read in every pass and the median over passes
    /// is reported. A pass holds each app or tenant once, so a percentile
    /// of the pooled samples would be the maximum of a few samples of one
    /// app, not a robust figure.
    pub fn set_ops(&mut self, per_pass_ms: &[Vec<f64>], guaranteed: usize) {
        let p = stats::tail_percentile(guaranteed)
            .expect("every workload guarantees at least 20 operations");
        let all: Vec<f64> = per_pass_ms.iter().flatten().copied().collect();
        let tails: Vec<f64> = per_pass_ms
            .iter()
            .filter(|pass| !pass.is_empty())
            .map(|pass| stats::percentile(pass, p))
            .collect();
        self.set("op_p50_ms", stats::median(&all));
        self.set("op_tail_ms", stats::median(&tails));
        self.note(format!(
            "operations: {} samples in {} passes, tail = p{p} (at least {guaranteed} samples per run)",
            all.len(),
            tails.len()
        ));
    }
}

/// Run `build` `reps` times, keeping the last product; returns it with
/// the median build time in seconds.
pub fn setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(reps);
    let mut product = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        product = Some(build());
        secs.push(t.elapsed().as_secs_f64());
    }
    (
        product.expect("at least one set-up ran"),
        stats::median(&secs),
    )
}

/// Measures passes until at least `min_passes` ran and `budget` elapsed.
pub struct Passes {
    start: Instant,
    budget: Duration,
    min_passes: usize,
    done: usize,
}

impl Passes {
    pub fn new(seconds: u64, min_passes: usize) -> Self {
        Passes {
            start: Instant::now(),
            budget: Duration::from_secs(seconds),
            min_passes,
            done: 0,
        }
    }

    /// The index of the next pass, or `None` once the run is over.
    pub fn next_pass(&mut self) -> Option<usize> {
        if self.done >= self.min_passes && self.start.elapsed() >= self.budget {
            return None;
        }
        self.done += 1;
        Some(self.done - 1)
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB, from `/proc/self/status`.
///
/// # Panics
///
/// Where the kernel does not report `VmHWM`: the metric cannot be measured.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_respect_minimum_and_budget() {
        let mut p = Passes::new(0, 3);
        let got: Vec<usize> = std::iter::from_fn(|| p.next_pass()).collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn check_counts_failures() {
        let mut o = Outcome::default();
        o.check(true, || "fine".into());
        o.check(false, || "broken".into());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert_eq!(o.notes, vec!["FAILED: broken".to_owned()]);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
