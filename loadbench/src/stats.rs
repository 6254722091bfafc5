//! Sample summaries and the printed result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// A named percentile needs this many samples strictly above its rank;
/// with fewer, one outlier moves it.
pub const MIN_BEYOND: usize = 10;

/// A percentile the sample cannot support.
#[derive(Debug, PartialEq)]
pub struct Refused {
    /// The percentile asked for, in `(0, 1)`.
    pub p: f64,
    /// How many samples there were.
    pub samples: usize,
}

impl std::fmt::Display for Refused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} needs {MIN_BEYOND} samples beyond it, the run has {} in all",
            self.p * 100.0,
            self.samples
        )
    }
}

/// Nearest-rank percentile `p` of `values`, refused unless at least
/// [`MIN_BEYOND`] samples lie beyond the rank.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, Refused> {
    let n = values.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n.saturating_sub(rank) < MIN_BEYOND {
        return Err(Refused { p, samples: n });
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Each distinct request's best (lowest) latency over its first
/// `repeats` repeats.
///
/// On a shared machine, interference from outside the process only ever
/// adds time, in bursts far shorter than a run; a request repeated across
/// the run has some repeats it missed. The best repeat is the request's
/// own cost, queueing behind the workload's other traffic included, so
/// percentiles over distinct requests ([`Best::values`]) move with the
/// program more than with the host. The best of more repeats reads lower,
/// so the count is fixed: a slow run that sends fewer repeats in all must
/// not read slower for that alone.
#[derive(Debug)]
pub struct Best {
    repeats: usize,
    /// Per request: its best so far and how many repeats were seen.
    by_key: BTreeMap<u64, (f64, usize)>,
}

impl Best {
    pub fn first(repeats: usize) -> Best {
        Best { repeats, by_key: BTreeMap::new() }
    }

    /// Records one repeat of request `key` that took `ms`.
    pub fn add(&mut self, key: u64, ms: f64) {
        let (best, seen) = self.by_key.entry(key).or_insert((f64::INFINITY, 0));
        if *seen < self.repeats {
            *best = best.min(ms);
        }
        *seen += 1;
    }

    /// Folds in another stream's requests, whose keys differ from these.
    pub fn merge(&mut self, other: Best) {
        self.by_key.extend(other.by_key);
    }

    /// One best latency per distinct request, in key order.
    pub fn values(&self) -> Vec<f64> {
        self.by_key.values().map(|&(best, _)| best).collect()
    }
}

/// Median of a handful of repeats (set-up times, kernel timings); 0 when
/// there are none. Unlike [`percentile`] it names no distribution tail.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean; 0 when there are no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds, with sub-nanosecond digits kept.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric { name, value, unit, samples }
    }
}

/// What one run prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// One line per metric (name, value, unit, sample count), for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{:<32} {:>14.4} {:<6} n={}", m.name, m.value, m.unit, m.samples);
        }
        let _ = writeln!(
            out,
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        out
    }

    /// The single-line JSON result. Values keep every digit `f64` prints.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Ok(90.0));
        assert_eq!(percentile(&hundred[..99], 0.9), Err(Refused { p: 0.9, samples: 99 }));
        assert_eq!(percentile(&hundred[..20], 0.5), Ok(10.0));
        assert!(percentile(&hundred[..19], 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn best_keeps_each_requests_fastest_of_its_first_repeats() {
        let mut best = Best::first(2);
        for (key, ms) in [(2, 5.0), (1, 3.0), (2, 4.0), (1, 30.0), (2, 1.0), (1, 2.0)] {
            best.add(key, ms);
        }
        let mut other = Best::first(2);
        other.add(3, 7.0);
        best.merge(other);
        assert_eq!(best.values(), vec![3.0, 4.0, 7.0]);
        assert!(Best::first(2).values().is_empty());
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_keeps_every_digit() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.123456789012, "s", 5)],
        };
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}}}"
        );
    }
}
