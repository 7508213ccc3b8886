//! Metric arithmetic: percentiles with a minimum-sample rule, medians,
//! outcome tallies and the trace reconciliation. Kept free of I/O and
//! wall clocks so the self-tests below pin it exactly.

use std::fmt;

/// Samples that must lie beyond a percentile before it is reported: a
/// p90 needs at least 100 samples, a p50 at least 20.
pub const TAIL_SAMPLES: usize = 10;

/// A percentile asked of too few samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TooFewSamples {
    /// The percentile asked for, in `(0, 1)`.
    pub p: f64,
    /// Samples available.
    pub have: usize,
    /// Samples the percentile needs.
    pub need: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} needs >= {} samples, have {}",
            (self.p * 100.0).round(),
            self.need,
            self.have
        )
    }
}

/// Fewest samples for which `TAIL_SAMPLES` lie beyond percentile `p`.
pub fn min_samples(p: f64) -> usize {
    // The epsilon absorbs 1 - 0.9 = 0.09999999999999998.
    (TAIL_SAMPLES as f64 / (1.0 - p) - 1e-9).ceil() as usize
}

/// Nearest-rank percentile of `samples` (any order), refusing when fewer
/// than [`min_samples`] are available.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, TooFewSamples> {
    assert!(p > 0.0 && p < 1.0, "percentile must lie in (0, 1)");
    let need = min_samples(p);
    if samples.len() < need {
        return Err(TooFewSamples {
            p,
            have: samples.len(),
            need,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Ok(sorted[rank - 1])
}

/// Median of a small set (mean of the middle pair when even). Used for
/// repeated set-up timings and round times, where no tail is reported.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// For each index `j < reps`, the fastest of `samples[j]`,
/// `samples[j + reps]`, `samples[j + 2 * reps]`, ...: repeated takes of
/// the same work at different times, filtered the way the serving passes
/// filter request times.
pub fn fastest_per_index(samples: &[f64], reps: usize) -> Vec<f64> {
    (0..reps.min(samples.len()))
        .map(|j| {
            samples
                .iter()
                .skip(j)
                .step_by(reps)
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Median of each class's samples, averaged with the classes' sample
/// counts as weights. One class gives the plain median. A mix whose
/// classes form separate clusters (exchange: downlink ~200 ms, uplink
/// ~350 ms) would put a plain median on whichever cluster edge the
/// parity of the count picks; this stays between the clusters, and a
/// change to either class moves it.
pub fn class_median<C: Copy + PartialEq>(classes: &[C], samples: &[f64]) -> f64 {
    assert_eq!(classes.len(), samples.len(), "one class per sample");
    let mut seen: Vec<C> = Vec::new();
    let mut weighted = 0.0;
    for &c in classes {
        if seen.contains(&c) {
            continue;
        }
        seen.push(c);
        let xs: Vec<f64> = classes
            .iter()
            .zip(samples)
            .filter(|&(&k, _)| k == c)
            .map(|(_, &x)| x)
            .collect();
        weighted += xs.len() as f64 * median(&xs);
    }
    assert!(!seen.is_empty(), "median of nothing");
    weighted / samples.len() as f64
}

/// Outcome counts of one workload run. Every request the benchmark
/// submits is `attempted`, including the ones the engine sheds or
/// rejects without running.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests submitted (sessions scheduled, for the fabric).
    pub attempted: u64,
    /// Requests that delivered: payload CRC passed, or a fix was produced
    /// within the range band.
    pub delivered: u64,
    /// Sessions that ran and exhausted a retry budget.
    pub failed: u64,
    /// Requests dropped whole by the overload policy.
    pub shed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
}

impl Tally {
    /// Requests the serving system refused: shed whole or rejected.
    /// Sessions that ran and exhausted a retry budget are not refusals:
    /// they are the simulated channel's outcome, and count only in
    /// [`Tally::failed_frac`].
    pub fn refused(&self) -> u64 {
        self.shed + self.rejected
    }

    /// Delivered share of everything attempted.
    pub fn delivered_frac(&self) -> f64 {
        ratio(self.delivered, self.attempted)
    }

    /// Failed, shed and rejected share of everything attempted.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed + self.refused(), self.attempted)
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Reconciles stage self times against the untraced session time.
///
/// `session_ns` is the host time of every attempted request as measured
/// without tracing (shed and rejected requests included: their drains
/// cost time too); `stage_self_ns` is the sum of every traced stage's
/// self time, the serving overhead included. The residual is what no
/// stage accounts for, and is reported, never hidden.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconciliation {
    /// Untraced host time, nanoseconds.
    pub session_ns: f64,
    /// Sum of stage self times, nanoseconds.
    pub stage_self_ns: f64,
}

impl Reconciliation {
    /// `session_ns - stage_self_ns` (negative when the stages overshoot).
    pub fn residual_ns(&self) -> f64 {
        self.session_ns - self.stage_self_ns
    }

    /// `1 - stage_self_ns / session_ns`.
    pub fn residual_frac(&self) -> f64 {
        if self.session_ns > 0.0 {
            self.residual_ns() / self.session_ns
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_refuses_fewer_than_100_samples() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        let err = percentile(&xs, 0.9).expect_err("99 samples must be refused");
        assert_eq!((err.have, err.need), (99, 100));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Ok(90.0));
    }

    #[test]
    fn p50_needs_20_samples_and_takes_nearest_rank() {
        assert_eq!(min_samples(0.5), 20);
        assert!(percentile(&[1.0; 19], 0.5).is_err());
        let xs: Vec<f64> = (1..=21).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Ok(11.0));
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn fastest_per_index_takes_every_reps_th_sample() {
        let takes = [3.0, 1.0, 5.0, 2.0, 4.0, 6.0, 9.0, 9.0];
        assert_eq!(fastest_per_index(&takes, 3), vec![2.0, 1.0, 5.0]);
        assert_eq!(median(&fastest_per_index(&takes, 3)), 2.0);
        assert_eq!(fastest_per_index(&takes, 1), vec![1.0]);
        assert!(fastest_per_index(&[], 3).is_empty());
    }

    #[test]
    fn class_median_does_not_depend_on_count_parity() {
        // Two clusters, 1.0 and 10.0: the result is the count-weighted
        // mean of the cluster medians whether the count is odd or even.
        let odd = ([0, 1, 0, 1, 0], [1.0, 10.0, 1.0, 10.0, 1.0]);
        assert_eq!(class_median(&odd.0, &odd.1), (3.0 + 20.0) / 5.0);
        let even = ([0, 1, 0, 1], [1.0, 10.0, 1.0, 10.0]);
        assert_eq!(class_median(&even.0, &even.1), 5.5);
        // A change to the slower class alone moves it.
        let slower = ([0, 1, 0, 1], [1.0, 12.0, 1.0, 12.0]);
        assert_eq!(class_median(&slower.0, &slower.1), 6.5);
        // One class: the plain median.
        assert_eq!(class_median(&[7; 3], &[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn failed_frac_counts_shed_and_rejected_in_both_terms() {
        let t = Tally {
            attempted: 10,
            delivered: 6,
            failed: 1,
            shed: 2,
            rejected: 1,
        };
        // Shed and rejected requests never ran, but they were attempted.
        assert_eq!(t.failed_frac(), 0.4);
        assert_eq!(t.refused(), 3);
        assert_eq!(t.delivered_frac(), 0.6);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn residual_denominator_includes_unexecuted_requests() {
        // Two executed sessions of 40 ns each fully traced, plus a shed
        // and a rejected request whose 10 ns drains no stage covers.
        let drains = [40.0, 40.0, 10.0, 10.0];
        let r = Reconciliation {
            session_ns: drains.iter().sum(),
            stage_self_ns: 80.0,
        };
        assert_eq!(r.residual_ns(), 20.0);
        assert_eq!(r.residual_frac(), 0.2);
    }
}
