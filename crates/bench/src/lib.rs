//! The one helper the `bench_e2e` binary (`src/bin/bench_e2e/`, the
//! workspace's only benchmark — see `BENCHMARK.json`) takes from a
//! library: its stand-alone manifest depends on this crate for
//! [`percentile`].
#![forbid(unsafe_code)]

/// Nearest-rank percentile over an ascending-sorted sample, clamped on
/// both ends: `p` outside `[0, 1]` (or NaN) clamps into range, and the
/// computed rank clamps to the last element — so `p99` of a 2-element
/// sample is the maximum, never an out-of-range index, and a 1-element
/// sample answers every percentile with its only value. Empty samples
/// yield `NaN` (the report prints it as such rather than inventing a
/// latency).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    // NaN-safe: clamp on a non-NaN default rather than propagating.
    let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 1.0) };
    let idx = (((sorted.len() - 1) as f64 * p).round() as usize).min(sorted.len() - 1);
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_a_single_sample_answers_every_p() {
        let one = [42.0];
        assert_eq!(percentile(&one, 0.0), 42.0);
        assert_eq!(percentile(&one, 0.5), 42.0);
        assert_eq!(percentile(&one, 0.99), 42.0);
        assert_eq!(percentile(&one, 1.0), 42.0);
    }

    #[test]
    fn percentile_on_two_samples_clamps_p99_to_the_max() {
        let two = [1.0, 2.0];
        assert_eq!(percentile(&two, 0.0), 1.0);
        // Nearest-rank on the 0-based index: 0.5 rounds up.
        assert_eq!(percentile(&two, 0.5), 2.0);
        assert_eq!(percentile(&two, 0.99), 2.0, "p99 of n=2 is the max, not an index panic");
        assert_eq!(percentile(&two, 1.0), 2.0);
    }

    #[test]
    fn percentile_on_99_samples_stays_in_range() {
        // n = 99 < 100: the p99 rank (98·0.99 = 97.02 → 97) must stay a
        // valid index and sit strictly above p50.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 98.0);
        assert_eq!(percentile(&v, 1.0), 99.0);
    }

    #[test]
    fn percentile_clamps_malformed_p_and_handles_empty() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -0.5), 1.0);
        assert_eq!(percentile(&v, 1.5), 3.0, "p > 1 clamps instead of indexing out of range");
        assert_eq!(percentile(&v, f64::NAN), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
