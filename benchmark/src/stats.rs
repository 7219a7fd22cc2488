//! The benchmark's arithmetic: the percentile rule and the two derived
//! quantities whose definitions are easy to get subtly wrong (time outside
//! the step rows and `lm.exec_hidden_aux_share`). Pure functions,
//! unit-tested below.

/// Sorted copy of `xs` (timings are finite, so total order is safe).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle value, or the mean of the two middle values.
///
/// # Panics
///
/// Panics on an empty slice — every caller measures at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile in [50, 100), value)`. With fewer than 20 samples no
/// percentile above the median qualifies, so the median is returned and
/// labelled 50 — the caller prints the label next to the value.
pub fn high_percentile(xs: &[f64]) -> (f64, f64) {
    let n = xs.len();
    if n < 20 {
        return (50.0, median(xs));
    }
    // Ten samples lie strictly beyond index n − 11 of the sorted values.
    let v = sorted(xs);
    let idx = n - 11;
    (100.0 * (idx + 1) as f64 / n as f64, v[idx])
}

/// Whether two loss histories are equal to the bit (`==` on floats would
/// call `-0.0` and `0.0` equal and a NaN unequal to itself).
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What a run spent outside its step rows: externally timed wall-clock
/// minus the time the rows account for (construction, plan lowering,
/// thread spawn/join, per-step work the rows do not cover). Conservation —
/// `wall = outside + Σ rows` — is what lets work moved out of a step show.
pub fn outside_steps_s(wall_s: f64, step_ms: &[f64]) -> f64 {
    wall_s - step_ms.iter().sum::<f64>() / 1e3
}

/// Share of the K-FAC work that bubble filling hid: `1 − tail(fill) /
/// tail(nofill)`. Uses only tail time, whose meaning is unambiguous (the
/// executor's `bubble_aux_ms` also counts tail work). Zero when the
/// unfilled run had no tail work to hide.
pub fn hidden_aux_share(tail_fill_ms: f64, tail_nofill_ms: f64) -> f64 {
    if tail_nofill_ms <= 0.0 {
        return 0.0;
    }
    1.0 - tail_fill_ms / tail_nofill_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond_it() {
        // 240 steps: samples 1..=240, the value at p95.8 is 230, and
        // exactly ten samples (231..=240) lie beyond it.
        let xs: Vec<f64> = (1..=240).map(f64::from).collect();
        let (pct, value) = high_percentile(&xs);
        assert_eq!(value, 230.0);
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 100.0 * 230.0 / 240.0).abs() < 1e-12);
        // 60 steps → p83.3.
        let xs: Vec<f64> = (1..=60).map(f64::from).collect();
        let (pct, value) = high_percentile(&xs);
        assert_eq!(value, 50.0);
        assert!((pct - 100.0 * 50.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn high_percentile_falls_back_to_the_median_below_twenty_samples() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(high_percentile(&xs), (50.0, 10.0));
        // At exactly 20 the rule starts to bite: index 9 is p50.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(high_percentile(&xs), (50.0, 10.0));
    }

    #[test]
    fn same_bits_is_bitwise_not_numeric() {
        assert!(same_bits(&[1.5, f64::NAN], &[1.5, f64::NAN]));
        assert!(!same_bits(&[0.0], &[-0.0]));
        assert!(!same_bits(&[1.0], &[1.0, 2.0]));
        assert!(!same_bits(&[1.0], &[1.0 + f64::EPSILON]));
    }

    #[test]
    fn time_outside_steps_plus_step_rows_is_the_wall() {
        let steps = [100.0, 250.0, 150.0];
        let wall = 0.8;
        let outside = outside_steps_s(wall, &steps);
        assert!((outside - 0.3).abs() < 1e-12);
        assert!((outside + steps.iter().sum::<f64>() / 1e3 - wall).abs() < 1e-12);
    }

    #[test]
    fn hidden_aux_share_arithmetic() {
        assert!((hidden_aux_share(93.0, 100.0) - 0.07).abs() < 1e-12);
        assert_eq!(hidden_aux_share(0.0, 100.0), 1.0);
        assert_eq!(hidden_aux_share(5.0, 0.0), 0.0);
        // Filling that *adds* tail work reads negative, not clamped.
        assert!(hidden_aux_share(110.0, 100.0) < 0.0);
    }
}
