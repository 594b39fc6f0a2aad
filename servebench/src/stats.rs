//! Order statistics with the benchmark's sample-size rule: a tail
//! percentile is only reported when at least ten samples lie beyond it.

/// A percentile the sample cannot support.
#[derive(Debug, PartialEq)]
pub enum StatsError {
    /// No samples at all.
    Empty,
    /// Fewer samples than `need` for a tail percentile `p`.
    TooFewSamples {
        /// The percentile asked for.
        p: f64,
        /// Samples given.
        have: usize,
        /// Samples needed for ten beyond `p`.
        need: usize,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::Empty => write!(f, "no samples"),
            StatsError::TooFewSamples { p, have, need } => {
                write!(f, "p{p} needs {need} samples (ten beyond it), got {have}")
            }
        }
    }
}

/// Samples needed so that ten lie beyond percentile `p` (`p > 50`).
fn samples_needed(p: f64) -> usize {
    (1000.0 / (100.0 - p)).ceil() as usize
}

/// Nearest-rank percentile `p ∈ (50, 100)` of `values`, refused when
/// fewer than ten samples would lie beyond it (p90 needs 100, p75 40).
pub fn tail_percentile(values: &[f64], p: f64) -> Result<f64, StatsError> {
    assert!(
        p > 50.0 && p < 100.0,
        "tail percentile {p} out of (50, 100)"
    );
    let need = samples_needed(p);
    if values.len() < need {
        return Err(StatsError::TooFewSamples {
            p,
            have: values.len(),
            need,
        });
    }
    let sorted = sorted(values);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Ok(sorted[rank - 1])
}

/// Median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Result<f64, StatsError> {
    if values.is_empty() {
        return Err(StatsError::Empty);
    }
    let s = sorted(values);
    let n = s.len();
    Ok(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_refuses_fewer_than_100_samples() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&v, 90.0),
            Err(StatsError::TooFewSamples {
                p: 90.0,
                have: 99,
                need: 100
            })
        );
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90.0), Ok(90.0));
    }

    #[test]
    fn p75_needs_40_samples() {
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert!(tail_percentile(&v, 75.0).is_err());
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 75.0), Ok(30.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Ok(2.5));
        assert_eq!(median(&[]), Err(StatsError::Empty));
    }
}
