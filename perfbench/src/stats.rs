//! Order statistics over latency samples.

use std::time::Duration;

/// Samples of one measured quantity, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, duration: Duration) {
        self.values.push(duration.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// The `q` quantile (nearest rank over the sorted samples); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        quantile(&self.values, q)
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The `percentile`th percentile, if at least ten samples lie beyond it.
    pub fn tail(&self, percentile: f64) -> Option<f64> {
        let beyond = self.values.len() as f64 * (100.0 - percentile) / 100.0;
        if beyond >= 10.0 {
            self.quantile(percentile / 100.0)
        } else {
            None
        }
    }
}

pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_tails() {
        let samples = Samples {
            values: (1..=100).map(f64::from).collect(),
        };
        assert_eq!(samples.median(), Some(50.0));
        assert_eq!(samples.quantile(0.9), Some(90.0));
        // 100 samples: ten lie beyond the 90th percentile, five beyond the 95th.
        assert_eq!(samples.tail(90.0), Some(90.0));
        assert_eq!(samples.tail(95.0), None);
    }
}
