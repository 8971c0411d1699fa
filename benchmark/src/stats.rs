//! Order statistics over a handful of repetitions.

use crate::json::Value;

/// Five-number summary of the repetitions behind one metric. The
/// quartiles follow Python's `statistics.quantiles(values, n=4)`
/// (exclusive method), so the spreads printed here are the ones the
/// benchmark driver computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// A value that is computed, not sampled (counts, simulated
    /// statistics): every field is that value.
    pub fn exact(v: f64) -> Self {
        Summary::of(&[v])
    }

    /// # Panics
    ///
    /// Panics on an empty slice or a NaN sample.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let [q1, median, q3] = quartiles(&s);
        Summary {
            n: s.len(),
            min: s[0],
            q1,
            median,
            q3,
            max: s[s.len() - 1],
        }
    }

    /// Interquartile range as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Value {
        Value::obj([
            ("n", Value::Num(self.n as f64)),
            ("min", Value::Num(self.min)),
            ("q1", Value::Num(self.q1)),
            ("median", Value::Num(self.median)),
            ("q3", Value::Num(self.q3)),
            ("max", Value::Num(self.max)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Self> {
        Some(Summary {
            n: v.get("n")?.as_f64()? as usize,
            min: v.get("min")?.as_f64()?,
            q1: v.get("q1")?.as_f64()?,
            median: v.get("median")?.as_f64()?,
            q3: v.get("q3")?.as_f64()?,
            max: v.get("max")?.as_f64()?,
        })
    }
}

/// Quartiles of an ascending slice.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(Summary::of(&v).spread(), 1.0);
        assert_eq!(Summary::exact(3.0).spread(), 0.0);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[1.5, 2.25, 9.0, 4.0]);
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }
}
