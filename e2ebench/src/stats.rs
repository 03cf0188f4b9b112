//! Sample-set helpers and the metric map the benchmark prints.

use std::collections::BTreeMap;

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample set, or
/// `None` when the set is empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Median of values carrying integer weights: the value where the
/// cumulative weight first reaches half the total, or the mean of two
/// neighbouring values when half the weight lies exactly on each side.
pub fn weighted_median(groups: &[(f64, usize)]) -> Option<f64> {
    let mut sorted: Vec<(f64, usize)> = groups.iter().copied().filter(|g| g.1 > 0).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: usize = sorted.iter().map(|g| g.1).sum();
    let mut cumulative = 0;
    for (i, &(value, weight)) in sorted.iter().enumerate() {
        cumulative += weight;
        if 2 * cumulative == total {
            return Some(
                sorted
                    .get(i + 1)
                    .map_or(value, |next| (value + next.0) / 2.0),
            );
        }
        if 2 * cumulative > total {
            return Some(value);
        }
    }
    None
}

/// Geometric mean of strictly positive values, or `None` when the set is
/// empty or holds a value that is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Arithmetic mean, or `None` for an empty set.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Whether `name` follows the metric-name grammar `[A-Za-z0-9_.-]+`,
/// starting with a letter or digit and at most 64 characters long.
pub fn valid_metric_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported number with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics by name, in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    /// Records a metric.  A missing (`None`) or non-finite value is a bug
    /// in the workload that produced it: it is recorded as NaN so the
    /// final result marks the run incorrect instead of printing a number.
    pub fn set(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        let name = name.into();
        debug_assert!(valid_metric_name(&name), "bad metric name {name}");
        let value = value.filter(|v| v.is_finite()).unwrap_or(f64::NAN);
        self.0.insert(name, Metric { value, unit });
    }

    pub fn get(&self, name: &str) -> Option<Metric> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &Metric)> {
        self.0.iter()
    }
}

/// Formats a number as JSON with all its digits (`f64`'s shortest exact
/// round-trip form).
pub fn json_number(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn weighted_median_picks_the_middle_weight() {
        // Twelve equally weighted inputs: the middle two are averaged.
        let equal: Vec<(f64, usize)> = (1..=12).map(|v| (f64::from(v), 10)).collect();
        assert_eq!(weighted_median(&equal), Some(6.5));
        // One input holding most requests decides the median.
        assert_eq!(
            weighted_median(&[(0.01, 80), (2.0, 15), (9.0, 5)]),
            Some(0.01)
        );
        assert_eq!(weighted_median(&[(3.0, 1), (1.0, 1), (2.0, 1)]), Some(2.0));
        assert_eq!(weighted_median(&[(5.0, 4)]), Some(5.0));
        assert_eq!(weighted_median(&[(1.0, 2), (3.0, 2)]), Some(2.0));
        assert_eq!(weighted_median(&[(1.0, 21), (3.0, 19)]), Some(1.0));
        assert_eq!(weighted_median(&[(5.0, 0)]), None);
        assert_eq!(weighted_median(&[]), None);
    }

    #[test]
    fn geomean_and_mean() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "core.qap-mapping_ms",
            "cold.QAOA-REG-3.n200.2QAN-noise_ms",
            "2QAN",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "a b", "ms/s", "x\"y", "é", &"a".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(-12.5), "-12.5");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn missing_values_become_nan() {
        let mut m = Metrics::default();
        m.set("x_ms", None, "ms");
        m.set("y_ms", Some(f64::INFINITY), "ms");
        m.set("z_ms", Some(1.5), "ms");
        assert!(m.get("x_ms").unwrap().value.is_nan());
        assert!(m.get("y_ms").unwrap().value.is_nan());
        assert_eq!(m.get("z_ms").unwrap().value, 1.5);
    }
}
