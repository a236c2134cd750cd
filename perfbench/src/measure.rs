//! Statistics, counter readers and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes (ops, runs or requests).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// Throughput of a set of serial ops.
pub fn ops_per_s(op_ms: &[f64]) -> f64 {
    op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3).max(f64::MIN_POSITIVE)
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// The top-level numeric fields of a struct's `Debug` form, e.g.
/// `CacheStats { hits: 3, misses: 1 }` → `{hits: 3, misses: 1}`.
/// Nested structs and sequences are skipped. Reading counters this way
/// keeps the benchmark independent of which counters a type has: a
/// counter that is removed simply drops out.
pub fn debug_counters(debug: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(open) = debug.find('{') else {
        return out;
    };
    let mut depth = 0usize;
    let mut field = String::new();
    let mut take = |field: &str| {
        if let Some((key, value)) = field.split_once(':') {
            if let Ok(v) = value.trim().parse::<f64>() {
                out.insert(key.trim().to_string(), v);
            }
        }
    };
    for c in debug[open + 1..].chars() {
        match c {
            '{' | '[' | '(' => depth += 1,
            '}' | ']' | ')' if depth == 0 => break,
            '}' | ']' | ')' => depth -= 1,
            ',' if depth == 0 => {
                take(&field);
                field.clear();
                continue;
            }
            _ => {}
        }
        if depth == 0 {
            field.push(c);
        }
    }
    take(&field);
    out
}

/// The numeric fields of a JSON object (the server's `stats` sections).
pub fn json_counters(obj: Option<&omega_repro::json::Json>) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(omega_repro::json::Json::Obj(fields)) = obj {
        for (key, value) in fields {
            if let Some(v) = value.as_i64() {
                out.insert(key.clone(), v as f64);
            }
        }
    }
    out
}

/// `after - before` for counters, `after` for the named gauges.
pub fn counter_delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    gauges: &[&str],
) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(k, &v)| {
            let base = if gauges.contains(&k.as_str()) {
                0.0
            } else {
                before.get(k).copied().unwrap_or(0.0)
            };
            (k.clone(), v - base)
        })
        .collect()
}

/// The last line of the benchmark's standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn debug_counters_skip_nested_fields() {
        let c = debug_counters("S { a: 1, b: 2.5, shards: [T { x: 9 }, T { x: 8 }], c: 3 }");
        assert_eq!(c.len(), 3);
        assert_eq!(c["a"], 1.0);
        assert_eq!(c["b"], 2.5);
        assert_eq!(c["c"], 3.0);
    }
}
