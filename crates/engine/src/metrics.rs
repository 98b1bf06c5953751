//! A unified metrics registry: the single export path for run reports.
//!
//! Components register metrics by name; JSON and CSV are rendered from
//! the same flattened rows, so the two formats agree field-for-field by
//! construction (previously each output path hand-rolled its own format
//! strings and they drifted).
//!
//! # Example
//!
//! ```
//! use cmpsim_engine::metrics::MetricsRegistry;
//!
//! let mut m = MetricsRegistry::new();
//! m.set_text("workload", "TP");
//! m.set_counter("cycles", 1234);
//! m.set_gauge("l2_hit_rate", 0.875);
//! assert!(m.to_json().contains("\"cycles\":1234"));
//! let (header, row) = m.to_csv();
//! assert_eq!(header, "workload,cycles,l2_hit_rate");
//! assert_eq!(row, "TP,1234,0.875000");
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::stats::Log2Histogram;

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic integer count.
    Counter(u64),
    /// Point-in-time float (rates, means).
    Gauge(f64),
    /// Distribution, exported as `name.count/.mean/.p50/.p95/.p99/.max`.
    /// Boxed: a histogram is ~0.5 KB and would otherwise dominate the
    /// enum's size for every counter in the registry.
    Histogram(Box<Log2Histogram>),
    /// Label (workload name, policy name). Quoted in JSON, raw in CSV.
    Text(String),
}

/// A flattened scalar cell, shared by the JSON and CSV renderers.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricScalar {
    /// Rendered as a bare integer.
    U64(u64),
    /// Rendered as a fixed-precision float (6 places) in both formats.
    F64(f64),
    /// Rendered quoted in JSON, raw in CSV.
    Text(String),
}

impl MetricScalar {
    fn json_value(&self) -> String {
        match self {
            MetricScalar::U64(v) => v.to_string(),
            MetricScalar::F64(v) => format_f64(*v),
            MetricScalar::Text(t) => format!("\"{t}\""),
        }
    }

    fn csv_value(&self) -> String {
        match self {
            MetricScalar::U64(v) => v.to_string(),
            MetricScalar::F64(v) => format_f64(*v),
            MetricScalar::Text(t) => t.clone(),
        }
    }
}

/// One shared float rendering so JSON and CSV can never disagree.
fn format_f64(v: f64) -> String {
    format!("{v:.6}")
}

/// Ordered name → metric map with JSON/CSV export.
///
/// Insertion order is preserved: export columns appear in the order the
/// metrics were first registered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: Vec<(String, Metric)>,
    index: HashMap<String, usize>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered metrics (histograms count once).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.index.get(name).map(|&i| &self.entries[i].1)
    }

    /// Registered `(name, metric)` pairs in insertion order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.entries.iter().map(|(n, m)| (n.as_str(), m))
    }

    fn upsert(&mut self, name: &str, metric: Metric) -> &mut Metric {
        match self.index.get(name) {
            Some(&i) => {
                self.entries[i].1 = metric;
                &mut self.entries[i].1
            }
            None => {
                self.index.insert(name.to_string(), self.entries.len());
                self.entries.push((name.to_string(), metric));
                &mut self.entries.last_mut().unwrap().1
            }
        }
    }

    /// Sets (or replaces) a counter.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.upsert(name, Metric::Counter(value));
    }

    /// Sets (or replaces) a gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.upsert(name, Metric::Gauge(value));
    }

    /// Sets (or replaces) a text label.
    pub fn set_text(&mut self, name: &str, value: impl Into<String>) {
        self.upsert(name, Metric::Text(value.into()));
    }

    /// Sets (or replaces) a histogram with a copy of `h`.
    pub fn set_histogram(&mut self, name: &str, h: &Log2Histogram) {
        self.upsert(name, Metric::Histogram(Box::new(h.clone())));
    }

    /// Flattens to `(name, scalar)` rows: counters/gauges/text pass
    /// through; a histogram named `h` becomes `h.count`, `h.mean`,
    /// `h.p50`, `h.p95`, `h.p99`, `h.max`.
    pub fn flat_rows(&self) -> Vec<(String, MetricScalar)> {
        let mut rows = Vec::with_capacity(self.entries.len());
        for (name, metric) in &self.entries {
            match metric {
                Metric::Counter(v) => rows.push((name.clone(), MetricScalar::U64(*v))),
                Metric::Gauge(v) => rows.push((name.clone(), MetricScalar::F64(*v))),
                Metric::Text(t) => rows.push((name.clone(), MetricScalar::Text(t.clone()))),
                Metric::Histogram(h) => {
                    rows.push((format!("{name}.count"), MetricScalar::U64(h.count())));
                    rows.push((format!("{name}.mean"), MetricScalar::F64(h.mean())));
                    rows.push((format!("{name}.p50"), MetricScalar::U64(h.percentile(0.50))));
                    rows.push((format!("{name}.p95"), MetricScalar::U64(h.percentile(0.95))));
                    rows.push((format!("{name}.p99"), MetricScalar::U64(h.percentile(0.99))));
                    rows.push((format!("{name}.max"), MetricScalar::U64(h.max())));
                }
            }
        }
        rows
    }

    /// Renders one flat JSON object from [`MetricsRegistry::flat_rows`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.flat_rows().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{}", value.json_value());
        }
        out.push('}');
        out
    }

    /// Renders a `(header, row)` CSV pair from the same rows as
    /// [`MetricsRegistry::to_json`].
    pub fn to_csv(&self) -> (String, String) {
        let rows = self.flat_rows();
        let header = rows
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(",");
        let row = rows
            .iter()
            .map(|(_, v)| v.csv_value())
            .collect::<Vec<_>>()
            .join(",");
        (header, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.set_text("workload", "TP");
        m.set_counter("cycles", 100);
        m.set_gauge("rate", 0.5);
        let mut h = Log2Histogram::new();
        h.add(10);
        h.add(100);
        m.set_histogram("lat", &h);
        m
    }

    #[test]
    fn insertion_order_preserved() {
        let m = sample();
        let names: Vec<&str> = m.entries().map(|(n, _)| n).collect();
        assert_eq!(names, ["workload", "cycles", "rate", "lat"]);
    }

    #[test]
    fn upsert_replaces_in_place() {
        let mut m = sample();
        m.set_counter("cycles", 200);
        assert_eq!(m.get("cycles"), Some(&Metric::Counter(200)));
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn json_and_csv_agree_field_for_field() {
        let m = sample();
        let json = m.to_json();
        let (header, row) = m.to_csv();
        let cols: Vec<&str> = header.split(',').collect();
        let vals: Vec<&str> = row.split(',').collect();
        assert_eq!(cols.len(), vals.len());
        for (c, v) in cols.iter().zip(&vals) {
            // Every CSV cell appears as the same key:value in the JSON
            // (text cells are quoted there).
            let quoted = format!("\"{c}\":\"{v}\"");
            let bare = format!("\"{c}\":{v}");
            assert!(
                json.contains(&quoted) || json.contains(&bare),
                "column {c}={v} missing from JSON {json}"
            );
        }
    }

    #[test]
    fn histogram_flattens_to_six_scalars() {
        let m = sample();
        let rows = m.flat_rows();
        let lat: Vec<&str> = rows
            .iter()
            .filter(|(n, _)| n.starts_with("lat."))
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(
            lat,
            [
                "lat.count",
                "lat.mean",
                "lat.p50",
                "lat.p95",
                "lat.p99",
                "lat.max"
            ]
        );
    }

    #[test]
    fn json_shape_is_balanced() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('"').count() % 2, 0);
    }
}
