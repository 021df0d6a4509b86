//! Metrics exposition: a minimal metric-family model with Prometheus
//! text and JSON renders, unified with profile snapshots behind
//! [`ObsReport`].

use std::fmt::Write as _;

use crate::recorder::ProfileSnapshot;

/// Escapes a string for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The Prometheus metric type of a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One labelled sample within a [`MetricFamily`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Label pairs, e.g. `[("model", "vgg16d-f32")]`. May be empty.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// A named metric with a help string and labelled samples — the unit
/// of Prometheus exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    /// Metric name (`snake_case`, conventionally prefixed `wino_`).
    pub name: String,
    /// One-line human description.
    pub help: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// The samples.
    pub samples: Vec<MetricSample>,
}

impl MetricFamily {
    /// Convenience constructor for a single unlabelled sample.
    pub fn scalar(name: &str, help: &str, kind: MetricKind, value: f64) -> Self {
        Self {
            name: name.to_owned(),
            help: help.to_owned(),
            kind,
            samples: vec![MetricSample { labels: Vec::new(), value }],
        }
    }
}

/// Formats a float the way both exposition renders want it: integral
/// values print without a fractional part, everything else with full
/// round-trip precision.
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The single entry point for exposition: metric families plus an
/// optional phase profile, rendered as Prometheus text or JSON.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsReport {
    /// The metric families to expose.
    pub metrics: Vec<MetricFamily>,
    /// Aggregated span profile, when one was recorded.
    pub profile: Option<ProfileSnapshot>,
}

impl ObsReport {
    /// Renders the metric families in the Prometheus text exposition
    /// format (`# HELP` / `# TYPE` headers, one line per sample).
    /// The profile is not part of the text format — export it with
    /// [`ProfileSnapshot::render_tree`] or the JSON render.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for family in &self.metrics {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            for sample in &family.samples {
                if sample.labels.is_empty() {
                    let _ = writeln!(out, "{} {}", family.name, format_value(sample.value));
                } else {
                    let labels = sample
                        .labels
                        .iter()
                        .map(|(k, v)| format!("{k}=\"{}\"", prometheus_label_escape(v)))
                        .collect::<Vec<_>>()
                        .join(",");
                    let _ = writeln!(
                        out,
                        "{}{{{}}} {}",
                        family.name,
                        labels,
                        format_value(sample.value)
                    );
                }
            }
        }
        out
    }

    /// Renders the whole report (metrics and profile) as one JSON
    /// object: `{"metrics": [...], "profile": [...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (i, family) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"help\":\"{}\",\"kind\":\"{}\",\"samples\":[",
                json_escape(&family.name),
                json_escape(&family.help),
                family.kind.as_str(),
            );
            for (j, sample) in family.samples.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (k, (key, value)) in sample.labels.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":\"{}\"", json_escape(key), json_escape(value));
                }
                let _ = write!(out, "}},\"value\":{}}}", format_value(sample.value));
            }
            out.push_str("]}");
        }
        out.push(']');
        if let Some(profile) = &self.profile {
            let _ = write!(out, ",\"profile\":{}", profile.to_json());
        }
        out.push('}');
        out
    }
}

/// Escapes a Prometheus label value (backslash, quote, newline).
fn prometheus_label_escape(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}
