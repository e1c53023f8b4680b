//! Metric collection and the report: human-readable lines, then the
//! one-line JSON result that ends every run.

use std::collections::BTreeMap;

use primecache::obs::Json;

/// Units of the reported metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Host seconds.
    S,
    /// Host milliseconds.
    Ms,
    /// Host microseconds.
    Us,
    /// Host nanoseconds.
    Ns,
    /// Host nanoseconds per simulated memory reference.
    NsPerRef,
    /// Host nanoseconds per trace event.
    NsPerEvent,
    /// Host nanoseconds per probe.
    NsPerProbe,
    /// Simulated memory references per host second.
    RefsPerS,
    /// Encoded bytes per memory reference.
    BytesPerRef,
    /// Mebibytes of host memory.
    MiB,
    /// A ratio of two host times.
    Ratio,
    /// A fraction.
    Frac,
    /// An exact count.
    Count,
}

impl Unit {
    /// The unit as printed.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::S => "s",
            Unit::Ms => "ms",
            Unit::Us => "us",
            Unit::Ns => "ns",
            Unit::NsPerRef => "ns/ref",
            Unit::NsPerEvent => "ns/event",
            Unit::NsPerProbe => "ns/probe",
            Unit::RefsPerS => "refs/s",
            Unit::BytesPerRef => "B/ref",
            Unit::MiB => "MiB",
            Unit::Ratio => "ratio",
            Unit::Frac => "frac",
            Unit::Count => "count",
        }
    }
}

/// A metric value: a measured float or an exact count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A measurement.
    F(f64),
    /// An exact count.
    N(u64),
}

/// One metric with where it was measured.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The value.
    pub value: Value,
    /// Its unit.
    pub unit: Unit,
    /// `workload` when measured on the workload's own inputs,
    /// `calibration:<workload>` when the workload does not exercise the
    /// layer and the figure comes from that workload's small
    /// calibration inputs.
    pub source: String,
}

/// A named set of metrics.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// Metrics by name.
    pub entries: BTreeMap<String, Entry>,
}

impl Layers {
    /// Sets a measured metric.
    pub fn put(&mut self, name: &str, value: f64, unit: Unit) {
        self.entries.insert(
            name.to_owned(),
            Entry {
                value: Value::F(value),
                unit,
                source: "workload".to_owned(),
            },
        );
    }

    /// Sets an exact count.
    pub fn put_count(&mut self, name: &str, value: u64) {
        self.entries.insert(
            name.to_owned(),
            Entry {
                value: Value::N(value),
                unit: Unit::Count,
                source: "workload".to_owned(),
            },
        );
    }

    /// Adds every metric of `other` missing here, tagged as calibration
    /// from workload `from`.
    pub fn fill_from(&mut self, other: &Layers, from: &str) {
        for (k, e) in &other.entries {
            self.entries.entry(k.clone()).or_insert_with(|| Entry {
                source: format!("calibration:{from}"),
                ..e.clone()
            });
        }
    }
}

/// Renders the result line: `correct`, `attempted`, `failed`
/// and `metrics` (each `{value, unit}`).
#[must_use]
pub fn result_line(metrics: &Layers, attempted: u64, failed: u64) -> String {
    let members = metrics
        .entries
        .iter()
        .map(|(k, e)| {
            let value = match e.value {
                Value::F(v) => Json::F64(v),
                Value::N(n) => Json::U64(n),
            };
            (
                k.clone(),
                Json::obj(vec![
                    ("value", value),
                    ("unit", Json::Str(e.unit.as_str().to_owned())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(members)),
    ])
    .render()
}

/// Human-readable metric lines, one per metric.
#[must_use]
pub fn metric_lines(metrics: &Layers) -> String {
    let mut out = String::new();
    for (k, e) in &metrics.entries {
        let v = match e.value {
            Value::F(v) => format!("{v:.6}"),
            Value::N(n) => n.to_string(),
        };
        let src = if e.source == "workload" {
            String::new()
        } else {
            format!("  [{}]", e.source)
        };
        out.push_str(&format!("  {k:<40} {v:>18} {}{src}\n", e.unit.as_str()));
    }
    out
}
