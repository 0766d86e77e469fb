//! Named metrics with units, and the report of one run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use chronos_json::{obj, Value};

#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// Sets the metric only when it has a value (no sample, no metric).
    pub fn opt(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(value) = value {
            self.set(name, value, unit);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    pub fn merge(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for the selected names.
    pub fn to_json<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> Value {
        let mut out = chronos_json::Map::new();
        for name in names {
            if let Some((value, unit)) = self.0.get(name) {
                out.insert(name.to_string(), obj! { "value" => *value, "unit" => *unit });
            }
        }
        Value::Object(out)
    }
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the load attempted (requests and jobs).
    pub attempted: u64,
    /// Operations that failed, were refused or shed.
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub errors: Vec<String>,
    /// Per-repetition values (set-ups, rounds, recoveries) for the record.
    pub repetitions: BTreeMap<String, Vec<f64>>,
    /// When each repetition series began.
    pub started: BTreeMap<String, Instant>,
}

impl Outcome {
    pub fn repetition(&mut self, name: &str, value: f64) {
        let began = Instant::now() - Duration::from_secs_f64(value);
        self.started.entry(name.to_string()).or_insert(began);
        self.repetitions.entry(name.to_string()).or_default().push(value);
    }

    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(message());
        }
    }
}
