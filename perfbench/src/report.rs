//! What a run found, and how it is printed: a table of the named metrics,
//! the run conditions and checks, then one JSON result line.

use std::fmt::Write as _;

use crate::checks::Check;
use crate::measure::Percentile;

/// One named metric of a workload, as the README's metric table defines it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count and samples beyond a percentile, or how a value was
    /// reduced (e.g. "median of 3 cycles").
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, note: impl Into<String>) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            note: note.into(),
        }
    }

    /// A percentile in milliseconds, noted with its sample counts.
    pub fn percentile(name: &str, p: Option<Percentile>) -> Self {
        match p {
            Some(p) => Metric::new(
                name,
                "ms",
                p.value,
                format!("n={} beyond={}", p.samples, p.beyond),
            ),
            None => Metric::new(name, "ms", f64::NAN, "n=0"),
        }
    }
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// The workload's named metrics (the README's metric table).
    pub named: Vec<Metric>,
    /// The values of the JSON line: `(BENCHMARK.json name, named metric
    /// it carries on this workload)`.
    pub roles: Vec<(&'static str, String)>,
    pub conditions: Vec<(String, String)>,
    /// Per-layer metrics of a traced run.
    pub layers: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    pub fn named(&self, name: &str) -> Option<&Metric> {
        self.named.iter().find(|m| m.name == name)
    }

    pub fn condition(&mut self, key: &str, value: impl ToString) {
        self.conditions.push((key.to_string(), value.to_string()));
    }

    /// The end-to-end metrics under their `BENCHMARK.json` names.
    pub fn role_metrics(&self) -> Vec<Metric> {
        self.roles
            .iter()
            .filter_map(|(role, source)| {
                let m = self.named(source)?;
                Some(Metric::new(role, m.unit, m.value, source.clone()))
            })
            .collect()
    }

    /// The human-readable report (everything before the JSON line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "perfbench {}:", self.workload);
        for (key, value) in &self.conditions {
            let _ = writeln!(out, "  condition  {key:<26} {value}");
        }
        for m in &self.named {
            let _ = writeln!(
                out,
                "  metric     {:<26} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for m in &self.layers {
            let _ = writeln!(
                out,
                "  layer      {:<26} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "  check      {:<26} {} {}",
                c.name,
                if c.passed { "ok  " } else { "FAIL" },
                c.detail
            );
        }
        let _ = writeln!(
            out,
            "  requests   attempted={} failed={}",
            self.attempted, self.failed
        );
        out
    }

    /// The JSON result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self, metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// A finite number as JSON; a missing value becomes `null`.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
