//! In-memory spans of the traced run, and their reduction to per-layer
//! count, busy time and self time.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions; none are added inside the program. Phases that have
//! no public entry point are read from the process-wide
//! `wm_phase_seconds{phase=…}` histogram the program already records, as
//! the delta across the enclosing span, and attached to it as child spans
//! (marked † in the report). Their time is summed over threads, so a
//! parallel phase can cover more than its parent's wall time; a parent's
//! self time is clamped at zero.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::json_string;

const PHASE_HELP: &str = "Exclusive time per instrumented phase.";

/// Observations and total nanoseconds recorded so far under
/// `wm_phase_seconds{phase}`.
pub fn phase_ns(phase: &str) -> (u64, u64) {
    let snapshot = wiki_obs::registry()
        .histogram_with("wm_phase_seconds", PHASE_HELP, &[("phase", phase)])
        .snapshot();
    (snapshot.count(), snapshot.sum)
}

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Child read from a phase histogram rather than timed here.
    pub from_phase: bool,
    /// Calls the span stands for: 1, or the phase histogram's count delta.
    pub calls: u64,
}

/// Per-layer reduction of a span set.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// A span recorder for one thread of the traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub workload: String,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str, epoch: Instant) -> Self {
        Tracer {
            epoch,
            workload: workload.to_string(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_with_phases(name, &[], f)
    }

    /// Runs `f` inside a span, attaching the listed `(child name, phase)`
    /// histogram deltas as child spans.
    pub fn span_with_phases<T>(
        &mut self,
        name: &str,
        phases: &[(&str, &str)],
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let before: Vec<(u64, u64)> = phases.iter().map(|(_, p)| phase_ns(p)).collect();
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            from_phase: false,
            calls: 1,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        let end = self.now_ns();
        self.spans[index].end_ns = end;
        let start = self.spans[index].start_ns;
        for ((child, phase), (calls_before, ns_before)) in phases.iter().zip(before) {
            let (calls, ns) = phase_ns(phase);
            if calls > calls_before {
                self.spans.push(SpanRecord {
                    name: child.to_string(),
                    start_ns: start,
                    end_ns: start + ns.saturating_sub(ns_before),
                    parent: Some(index),
                    from_phase: true,
                    calls: calls - calls_before,
                });
            }
        }
        out
    }

    /// Appends another thread's spans (recorded against the same epoch).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let parent = self.stack.last().copied();
        for mut span in other.spans {
            span.parent = match span.parent {
                Some(p) => Some(p + offset),
                None => parent,
            };
            self.spans.push(span);
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Count, busy time and self time per span name.
    pub fn layers(&self) -> BTreeMap<String, LayerTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                covered[p] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut layers: BTreeMap<String, LayerTime> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let busy = span.end_ns.saturating_sub(span.start_ns);
            let layer = layers.entry(span.name.clone()).or_default();
            layer.count += span.calls;
            layer.busy_ns += busy;
            layer.self_ns += busy.saturating_sub(covered);
        }
        layers
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {}, \"workload\": {}, \"from_phase\": {}, \"calls\": {}}}",
                json_string(&span.name),
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                json_string(&self.workload),
                span.from_phase,
                span.calls
            );
        }
        std::fs::write(path, out)
    }
}

/// Nanoseconds one empty span costs this recorder, measured over many.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut tracer = Tracer::new("calibration", Instant::now());
    let start = Instant::now();
    for _ in 0..N {
        tracer.span("calibration", |_| std::hint::black_box(()));
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("test", Instant::now());
        t.span("parent", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let layers = t.layers();
        let parent = layers["parent"];
        let child = layers["child"];
        assert!(parent.busy_ns >= child.busy_ns);
        assert_eq!(parent.self_ns, parent.busy_ns - child.busy_ns);
        assert_eq!(child.self_ns, child.busy_ns);
    }
}
