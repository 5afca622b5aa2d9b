//! In-memory span tracer for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a simulator layer. A span carries its name, start, end, the
//! span that caused it and the run (work unit) it belongs to; the
//! layer is the part of the name before the first `.`. Per-cycle calls
//! (`System::step`, `Network::step`, ...) are far too many to keep one
//! by one, so [`Tracer::call`] folds them into a per-name duration
//! histogram and only charges their time to the enclosing span. Self
//! time — a span's duration minus the part of it that child spans
//! cover — is accumulated per layer as spans close, so it needs no
//! stored span tree. Everything stays in memory until
//! [`Tracer::write_json`] at exit.
//!
//! A disabled tracer runs every closure straight through and records
//! nothing.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Raw spans kept for the trace file; later spans still count toward
/// self time and histograms.
const MAX_SPANS: usize = 50_000;
/// Duration samples kept per name for percentiles.
const MAX_SAMPLES: usize = 4_000_000;

struct Frame {
    id: u64,
    name: &'static str,
    start: Instant,
    covered_ns: u64,
}

struct Span {
    id: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u64>,
    run: u32,
}

#[derive(Default)]
struct Agg {
    calls: u64,
    busy_ns: u64,
    samples: Vec<u32>,
}

impl Agg {
    fn add(&mut self, calls: u64, busy_ns: u64, sample_ns: u64) {
        self.calls += calls;
        self.busy_ns += busy_ns;
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(sample_ns.min(u64::from(u32::MAX)) as u32);
        }
    }
}

/// Summary of one span or call name.
#[derive(Debug, Clone, Copy)]
pub struct NameStats {
    /// Calls made.
    pub calls: u64,
    /// Total time inside the calls, in ns.
    pub busy_ns: u64,
    /// Median sample, in ns.
    pub p50_ns: f64,
    /// 90th-percentile sample, in ns.
    pub p90_ns: f64,
    /// 99th-percentile sample, in ns.
    pub p99_ns: f64,
}

impl NameStats {
    /// Mean time per call, in ns.
    pub fn mean_ns(&self) -> f64 {
        self.busy_ns as f64 / self.calls.max(1) as f64
    }
}

/// The layer a span name belongs to.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Records spans and per-call histograms when on; a no-op when off.
pub struct Tracer {
    on: bool,
    origin: Instant,
    run: u32,
    next_id: u64,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    dropped_spans: u64,
    self_ns: BTreeMap<&'static str, u64>,
    aggs: BTreeMap<&'static str, Agg>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            run: 0,
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped_spans: 0,
            self_ns: BTreeMap::new(),
            aggs: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags every span opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn charge_parent(&mut self, ns: u64) {
        if let Some(parent) = self.stack.last_mut() {
            parent.covered_ns += ns;
        }
    }

    fn store(&mut self, name: &'static str, start: Instant, end: Instant, id: u64) {
        if self.spans.len() >= MAX_SPANS {
            self.dropped_spans += 1;
            return;
        }
        let span = Span {
            id,
            name,
            start_ns: self.ns_since_origin(start),
            end_ns: self.ns_since_origin(end),
            parent: self.stack.last().map(|f| f.id),
            run: self.run,
        };
        self.spans.push(span);
    }

    /// Runs `f` inside a span named `name`; `f` may open child spans
    /// through the tracer it is handed.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Frame {
            id,
            name,
            start: Instant::now(),
            covered_ns: 0,
        });
        let out = f(self);
        let end = Instant::now();
        let frame = self.stack.pop().expect("span frame pushed above");
        debug_assert_eq!(frame.name, name, "spans close in LIFO order");
        let dur = end.duration_since(frame.start).as_nanos() as u64;
        *self.self_ns.entry(layer_of(name)).or_default() += dur.saturating_sub(frame.covered_ns);
        self.aggs.entry(name).or_default().add(1, dur, dur);
        self.charge_parent(dur);
        self.store(name, frame.start, end, id);
        out
    }

    /// Times one leaf call (no children) and folds it into `name`'s
    /// histogram without storing a span.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.calls(name, 1, f)
    }

    /// Times a block of `n` leaf calls of `name` as one histogram
    /// sample of the mean time per call.
    pub fn calls<R>(&mut self, name: &'static str, n: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed().as_nanos() as u64;
        *self.self_ns.entry(layer_of(name)).or_default() += dur;
        self.aggs
            .entry(name)
            .or_default()
            .add(n, dur, dur / n.max(1));
        self.charge_parent(dur);
        out
    }

    /// Adds leaf spans that ran concurrently on other threads inside
    /// the current span (e.g. sweep cells on the runner's workers).
    /// The current span is charged the union of their intervals.
    pub fn import_concurrent(&mut self, name: &'static str, intervals: &[(Instant, Instant)]) {
        if !self.on {
            return;
        }
        let mut sorted = intervals.to_vec();
        sorted.sort_by_key(|iv| iv.0);
        let mut covered = 0u64;
        let mut reach: Option<Instant> = None;
        for &(start, end) in &sorted {
            let from = reach.map_or(start, |r| r.max(start));
            if end > from {
                covered += end.duration_since(from).as_nanos() as u64;
            }
            reach = Some(reach.map_or(end, |r| r.max(end)));
            let dur = end.saturating_duration_since(start).as_nanos() as u64;
            *self.self_ns.entry(layer_of(name)).or_default() += dur;
            self.aggs.entry(name).or_default().add(1, dur, dur);
            let id = self.next_id;
            self.next_id += 1;
            self.store(name, start, end, id);
        }
        self.charge_parent(covered);
    }

    /// Statistics of one span or call name, if it was recorded.
    pub fn stats(&self, name: &str) -> Option<NameStats> {
        let agg = self.aggs.get(name)?;
        let samples: Vec<f64> = agg.samples.iter().map(|&s| f64::from(s)).collect();
        Some(NameStats {
            calls: agg.calls,
            busy_ns: agg.busy_ns,
            p50_ns: stats::quantile(&samples, 0.50),
            p90_ns: stats::quantile(&samples, 0.90),
            p99_ns: stats::quantile(&samples, 0.99),
        })
    }

    /// Self time of `layer` in ms (0 when nothing ran there).
    pub fn self_ms(&self, layer: &str) -> f64 {
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Writes every stored span, the per-name histograms and the
    /// per-layer self times as one JSON document.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating the directory or the file.
    pub fn write_json(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = writeln!(out, "{{{header},");
        out.push_str("\"self_ms\": {");
        let layers: Vec<String> = self
            .self_ns
            .iter()
            .map(|(l, ns)| format!("\"{l}\": {:.6}", *ns as f64 / 1e6))
            .collect();
        out.push_str(&layers.join(", "));
        out.push_str("},\n\"calls\": {\n");
        let names: Vec<String> = self
            .aggs
            .keys()
            .filter_map(|name| {
                let s = self.stats(name)?;
                Some(format!(
                    "  \"{name}\": {{\"calls\": {}, \"busy_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}",
                    s.calls, s.busy_ns, s.p50_ns, s.p90_ns, s.p99_ns
                ))
            })
            .collect();
        out.push_str(&names.join(",\n"));
        let _ = writeln!(out, "\n}},\n\"dropped_spans\": {},", self.dropped_spans);
        out.push_str("\"spans\": [\n");
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "  {{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"run\": {}}}",
                    s.id, s.name, s.start_ns, s.end_ns, s.run
                )
            })
            .collect();
        out.push_str(&spans.join(",\n"));
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("bench.unit", |t| {
            t.call("noc.step", || std::thread::sleep(Duration::from_millis(20)));
            std::thread::sleep(Duration::from_millis(5));
        });
        assert!(t.self_ms("noc") >= 20.0);
        let bench = t.self_ms("bench");
        assert!((5.0..20.0).contains(&bench), "bench self {bench} ms");
        assert_eq!(t.stats("noc.step").unwrap().calls, 1);
    }

    #[test]
    fn concurrent_children_charge_their_union() {
        let mut t = Tracer::new(true);
        t.span("sweep.grid", |t| {
            let a = Instant::now();
            std::thread::sleep(Duration::from_millis(10));
            let b = Instant::now();
            // Two fully overlapping children cover the span once.
            t.import_concurrent("sweep.cell", &[(a, b), (a, b)]);
        });
        assert!(t.self_ms("sweep") >= 20.0, "children count as sweep work");
        assert_eq!(t.stats("sweep.cell").unwrap().calls, 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("bench.unit", |t| t.call("noc.step", || 7));
        assert_eq!(v, 7);
        assert!(t.stats("noc.step").is_none());
        assert_eq!(t.self_ms("noc"), 0.0);
    }
}
