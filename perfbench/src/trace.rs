//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start and end on one monotonic
//! clock, the span that caused it, and the id of the job it belongs to.
//! Spans stay in memory while the workload runs and are written out as JSON
//! lines when it ends. A disabled tracer records nothing, so the untraced
//! run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index (or `None` when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span and return its result with the span's wall time
    /// in microseconds (measured whether or not spans are recorded).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let span = self.open(name, parent, job);
        let start = Instant::now();
        let out = f();
        let us = start.elapsed().as_secs_f64() * 1e6;
        self.close(span);
        (out, us)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in milliseconds (the layer is the span name up
    /// to its first `.`): each span's duration minus the part of it that its
    /// children cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let mut out = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let mut covered: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns))
                })
                .filter(|(s, e)| e > s)
                .collect();
            covered.sort_unstable();
            let (mut union, mut reach) = (0u64, 0u64);
            for (s, e) in covered {
                let s = s.max(reach);
                if e > s {
                    union += e - s;
                    reach = e;
                }
            }
            let own = (span.end_ns - span.start_ns).saturating_sub(union);
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            );
        }
        out
    }
}
