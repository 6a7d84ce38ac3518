//! In-memory spans for the traced run.
//!
//! A span records one call into a layer: its name, the request it
//! belongs to, the span that caused it, and its start and end. Spans
//! stay in memory until the run ends; the per-layer metrics and the
//! printed span table are computed from them afterwards.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `protocol.decode`.
    pub name: &'static str,
    /// The request (wire) or slot (engine) the span belongs to.
    pub request: u64,
    /// Operation kind of the request (an index into the caller's list).
    pub kind: u8,
    /// Index of the causing span, `None` for a root.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one clock.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its handle for [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        request: u64,
        kind: u8,
        parent: Option<u32>,
    ) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            kind,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, span: u32) {
        let now = self.now_ns();
        self.spans[span as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        kind: u8,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, request, kind, parent);
        let out = f();
        self.end(span);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals: (count, total ns, self ns). Self time is the
    /// span's duration minus the time its children cover; children of
    /// one span never overlap here, since every traced pass is
    /// sequential.
    pub fn table(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent as usize] += span.ns();
            }
        }
        let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, child_ns) in self.spans.iter().zip(&covered) {
            let row = table.entry(span.name).or_default();
            row.0 += 1;
            row.1 += span.ns();
            row.2 += span.ns().saturating_sub(*child_ns);
        }
        table
    }

    /// Mean duration in microseconds of the spans named `name` that
    /// pass `keep`, or 0 when there are none.
    pub fn mean_us(&self, name: &str, keep: impl Fn(&Span) -> bool) -> f64 {
        let (count, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name && keep(s))
            .fold((0u64, 0u64), |(c, t), s| (c + 1, t + s.ns()));
        if count == 0 {
            0.0
        } else {
            total as f64 / count as f64 / 1e3
        }
    }

    /// Durations in microseconds of the spans named `name` that pass
    /// `keep`.
    pub fn durations_us(&self, name: &str, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s))
            .map(|s| s.ns() as f64 / 1e3)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::default();
        let root = tracer.begin("root", 1, 0, None);
        tracer.time("child", 1, 0, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.end(root);
        let table = tracer.table();
        let (count, total, own) = table["root"];
        let (_, child_total, _) = table["child"];
        assert_eq!(count, 1);
        assert!(child_total >= 2_000_000);
        assert_eq!(own, total - child_total);
    }
}
