//! Spans for the traced run, recorded by the benchmark's own threads
//! around each call into the program.
//!
//! Every request has one root span, [`ROOT`]; its other spans name the
//! root as their parent and carry the same request id. Spans are kept for
//! one request id in 32, all through the traced slices, in memory, and the
//! run writes them out when it ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The root span of a request: from submit (closed loop) or due time
/// (open loop) to its checked reply.
pub const ROOT: &str = "request";

/// Whether request `req` records its spans: one id in 32, picked by a
/// multiplicative hash so that every load thread's ids are sampled alike.
/// A closed loop completes over 10^5 requests a second per thread;
/// sampling keeps memory and the written file small while covering the
/// whole window.
fn sampled(req: u64) -> bool {
    req.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59 == 0
}

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn parent(&self) -> &'static str {
        if self.name == ROOT {
            ""
        } else {
            ROOT
        }
    }

    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Keeps the span if request `req` is sampled.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !sampled(req) {
            return;
        }
        self.spans.push(Span {
            name,
            req,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        });
    }

    /// The kept spans, oldest first.
    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

/// Median nanoseconds per span name: a span's duration, and for [`ROOT`]
/// its self time, the part of it no other span of the request covers.
pub fn medians(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut roots: HashMap<u64, (u64, u64, u64)> = spans
        .iter()
        .filter(|s| s.name == ROOT)
        .map(|s| (s.req, (s.start_ns, s.end_ns, 0)))
        .collect();
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name != ROOT) {
        by_name
            .entry(span.name)
            .or_default()
            .push(span.duration() as f64);
        if let Some((start, end, covered)) = roots.get_mut(&span.req) {
            *covered += span
                .end_ns
                .min(*end)
                .saturating_sub(span.start_ns.max(*start));
        }
    }
    by_name.insert(
        ROOT,
        roots
            .values()
            .map(|&(start, end, covered)| (end - start).saturating_sub(covered) as f64)
            .collect(),
    );
    by_name
        .into_iter()
        .map(|(name, mut values)| (name, crate::stats::median(&mut values)))
        .collect()
}

/// Writes spans as tab-separated `name, parent, request, start, end`
/// lines, times in ns from the run's epoch.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tparent\treq\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name,
            s.parent(),
            s.req,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
