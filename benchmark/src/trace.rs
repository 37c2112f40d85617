//! In-memory span recording around the benchmark's calls into each layer.
//!
//! Each thread owns a [`Spans`] buffer (no shared lock on the hot path);
//! buffers are merged when their threads are joined and written out once,
//! at exit. Span ids encode their cause: an event's publish span is
//! `seq << 2`, and subscriber `k`'s receive span for the same event is
//! `(seq << 2) | (k + 1)` with the publish span as parent, so the spans of
//! one event share its sequence id. Other spans draw ids from a counter
//! above [`OTHER_IDS`].

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Whether spans are being recorded right now.
pub static ON: AtomicBool = AtomicBool::new(false);
/// Event spans are kept for one sequence id in `EVENT_SAMPLE`, so a traced
/// run at tens of thousands of events a second holds tens of megabytes of
/// spans, not hundreds.
pub const EVENT_SAMPLE: u64 = 8;
static NEXT_ID: AtomicU64 = AtomicU64::new(OTHER_IDS);
/// Ids at or above this are not event spans.
pub const OTHER_IDS: u64 = 1 << 62;

/// Nanoseconds since the benchmark's epoch (first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    /// The event's sequence id, 0 for spans that belong to no event.
    pub event: u64,
}

#[derive(Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    pub fn push(&mut self, span: Span) {
        if enabled() && span.event.is_multiple_of(EVENT_SAMPLE) {
            self.0.push(span);
        }
    }

    /// Records an event-less span around `f` under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let start_ns = now_ns();
        let out = f();
        self.push(Span {
            name,
            start_ns,
            end_ns: now_ns(),
            id: next_id(),
            parent,
            event: 0,
        });
        out
    }

    /// Durations of the spans called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.0 {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"event\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id, s.parent, s.event
            )?;
        }
        w.flush()
    }
}
