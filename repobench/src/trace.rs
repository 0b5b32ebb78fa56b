//! Spans the benchmark records around its own calls into the program's
//! layers. Nothing here reaches inside the program: a span brackets one
//! call to a public function, its layer is the part of its name before
//! the first `.`, and a layer's self time is its spans' time minus the
//! time of the spans nested inside them.
//!
//! Each traced pass opens one `bench.pass` span per thread, so the
//! self times of one thread sum to that thread's pass exactly and the
//! `bench` layer's self time is the time no layer span covers.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::alloc;

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn is_root(&self) -> bool {
        self.parent == NONE
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An open span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(u32);

/// One thread's span recorder. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: if on {
                Vec::with_capacity(1 << 16)
            } else {
                Vec::new()
            },
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NONE);
        }
        alloc::paused(|| {
            let id = self.spans.len() as u32;
            let parent = self.stack.last().copied().unwrap_or(NONE);
            self.stack.push(id);
            let start_ns = self.origin.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                name,
                parent,
                start_ns,
                end_ns: start_ns,
            });
            Open(id)
        })
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == NONE {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close in LIFO order");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Brackets `f` in a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Durations in ns of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }
}

/// Self time per layer over one or more threads' tracers.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Layer → self time in ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Sum of the threads' `bench.pass` spans.
    pub wall_ns: u64,
    /// Spans whose children outlast them (a tracing bug).
    pub negative: usize,
}

impl Breakdown {
    pub fn of(tracers: &[&Tracer]) -> Breakdown {
        let mut b = Breakdown::default();
        for t in tracers {
            let mut child_ns = vec![0u64; t.spans.len()];
            for s in &t.spans {
                if s.parent != NONE {
                    child_ns[s.parent as usize] += s.dur_ns();
                }
            }
            for (s, c) in t.spans.iter().zip(&child_ns) {
                if *c > s.dur_ns() {
                    b.negative += 1;
                }
                *b.self_ns.entry(s.layer()).or_default() += s.dur_ns().saturating_sub(*c);
                if s.name == "bench.pass" {
                    b.wall_ns += s.dur_ns();
                }
            }
        }
        b
    }

    /// Share of the wall time no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        let bench = self.self_ns.get("bench").copied().unwrap_or(0);
        bench as f64 / self.wall_ns.max(1) as f64
    }

    /// |Σ self − wall| / wall: how far the layers' self times are from
    /// adding up to the traced wall time.
    pub fn reconcile_error(&self) -> f64 {
        let sum: u64 = self.self_ns.values().sum();
        (sum as f64 - self.wall_ns as f64).abs() / self.wall_ns.max(1) as f64
    }
}

/// Spans written per file. A traced `cc_transmit` pass records a span
/// per live gadget probe, millions in a 30 s run; the file keeps the
/// first ones in record order and states the total recorded under
/// `otherData.spans` (the self times above use every span).
const MAX_WRITTEN: usize = 200_000;

/// Writes the spans as Chrome trace-event JSON (loadable in Perfetto),
/// one `tid` per tracer.
pub fn write_chrome(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let total: usize = tracers.iter().map(|t| t.spans.len()).sum();
    let per_tracer = MAX_WRITTEN / tracers.len().max(1);
    writeln!(
        out,
        "{{\"otherData\":{{\"spans\":{total}}},\"traceEvents\":["
    )?;
    let mut first = true;
    for (tid, t) in tracers.iter().enumerate() {
        for (id, s) in t.spans.iter().enumerate().take(per_tracer) {
            if !first {
                writeln!(out, ",")?;
            }
            first = false;
            let parent = if s.is_root() { -1 } else { i64::from(s.parent) };
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            )?;
        }
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}
