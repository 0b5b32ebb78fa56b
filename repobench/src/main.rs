//! `repobench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload <table2_campaign|cc_transmit|serve_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced. `--trace 1`
//! runs the same work untraced and then traced, and reports the
//! per-layer metrics. Both print the workload's exact-count block and
//! end with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! See `repobench/README.md` for the workloads and the metrics.

mod alloc;
mod cc;
mod serve;
mod stats;
mod table2;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// `op_*` time the workload's unit of user work: see the README for what
/// each workload times.
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("op_typ_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Each layer's share of the traced pass's wall time (self time over
/// wall time); the layers are listed in the README.
pub const SELF_SHARES: [&str; 15] = [
    "self_share.bench",
    "self_share.scenario",
    "self_share.eval",
    "self_share.machine",
    "self_share.gadget",
    "self_share.batch",
    "self_share.channel",
    "self_share.http",
    "self_share.spec",
    "self_share.hotcache",
    "self_share.diskcache",
    "self_share.scheduler",
    "self_share.report",
    "self_share.client",
    "self_share.loadgen",
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const LAYER_METRICS: [(&str, &str); 60] = [
    ("failed_share", "share"),
    ("scenario.new_us", "us"),
    ("eval.cell_ms.cc", "ms"),
    ("eval.cell_ms.md", "ms"),
    ("eval.cell_ms.zbl", "ms"),
    ("eval.cell_ms.rsb", "ms"),
    ("eval.cell_ms.kaslr", "ms"),
    ("eval.host_ns_per_sim_cycle", "ns"),
    ("eval.ff_skip_ratio", "share"),
    ("eval.trials", "count"),
    ("eval.sim_cycles", "count"),
    ("eval.ff_skipped_cycles", "count"),
    ("eval.ff_sprints", "count"),
    ("eval.snapshot_restores", "count"),
    ("eval.l1_hits", "count"),
    ("eval.l1_misses", "count"),
    ("eval.dtlb_walks", "count"),
    ("eval.branches", "count"),
    ("eval.br_mispredicts", "count"),
    ("machine.snapshot_us", "us"),
    ("machine.restore_us", "us"),
    ("machine.restores", "count"),
    ("gadget.probe_us", "us"),
    ("batch.probes", "count"),
    ("batch.live_probes", "count"),
    ("batch.live_share", "share"),
    ("channel.byte_us", "us"),
    ("channel.sim_cycles", "count"),
    ("channel.sim_bytes_per_s", "1/s"),
    ("http.parse_us", "us"),
    ("spec.canonicalize_us", "us"),
    ("spec.key_us", "us"),
    ("spec.bytes_hashed", "count"),
    ("hotcache.get_us", "us"),
    ("hotcache.hit_share", "share"),
    ("hotcache.evictions", "count"),
    ("server.cached_service_us", "us"),
    ("server.cold_service_us", "us"),
    ("diskcache.get_us", "us"),
    ("diskcache.hit_share", "share"),
    ("diskcache.put_us", "us"),
    ("diskcache.evictions", "count"),
    ("loadgen.late_p99_us", "us"),
    ("client.hit_p50_us", "us"),
    ("client.hit_p75_us", "us"),
    ("scheduler.campaign_ms", "ms"),
    ("report.render_us", "us"),
    ("report.bytes", "count"),
    ("client.polls_per_miss", "count"),
    ("alloc.per_cell", "count"),
    ("alloc.bytes_per_cell", "B"),
    ("alloc.per_byte", "count"),
    ("alloc.bytes_per_byte", "B"),
    ("alloc.per_hit", "count"),
    ("alloc.bytes_per_hit", "B"),
    ("trace.overhead_share", "share"),
    ("trace.unattributed_share", "share"),
    ("trace.spans", "count"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
];

/// The share of a traced pass that spans may leave uncovered: the
/// layers' self times must add up to the traced wall time within it.
pub const RECONCILE_SHARE: f64 = 0.05;

/// Percentiles (typical, tail) for simulator operations. Their times
/// split into a fast and a slow group by host contention, with the slow
/// group in every run: the median jumps between the groups, the upper
/// quartile and p90 stay in the slow one.
pub const SIM_PCTS: (f64, f64) = (75.0, 90.0);

/// Window length for the simulator workloads' latency percentiles (see
/// [`Outcome::latency`]).
pub const WINDOW_S: f64 = 3.0;

/// Set-ups before the measured window, and again after it, for the
/// simulator workloads; `setup_s` is the median of all of them.
pub const SETUP_REPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures and broken invariants; any makes the run
    /// incorrect.
    pub errors: Vec<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per end-to-end metric: what it measures here, and its sample count.
    pub notes: BTreeMap<&'static str, String>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Host-independent counts over the workload's fixed exact set.
    pub exact: Vec<(&'static str, u64)>,
    /// Per-layer self time in ms of the traced pass.
    pub self_ms: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn error(&mut self, msg: String) {
        if self.errors.len() < 20 {
            eprintln!("repobench: check failed: {msg}");
        }
        self.errors.push(msg);
    }

    /// Records operation latencies, given as (start, latency) pairs in
    /// seconds from the start of the measured window, as `op_typ_ms` and
    /// `op_tail_ms` at the percentiles `(typ, tail)` the workload states.
    /// Each is the median over the run's `window`-long windows of that
    /// window's percentile, so a slow episode of the host that covers
    /// less than half the run does not move it. Which percentiles and
    /// windows each workload uses, and why: see the README.
    pub fn latency(&mut self, pcts: (f64, f64), window: f64, what: &str, samples: &[(f64, f64)]) {
        let ((typ, tail), windows) = stats::windowed(samples, window, pcts);
        let ms = |v: f64| if v.is_finite() { v * 1e3 } else { f64::MAX };
        self.e2e.insert("op_typ_ms", ms(typ));
        self.e2e.insert("op_tail_ms", ms(tail));
        let n = samples.len();
        for (name, q) in [("op_typ_ms", pcts.0), ("op_tail_ms", pcts.1)] {
            self.notes.insert(
                name,
                format!(
                    "{what}: p{q} per {window} s window, median of {windows} windows, {n} samples"
                ),
            );
        }
    }

    /// Records `throughput_per_s` from per-round (start, work, seconds)
    /// triples as the rate three rounds in four reach (the 25th
    /// percentile of the round rates), taken per [`WINDOW_S`] window and
    /// then the median over the windows, as for [`Outcome::latency`];
    /// the note adds the plain mean rate.
    pub fn throughput(&mut self, what: &str, rounds: &[(f64, f64, f64)]) {
        let rates: Vec<(f64, f64)> = rounds.iter().map(|(t, w, s)| (*t, w / s)).collect();
        let ((p25, _), windows) = stats::windowed(&rates, WINDOW_S, (25.0, 25.0));
        let (work, secs) = rounds
            .iter()
            .fold((0.0, 0.0), |(w, s), (_, rw, rs)| (w + rw, s + rs));
        self.e2e.insert("throughput_per_s", p25);
        let note = if rates.len() == 1 {
            format!("{what}: {work} in {secs:.3} s")
        } else {
            format!(
                "{what}: p25 of round rates per {WINDOW_S} s window, median of {windows} windows, {} rounds; mean {:.1} ({work} in {secs:.3} s)",
                rates.len(),
                work / secs
            )
        };
        self.notes.insert("throughput_per_s", note);
    }

    /// Compares a traced pass's exact counts with the untraced pass's.
    pub fn same_counts(
        &mut self,
        what: &str,
        untraced: &[(&'static str, u64)],
        traced: &[(&'static str, u64)],
    ) {
        if untraced != traced {
            self.error(format!(
                "{what}: exact counts differ between the untraced and the traced pass: {untraced:?} vs {traced:?}"
            ));
        }
    }

    /// Fills the trace bookkeeping metrics and checks reconciliation.
    /// `side_s` is the time of side calls the traced pass makes and the
    /// untraced pass does not; it is left out of the overhead.
    pub fn breakdown(
        &mut self,
        b: &trace::Breakdown,
        spans: usize,
        untraced_s: f64,
        traced_s: f64,
        side_s: f64,
    ) {
        if b.negative > 0 {
            self.error(format!("{} spans outlasted by their children", b.negative));
        }
        if b.reconcile_error() > 1e-9 {
            self.error(format!(
                "layer self times miss the traced wall time by {:.3e}",
                b.reconcile_error()
            ));
        }
        let unattributed = b.unattributed_share();
        if unattributed > RECONCILE_SHARE {
            self.error(format!(
                "layer self times cover only {:.1}% of the traced wall time (need {:.1}%)",
                100.0 * (1.0 - unattributed),
                100.0 * (1.0 - RECONCILE_SHARE)
            ));
        }
        for (layer, ns) in &b.self_ns {
            self.self_ms.insert(layer, *ns as f64 / 1e6);
        }
        for name in SELF_SHARES {
            let layer = name.trim_start_matches("self_share.");
            let ns = b.self_ns.get(layer).copied().unwrap_or(0);
            self.layer.insert(name, ns as f64 / b.wall_ns.max(1) as f64);
        }
        self.layer.insert("trace.unattributed_share", unattributed);
        self.layer.insert("trace.spans", spans as f64);
        self.layer.insert("trace.untraced_s", untraced_s);
        self.layer.insert("trace.traced_s", traced_s);
        self.layer.insert(
            "trace.overhead_share",
            (traced_s - side_s - untraced_s) / untraced_s,
        );
    }
}

/// Runs `setup` `reps` times; returns the last result and each run's
/// seconds.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

impl Outcome {
    /// Records `setup_s`: the median of the set-ups before the measured
    /// window and of as many more run after it, so that it reflects the
    /// host's state over the whole run rather than its first second.
    pub fn setup_time<T>(&mut self, mut before: Vec<f64>, setup: impl FnMut() -> T) {
        before.extend(timed_setup(before.len(), setup).1);
        self.e2e.insert("setup_s", stats::median(&mut before));
    }
}

/// Where traced runs write their spans, relative to the checkout root.
pub fn out_dir() -> std::path::PathBuf {
    std::path::PathBuf::from("repobench").join("run")
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "table2_campaign" => table2::run(&args),
        "cc_transmit" => cc::run(&args),
        "serve_mixed" => serve::run(&args),
        w => {
            eprintln!(
                "repobench: unknown workload {w:?} (table2_campaign, cc_transmit, serve_mixed)"
            );
            std::process::exit(2);
        }
    };
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    out.layer.insert("failed_share", failed_share);
    out.e2e.insert("peak_rss_mb", stats::peak_rss_mb());

    let w = &args.workload;
    println!(
        "repobench {w} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  failed_share = {failed_share} ({} of {} operations failed)",
        out.failed, out.attempted
    );
    for (name, count) in &out.exact {
        println!("  exact {name} = {count}");
    }
    let mut metrics = String::new();
    let list: Vec<(&str, &str)> = if args.trace {
        let mut l: Vec<(&str, &str)> = LAYER_METRICS.to_vec();
        l.extend(SELF_SHARES.iter().map(|n| (*n, "share")));
        for (layer, ms) in &out.self_ms {
            println!("  self {layer} = {ms:.3} ms");
        }
        l
    } else {
        E2E.to_vec()
    };
    for (name, unit) in list {
        let v = if args.trace {
            out.layer.get(name).copied().unwrap_or(0.0)
        } else {
            out.e2e.get(name).copied().unwrap_or(0.0)
        };
        let note = out.notes.get(name).cloned().unwrap_or_default();
        println!(
            "  {name} = {} {unit}{}",
            json_num(v),
            if note.is_empty() {
                String::new()
            } else {
                format!("  [{note}]")
            }
        );
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v)
        );
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    if !out.errors.is_empty() {
        println!(
            "  {} check(s) failed; first: {}",
            out.errors.len(),
            out.errors[0]
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
}
