//! `table2_campaign`: the paper's Table 2 matrix (5 presets × 5 attacks)
//! over many seeds, one fresh `Scenario` per cell, at one thread.

use std::collections::BTreeMap;
use std::time::Instant;

use tet_uarch::CpuConfig;
use whisper::eval::{self, CellStats, TABLE2_ATTACKS};
use whisper::{Scenario, ScenarioOptions};

use crate::alloc::{self, Allocs};
use crate::stats::{self, Rng};
use crate::trace::{Breakdown, Tracer};
use crate::{timed_setup, Args, Outcome, SETUP_REPS, SIM_PCTS, WINDOW_S};

/// Rounds (one seed's full matrix each) in the exact set.
const EXACT_ROUNDS: usize = 4;

/// Simulator seed of the set-up's warm-up matrix: the same every run.
const WARM_SEED: u64 = 0x5eed;

const CELL_SPANS: [&str; 5] = [
    "eval.cell.cc",
    "eval.cell.md",
    "eval.cell.zbl",
    "eval.cell.rsb",
    "eval.cell.kaslr",
];

const CELL_METRICS: [&str; 5] = [
    "eval.cell_ms.cc",
    "eval.cell_ms.md",
    "eval.cell_ms.zbl",
    "eval.cell_ms.rsb",
    "eval.cell_ms.kaslr",
];

/// The simulator seed of round `r`: consecutive seeds from a base the
/// workload seed picks.
fn round_seed(seed: u64, r: usize) -> u64 {
    1 + Rng::new(seed, 1).below(1 << 32) + r as u64
}

/// Exact work of some rounds: simulator counters, allocations, cells.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Work {
    stats: CellStats,
    allocs: Allocs,
    cells: u64,
}

impl Work {
    fn add(&mut self, o: &Work) {
        self.stats.merge(&o.stats);
        self.allocs.add(o.allocs);
        self.cells += o.cells;
    }

    fn exact(&self) -> Vec<(&'static str, u64)> {
        let s = &self.stats;
        vec![
            ("eval.cells", self.cells),
            ("eval.trials", s.runs),
            ("eval.sim_cycles", s.sim_cycles),
            ("eval.ff_skipped_cycles", s.ff_skipped_cycles),
            ("eval.ff_sprints", s.ff_sprints),
            ("eval.snapshot_restores", s.snapshot_restores),
            ("eval.l1_hits", s.l1_hits),
            ("eval.l1_misses", s.l1_misses),
            ("eval.dtlb_walks", s.dtlb_walks),
            ("eval.branches", s.branches),
            ("eval.br_mispredicts", s.br_mispredicts),
            ("alloc.count", self.allocs.count),
            ("alloc.bytes", self.allocs.bytes),
        ]
    }
}

/// Runs round `r` (25 cells) and checks every cell against the paper.
/// A traced round also
/// builds each cell's scenario once on the side, so `scenario.new` has
/// its own span (the cell builds its own inside `eval`).
fn round(presets: &[CpuConfig], seed: u64, r: usize, tr: &mut Tracer, out: &mut Outcome) -> Work {
    let sim_seed = round_seed(seed, r);
    let mut work = Work::default();
    for cfg in presets {
        let paper = eval::paper_table2_row(cfg.name);
        for (a, span) in CELL_SPANS.iter().enumerate() {
            if tr.on() {
                let opts = ScenarioOptions {
                    seed: sim_seed,
                    ..ScenarioOptions::default()
                };
                alloc::paused(|| {
                    tr.span("scenario.new", || drop(Scenario::new(cfg.clone(), &opts)))
                });
            }
            let before = alloc::now();
            let (status, cs) = tr.span(span, || eval::run_table2_cell_detailed(cfg, sim_seed, a));
            work.allocs.add(alloc::now().since(before));
            work.stats.merge(&cs);
            work.cells += 1;
            out.attempted += 1;
            if paper[a].is_some_and(|p| p != status) {
                out.failed += 1;
                out.error(format!(
                    "seed {sim_seed}: {} {} is {status}, the paper says {}",
                    cfg.name,
                    TABLE2_ATTACKS[a],
                    paper[a].expect("checked above")
                ));
            }
        }
    }
    work
}

/// Set-up: the presets plus one warm-up matrix at a fixed seed, so
/// lazy initialisation and caches settle before timing.
fn setup() -> Vec<CpuConfig> {
    let presets = CpuConfig::table2_presets();
    for cfg in &presets {
        for a in 0..TABLE2_ATTACKS.len() {
            std::hint::black_box(eval::run_table2_cell_detailed(cfg, WARM_SEED, a));
        }
    }
    presets
}

/// Per-layer times of a traced pass.
fn layer_times(tr: &Tracer, work: &Work) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert(
        "scenario.new_us",
        stats::median(&mut tr.durations("scenario.new")) / 1e3,
    );
    let mut cell_ns = 0.0;
    for (span, metric) in CELL_SPANS.iter().zip(CELL_METRICS) {
        let mut d = tr.durations(span);
        cell_ns += d.iter().sum::<f64>();
        m.insert(metric, stats::median(&mut d) / 1e6);
    }
    m.insert(
        "eval.host_ns_per_sim_cycle",
        cell_ns / work.stats.sim_cycles.max(1) as f64,
    );
    m
}

pub fn run(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (presets, setup_times) = timed_setup(SETUP_REPS, setup);
    let mut off = Tracer::off();

    if !a.trace {
        alloc::set_counting(true);
        let mut exact = Work::default();
        for r in 0..EXACT_ROUNDS {
            exact.add(&round(&presets, a.seed, r, &mut off, &mut out));
        }
        alloc::set_counting(false);
        out.exact = exact.exact();

        let (mut rounds, mut per_round) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        let mut r = EXACT_ROUNDS;
        while t0.elapsed().as_secs_f64() < a.seconds {
            let t = Instant::now();
            let cells = round(&presets, a.seed, r, &mut off, &mut out).cells;
            let secs = t.elapsed().as_secs_f64();
            per_round.push(((t - t0).as_secs_f64(), cells as f64, secs));
            rounds.push(((t - t0).as_secs_f64(), secs));
            r += 1;
        }
        out.throughput("cells_per_s", &per_round);
        out.latency(SIM_PCTS, WINDOW_S, "one seed's 5x5 matrix", &rounds);
        out.setup_time(setup_times, setup);
        return out;
    }

    // Untraced pass, then the same rounds traced.
    alloc::set_counting(true);
    let mut untraced = Vec::new();
    let t0 = Instant::now();
    while untraced.len() < EXACT_ROUNDS || t0.elapsed().as_secs_f64() < a.seconds / 2.0 {
        untraced.push(round(&presets, a.seed, untraced.len(), &mut off, &mut out));
    }
    let untraced_s = t0.elapsed().as_secs_f64();
    let mut tr = Tracer::new(true, Instant::now());
    let t0 = Instant::now();
    let pass = tr.begin("bench.pass");
    let traced: Vec<Work> = (0..untraced.len())
        .map(|r| round(&presets, a.seed, r, &mut tr, &mut out))
        .collect();
    tr.end(pass);
    let traced_s = t0.elapsed().as_secs_f64();
    alloc::set_counting(false);

    let sum = |w: &[Work]| {
        let mut s = Work::default();
        w.iter().for_each(|x| s.add(x));
        s
    };
    let exact = sum(&traced[..EXACT_ROUNDS]);
    out.same_counts(
        "table2_campaign exact set",
        &sum(&untraced[..EXACT_ROUNDS]).exact(),
        &exact.exact(),
    );
    out.same_counts(
        "table2_campaign traced pass",
        &sum(&untraced).exact(),
        &sum(&traced).exact(),
    );
    out.exact = exact.exact();
    record_counts(&mut out, &exact);
    out.layer.extend(layer_times(&tr, &sum(&traced)));
    let side_s = tr.durations("scenario.new").iter().sum::<f64>() / 1e9;
    out.breakdown(
        &Breakdown::of(&[&tr]),
        tr.spans.len(),
        untraced_s,
        traced_s,
        side_s,
    );
    let path = crate::out_dir().join(format!("spans-table2_campaign-{}.json", a.seed));
    if let Err(e) = crate::trace::write_chrome(&path, &[&tr]) {
        out.error(format!("write {}: {e}", path.display()));
    }
    out
}

/// Per-layer counts of the exact set.
fn record_counts(out: &mut Outcome, w: &Work) {
    let s = &w.stats;
    for (name, v) in w.exact() {
        if name.starts_with("eval.") && name != "eval.cells" {
            out.layer.insert(name, v as f64);
        }
    }
    out.layer.insert(
        "eval.ff_skip_ratio",
        s.ff_skipped_cycles as f64 / s.sim_cycles.max(1) as f64,
    );
    out.layer
        .insert("alloc.per_cell", w.allocs.count as f64 / w.cells as f64);
    out.layer.insert(
        "alloc.bytes_per_cell",
        w.allocs.bytes as f64 / w.cells as f64,
    );
}
