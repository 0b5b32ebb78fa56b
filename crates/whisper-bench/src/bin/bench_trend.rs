//! `bench-trend`: performance trends across the report lineage.
//!
//! Lines up metrics across a sequence of `RunReport` JSON files —
//! typically the committed `BENCH_baseline.json` → `BENCH_core.json`
//! lineage, optionally followed by the current build's
//! `target/reports/*.json` — and prints each metric's latest delta with
//! a noise band estimated from the prior points. Host-performance
//! metrics (ns/iter, ns/trial, cycles/sec, speedup) get a direction and
//! can *regress*; everything else is informational.
//!
//! Run: `cargo run -p whisper-bench --bin bench_trend -- \
//!          [--gate] [--band PCT] [--reports DIR] FILE...`
//!
//! * `FILE...` — reports in lineage order (oldest first).
//! * `--lineage a.json,b.json,...` — comma-separated reports prepended
//!   before the positional files, in exactly the given order (file
//!   mtimes are never consulted; a fresh checkout has arbitrary ones).
//! * `--reports DIR` — append every `*.json` in `DIR` (sorted by name)
//!   after the explicit files.
//! * `--band PCT` — noise-band floor in percent (default 10).
//! * `--gate` — exit non-zero when any directed metric's latest point
//!   regresses past its band (the CI trend gate).

use whisper_bench::trend::{self, TrendVerdict};
use whisper_bench::{parse_or_exit, section, take_flag, take_flag_value, write_report, RunReport};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let gate = take_flag(&mut args, "--gate");
    let band: f64 =
        take_flag_value(&mut args, "--band").map_or(10.0, |v| parse_or_exit("--band", &v));
    let reports_dir = take_flag_value(&mut args, "--reports");
    let lineage = take_flag_value(&mut args, "--lineage");

    let mut paths: Vec<std::path::PathBuf> = lineage
        .as_deref()
        .map(trend::parse_lineage)
        .unwrap_or_default();
    paths.extend(args.iter().map(std::path::PathBuf::from));
    if let Some(dir) = &reports_dir {
        // A missing or unreadable --reports dir is an empty contribution,
        // not a crash: on a fresh checkout `target/reports/` does not
        // exist until the first bench run, and the gate must still pass.
        match std::fs::read_dir(dir) {
            Ok(entries) => {
                let mut extra: Vec<std::path::PathBuf> = entries
                    .filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|x| x == "json"))
                    .collect();
                extra.sort();
                paths.extend(extra);
            }
            Err(e) => eprintln!("bench_trend: --reports {dir}: {e} (treating as empty)"),
        }
    }
    if paths.is_empty() && !gate {
        eprintln!(
            "usage: bench_trend [--gate] [--band PCT] [--lineage A,B,...] [--reports DIR] FILE..."
        );
        std::process::exit(2);
    }

    let reports = trend::load_reports(&paths).unwrap_or_else(|e| {
        eprintln!("bench_trend: {e}");
        std::process::exit(2);
    });
    if reports.len() < 2 {
        // Empty or single-entry lineage: there are no priors to delta
        // against, so there is nothing to gate — trivially pass.
        println!(
            "bench-trend: no priors ({} report(s) in lineage) — nothing to gate",
            reports.len()
        );
        let mut rep = RunReport::new("bench_trend");
        rep.set_meta("gate", if gate { "on" } else { "off" });
        rep.set_meta("no_priors", "true");
        rep.counter("reports", reports.len() as u64);
        write_report(&rep);
        return;
    }
    section("bench-trend: metric deltas across the report lineage");
    println!(
        "  lineage ({} reports, band floor ±{band:.1}%):",
        reports.len()
    );
    for (name, _) in &reports {
        println!("    {name}");
    }
    println!();

    let rows = trend::analyze_all(&trend::collect(&reports), band);
    print!("{}", trend::render_table(&rows));

    let regressed: Vec<&trend::TrendRow> = rows
        .iter()
        .filter(|r| r.verdict == TrendVerdict::Regressed)
        .collect();
    let improved = rows
        .iter()
        .filter(|r| r.verdict == TrendVerdict::Improved)
        .count();
    println!(
        "\n{} metrics, {} regressed, {} improved",
        rows.len(),
        regressed.len(),
        improved
    );

    let mut rep = RunReport::new("bench_trend");
    rep.set_meta("gate", if gate { "on" } else { "off" });
    rep.counter("metrics", rows.len() as u64);
    rep.counter("regressed", regressed.len() as u64);
    rep.counter("improved", improved as u64);
    rep.scalar("band_floor_pct", band);
    write_report(&rep);

    if !regressed.is_empty() {
        for r in &regressed {
            eprintln!(
                "REGRESSED: {} {:.4} -> {:.4} ({:+.1}%, band ±{:.1}%)",
                r.key, r.baseline, r.current, r.delta_pct, r.band_pct
            );
        }
        if gate {
            std::process::exit(1);
        }
    }
}
