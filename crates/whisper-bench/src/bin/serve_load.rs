//! `serve_load` — closed-loop load generator for the `whisper-serve`
//! campaign service, producing `BENCH_serve.json`.
//!
//! Two phases:
//!
//! 1. **Latency probe** (single client): a handful of *cold* campaigns
//!    (unique seeds, so every one misses the result cache and runs
//!    through the scheduler) and a burst of *cached* resubmits of one
//!    warm campaign. Records cold vs cached p50/p99 in microseconds and
//!    the cached speedup — the content-addressed cache is the whole
//!    point, so the report asserts it visibly.
//! 2. **Closed-loop load**: `--clients N` threads each issue requests
//!    back-to-back for `--duration-ms`, mixing cache hits and misses at
//!    `--hit-pct` (deterministic round-robin schedule, no RNG). Records
//!    sustained requests/sec and the per-class latency histograms.
//!
//! By default it spawns an in-process server on an ephemeral port with
//! an isolated temp cache (removed afterwards); `--server URL` targets
//! an external `whisper-serve` instead — then the cold/cached split
//! relies on that server's cache being empty for the probe seeds.
//! Clients reuse one keep-alive connection each; `--no-keep-alive`
//! restores the PR-8 connection-per-request behavior for A/B runs.
//!
//! Run: `cargo run --release -p whisper-bench --bin serve_load
//!       [--server URL] [--clients N] [--duration-ms MS] [--hit-pct P]
//!       [--workers N] [--threads N] [--no-keep-alive] [--out PATH]`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use tet_obs::Histogram;
use tet_serve::{Client, ServerConfig};
use whisper_bench::{parse_or_exit, section, take_flag, take_flag_value, write_report, RunReport};

/// Cold probes per run: enough for a stable median without making the
/// smoke job slow.
const COLD_PROBES: u64 = 3;
/// Cached probes per run.
const CACHED_PROBES: u64 = 24;
/// The warm campaign every cache hit resubmits.
const WARM_SPEC: &str = "{\"kind\": \"table2_cell\", \"preset\": \"intel-core-i7-7700\", \
                         \"attack\": \"cc\", \"seed\": 3, \"trials\": 64}";

/// A cold campaign: same shape as the warm one, but a seed nobody else
/// uses. Seeds for the probe phase count down from `u32::MAX`; seeds
/// for the load phase count up from `1 << 20` — disjoint ranges, so a
/// "cold" request can never accidentally hit.
fn cold_spec(seed: u64) -> String {
    format!(
        "{{\"kind\": \"table2_cell\", \"preset\": \"intel-core-i7-7700\", \
          \"attack\": \"cc\", \"seed\": {seed}, \"trials\": 64}}"
    )
}

/// Percentile over a sorted slice (nearest-rank on the closed index).
fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * pct / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One timed `submit → (wait) → fetch report` round trip.
fn timed_request(client: &Client, spec: &str) -> Result<(u64, bool), String> {
    let started = Instant::now();
    let (_, was_cached) = client.run_to_report(spec)?;
    Ok((micros(started.elapsed()), was_cached))
}

struct LoadTotals {
    requests: u64,
    errors: u64,
    cold_us: Vec<u64>,
    cached_us: Vec<u64>,
}

/// The closed-loop phase: each client thread alternates cache hits and
/// misses on a fixed `i % 100 < hit_pct` schedule.
fn run_load(
    base: &str,
    clients: usize,
    duration: Duration,
    hit_pct: u64,
    keep_alive: bool,
) -> LoadTotals {
    let stop = AtomicBool::new(false);
    let cold_seed = AtomicU64::new(1 << 20);
    let totals = std::sync::Mutex::new(LoadTotals {
        requests: 0,
        errors: 0,
        cold_us: Vec::new(),
        cached_us: Vec::new(),
    });
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let client = Client::new(base).with_keep_alive(keep_alive);
                let mut cold_us = Vec::new();
                let mut cached_us = Vec::new();
                let mut errors = 0u64;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let want_hit = i % 100 < hit_pct;
                    i += 1;
                    let spec = if want_hit {
                        WARM_SPEC.to_string()
                    } else {
                        cold_spec(cold_seed.fetch_add(1, Ordering::Relaxed))
                    };
                    match timed_request(&client, &spec) {
                        // Classify by what actually happened, not what
                        // the schedule wanted: concurrent misses on the
                        // same key dedup into one flight.
                        Ok((us, true)) => cached_us.push(us),
                        Ok((us, false)) => cold_us.push(us),
                        Err(_) => errors += 1,
                    }
                }
                let mut t = totals.lock().unwrap();
                t.requests += (cold_us.len() + cached_us.len()) as u64;
                t.errors += errors;
                t.cold_us.extend(cold_us);
                t.cached_us.extend(cached_us);
            });
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    });
    totals.into_inner().unwrap()
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let no_keep_alive = take_flag(&mut args, "--no-keep-alive");
    let keep_alive = !no_keep_alive;
    let server = take_flag_value(&mut args, "--server");
    let clients: usize =
        take_flag_value(&mut args, "--clients").map_or(4, |v| parse_or_exit("--clients", &v));
    let duration_ms: u64 = take_flag_value(&mut args, "--duration-ms")
        .map_or(2000, |v| parse_or_exit("--duration-ms", &v));
    let hit_pct: u64 =
        take_flag_value(&mut args, "--hit-pct").map_or(90, |v| parse_or_exit("--hit-pct", &v));
    let workers: usize =
        take_flag_value(&mut args, "--workers").map_or(4, |v| parse_or_exit("--workers", &v));
    let threads: usize = take_flag_value(&mut args, "--threads")
        .map_or_else(tet_par::default_threads, |v| parse_or_exit("--threads", &v));
    let out = take_flag_value(&mut args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_string());
    if let Some(stray) = args.first() {
        eprintln!("serve_load: unknown argument {stray:?}");
        eprintln!(
            "usage: serve_load [--server URL] [--clients N] [--duration-ms MS] \
             [--hit-pct P] [--workers N] [--threads N] [--no-keep-alive] [--out PATH]"
        );
        std::process::exit(2);
    }

    // Target: an external server, or a private in-process one.
    let mut handle = None;
    let mut cache_dir = None;
    let base = match &server {
        Some(url) => url.clone(),
        None => {
            let dir = std::env::temp_dir().join(format!("serve-load-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let h = tet_serve::start(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers,
                threads,
                cache_dir: dir.clone(),
                ..ServerConfig::default()
            })
            .unwrap_or_else(|e| {
                eprintln!("serve_load: start server: {e}");
                std::process::exit(1);
            });
            let base = h.addr().to_string();
            handle = Some(h);
            cache_dir = Some(dir);
            base
        }
    };

    section("whisper-serve load generator");
    println!(
        "  server: {base} ({})",
        if server.is_some() {
            "external"
        } else {
            "in-process"
        }
    );
    println!(
        "  clients: {clients}  duration: {duration_ms} ms  hit ratio: {hit_pct}%  \
         connections: {}",
        if keep_alive {
            "keep-alive"
        } else {
            "per-request"
        }
    );

    let client = Client::new(&base).with_keep_alive(keep_alive);
    if let Err(e) = client.health() {
        eprintln!("serve_load: health check failed: {e}");
        std::process::exit(1);
    }

    // Phase 1 — cold vs cached latency, one client at a time.
    let mut cold_probe_us = Vec::new();
    for i in 0..COLD_PROBES {
        let spec = cold_spec(u64::from(u32::MAX) - i);
        match timed_request(&client, &spec) {
            Ok((us, false)) => cold_probe_us.push(us),
            Ok((_, true)) => eprintln!("serve_load: probe seed unexpectedly cached, skipping"),
            Err(e) => {
                eprintln!("serve_load: cold probe: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = client.run_to_report(WARM_SPEC) {
        eprintln!("serve_load: warm-up: {e}");
        std::process::exit(1);
    }
    let mut cached_probe_us = Vec::new();
    for _ in 0..CACHED_PROBES {
        match timed_request(&client, WARM_SPEC) {
            Ok((us, true)) => cached_probe_us.push(us),
            Ok((_, false)) => eprintln!("serve_load: warm spec unexpectedly missed"),
            Err(e) => {
                eprintln!("serve_load: cached probe: {e}");
                std::process::exit(1);
            }
        }
    }
    cold_probe_us.sort_unstable();
    cached_probe_us.sort_unstable();
    let cold_p50 = percentile(&cold_probe_us, 50.0);
    let cached_p50 = percentile(&cached_probe_us, 50.0);
    let speedup = if cached_p50 > 0 {
        cold_p50 as f64 / cached_p50 as f64
    } else {
        f64::from(u32::from(cold_p50 > 0)) // degenerate clock: 0 or 1
    };
    println!(
        "\n  cold   p50: {cold_p50} us   p99: {} us",
        percentile(&cold_probe_us, 99.0)
    );
    println!(
        "  cached p50: {cached_p50} us   p99: {} us",
        percentile(&cached_probe_us, 99.0)
    );
    println!("  cached speedup: {speedup:.0}x");

    // Phase 2 — closed-loop load.
    let started = Instant::now();
    let mut totals = run_load(
        &base,
        clients,
        Duration::from_millis(duration_ms),
        hit_pct,
        keep_alive,
    );
    let wall = started.elapsed();
    totals.cold_us.sort_unstable();
    totals.cached_us.sort_unstable();
    let rps = totals.requests as f64 / wall.as_secs_f64();
    println!(
        "\n  load: {} requests in {:.2} s = {rps:.0} req/s ({} errors)",
        totals.requests,
        wall.as_secs_f64(),
        totals.errors
    );
    println!(
        "  under load — cold p50: {} us ({} reqs), cached p50: {} us ({} reqs)",
        percentile(&totals.cold_us, 50.0),
        totals.cold_us.len(),
        percentile(&totals.cached_us, 50.0),
        totals.cached_us.len()
    );

    let stats = client.cache_stats().unwrap_or_else(|e| {
        eprintln!("serve_load: cache stats: {e}");
        std::process::exit(1);
    });
    let cache_hits = stats.get("hits").and_then(|v| v.as_u64()).unwrap_or(0);
    let cache_misses = stats.get("misses").and_then(|v| v.as_u64()).unwrap_or(0);

    let mut rep = RunReport::new("serve_load");
    rep.set_meta(
        "server",
        if server.is_some() {
            "external"
        } else {
            "in-process"
        },
    );
    rep.set_meta("warm_spec", WARM_SPEC);
    rep.set_meta(
        "client_mode",
        if keep_alive {
            "keep-alive"
        } else {
            "connection-per-request"
        },
    );
    rep.counter("clients", clients as u64);
    rep.counter("duration_ms", duration_ms);
    rep.counter("hit_pct", hit_pct);
    rep.counter("requests", totals.requests);
    rep.counter("errors", totals.errors);
    rep.counter("load_cold_requests", totals.cold_us.len() as u64);
    rep.counter("load_cached_requests", totals.cached_us.len() as u64);
    rep.counter("cache_hits", cache_hits);
    rep.counter("cache_misses", cache_misses);
    rep.scalar("requests_per_sec", rps);
    rep.scalar("cold_p50_us", cold_p50 as f64);
    rep.scalar("cold_p99_us", percentile(&cold_probe_us, 99.0) as f64);
    rep.scalar("cached_p50_us", cached_p50 as f64);
    rep.scalar("cached_p99_us", percentile(&cached_probe_us, 99.0) as f64);
    rep.scalar("cached_speedup", speedup);
    rep.scalar("load_cold_p50_us", percentile(&totals.cold_us, 50.0) as f64);
    rep.scalar("load_cold_p99_us", percentile(&totals.cold_us, 99.0) as f64);
    rep.scalar(
        "load_cached_p50_us",
        percentile(&totals.cached_us, 50.0) as f64,
    );
    rep.scalar(
        "load_cached_p99_us",
        percentile(&totals.cached_us, 99.0) as f64,
    );
    rep.scalar(
        "load_cold_p999_us",
        percentile(&totals.cold_us, 99.9) as f64,
    );
    rep.scalar(
        "load_cached_p999_us",
        percentile(&totals.cached_us, 99.9) as f64,
    );
    let mut cold_hist = Histogram::new();
    for &us in cold_probe_us.iter().chain(&totals.cold_us) {
        cold_hist.record(us);
    }
    let mut cached_hist = Histogram::new();
    for &us in cached_probe_us.iter().chain(&totals.cached_us) {
        cached_hist.record(us);
    }
    rep.histogram("cold_latency_us", &cold_hist);
    rep.histogram("cached_latency_us", &cached_hist);
    // Mirror the client-side latencies into the report's metrics section
    // so BENCH_serve.json carries p50/p99/p999 summaries in the same
    // place (and the same Prometheus export path) as the server's own
    // serve.{cached,cold}_request_us histograms.
    let registry = tet_metrics::Registry::new();
    let mh = registry.handle();
    for &us in cold_probe_us.iter().chain(&totals.cold_us) {
        mh.observe("client.cold_latency_us", us);
    }
    for &us in cached_probe_us.iter().chain(&totals.cached_us) {
        mh.observe("client.cached_latency_us", us);
    }
    rep.set_metrics(registry.snapshot());
    rep.set_throughput(wall, clients, None);
    write_report(&rep);
    match std::fs::write(&out, rep.to_json()) {
        Ok(()) => println!("\n  wrote {out}"),
        Err(e) => {
            eprintln!("serve_load: write {out}: {e}");
            std::process::exit(1);
        }
    }

    if let Some(h) = handle {
        h.shutdown();
    }
    if let Some(dir) = cache_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The acceptance bar for the service: a cache hit must be at least
    // two orders of magnitude cheaper than recomputing the campaign.
    assert!(
        speedup >= 100.0,
        "cached latency must be >= 100x faster than cold (got {speedup:.1}x)"
    );
}
