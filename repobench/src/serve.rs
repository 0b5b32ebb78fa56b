//! `serve_mixed`: an in-process `whisper-serve` (one campaign worker,
//! simulator threads = 1) under two open-loop streams, each one thread
//! with one keep-alive `Client` at a fixed offered rate:
//!
//! * hits: Zipf-skewed resubmits over a prefilled working set larger
//!   than the hot tier's budget, so both the hot and the disk tier serve;
//! * misses: never-seen `table2_cell` specs over all five attacks, which
//!   run a campaign, a disk put and an eviction under the disk byte cap.
//!
//! Every request is timed from when it was due and classed by what the
//! server did (`cached` or not), not by the stream that sent it.
//!
//! The disk cap equals the prefilled bytes, and the prefill writes a
//! never-requested filler set before the working set, so the stamp-LRU
//! evicts filler entries for the misses' reports and the working set
//! stays resident.

use std::collections::{BTreeMap, HashMap};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tet_serve::http::{ReadOutcome, Request};
use tet_serve::scheduler::run_campaign;
use tet_serve::{
    CampaignSpec, Client, HotCache, HotEntry, ResultCache, ServerConfig, ServerHandle, KEY_FORMAT,
};
use tet_uarch::CpuConfig;

use crate::alloc;
use crate::stats::{self, Rng};
use crate::trace::{Breakdown, Tracer};
use crate::{timed_setup, Args, Outcome};

/// The request mix of `serve_load`, the repository's older load
/// generator: 90% of requests resubmit a cached spec (its default
/// `--hit-pct 90`), 10% are never-seen 64-trial `table2_cell` campaigns
/// (its cold spec's trial count).
const HIT_SHARE: f64 = 0.9;
const MISS_TRIALS: u32 = 64;
/// Offered rates in requests per second. One miss a second: the slowest
/// miss campaign (a 64-trial Zombieload cell, 0.4-0.7 s on the host the
/// README describes) ends before the next miss is due, so misses never
/// queue on the one campaign worker. The hit rate follows from the mix.
const MISS_RATE: f64 = 1.0;
const HIT_RATE: f64 = MISS_RATE * HIT_SHARE / (1.0 - HIT_SHARE);
/// The miss stream's attacks, cycled, so each has its natural fifth of
/// the misses; the presets cycle as a Latin square over them.
const MISS_ATTACKS: [&str; 5] = ["cc", "md", "zbl", "rsb", "kaslr"];
/// Percentiles (typical, tail) of a miss, over every miss of the pass.
/// A run holds about six misses of each attack, whose campaigns differ
/// up to 20-fold in cost, so the median falls between the attacks'
/// groups and jumps with the host's speed; p75 and p90 fall inside the
/// Return Stack Buffer and the Zombieload group (see the README).
const MISS_PCTS: (f64, f64) = (75.0, 90.0);
/// Working-set and filler sizes in reports (about 1 KB each).
const WORKING_SET: usize = 400;
const FILLER: usize = 200;
/// Hot-tier budget: about a sixth of the working set, so the hot tier
/// holds the most popular keys and the disk tier serves the rest. The
/// server's default budget is larger than any working set a set-up can
/// prefill in seconds, so it is scaled down with the working set.
const HOT_BYTES: u64 = 64 << 10;
/// Zipf exponent of the hit stream's key popularity (Zipf's law).
const ZIPF_S: f64 = 1.0;
/// The exact set: the first requests of each stream's schedule (both
/// fall inside the shortest pass, half of a 30 s traced run).
const EXACT_HITS: usize = 100;
const EXACT_MISSES: usize = 10;

/// Set-ups before the measured window, and again after it: fewer than
/// the simulator workloads' five, as each prefills 600 reports.
const SETUP_REPS: usize = 3;

fn spec_json(preset: &str, attack: &str, seed: u64, trials: u32) -> String {
    format!(
        "{{\"kind\": \"table2_cell\", \"preset\": \"{}\", \"attack\": \"{attack}\", \"seed\": {seed}, \"trials\": {trials}}}",
        CpuConfig::slug_of(preset)
    )
}

/// The seeded inputs: working set, filler, and the miss stream's specs.
struct Inputs {
    working_set: Vec<String>,
    filler: Vec<String>,
    seed_base: u64,
    zipf_cdf: Vec<f64>,
    presets: Vec<CpuConfig>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let presets = CpuConfig::table2_presets();
        let seed_base = 1 + Rng::new(seed, 3).below(1 << 32) * 4;
        let cheap = ["cc", "md", "kaslr"];
        let working_set = (0..WORKING_SET)
            .map(|i| {
                let p = presets[i % presets.len()].name;
                spec_json(
                    p,
                    cheap[(i / presets.len()) % cheap.len()],
                    seed_base + i as u64,
                    1,
                )
            })
            .collect();
        let filler = (0..FILLER)
            .map(|j| {
                spec_json(
                    presets[j % presets.len()].name,
                    "cc",
                    seed_base + 100_000 + j as u64,
                    1,
                )
            })
            .collect();
        let mut acc = 0.0;
        let mut zipf_cdf: Vec<f64> = (0..WORKING_SET)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        zipf_cdf.iter_mut().for_each(|c| *c /= acc);
        Inputs {
            working_set,
            filler,
            seed_base,
            zipf_cdf,
            presets,
        }
    }

    /// The `k`th miss spec: attack `k mod 5` on preset `(k + k / 5) mod 5`,
    /// so each window of five misses covers every attack and every preset
    /// and 25 misses cover every pair.
    fn miss(&self, k: usize) -> String {
        let n = MISS_ATTACKS.len();
        let attack = MISS_ATTACKS[k % n];
        let p = self.presets[(k + k / n) % self.presets.len()].name;
        spec_json(
            p,
            attack,
            self.seed_base + 200_000 + 16 * k as u64,
            MISS_TRIALS,
        )
    }

    /// The hit stream's key schedule.
    fn hit_keys(&self, seed: u64) -> impl Iterator<Item = usize> + '_ {
        let mut rng = Rng::new(seed, 4);
        std::iter::repeat_with(move || {
            let u = rng.unit();
            self.zipf_cdf
                .partition_point(|&c| c < u)
                .min(self.zipf_cdf.len() - 1)
        })
    }
}

fn report_of(spec_json: &str) -> Result<String, String> {
    let spec = CampaignSpec::from_json(spec_json)?;
    Ok(run_campaign(&spec, 1, |_| {})?.to_json())
}

fn key_of(spec_json: &str) -> String {
    CampaignSpec::from_json(spec_json)
        .expect("the benchmark generates valid specs")
        .cache_key()
}

/// A running server over a freshly prefilled cache directory.
struct Env {
    server: Option<ServerHandle>,
    dir: PathBuf,
    /// Every report as stored at prefill, by cache key.
    stored: HashMap<String, String>,
    cache_bytes: u64,
}

impl Drop for Env {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn cache_dir(tag: &str) -> PathBuf {
    crate::out_dir().join(format!("serve-cache-{}-{tag}", std::process::id()))
}

/// Prefills `dir` (filler first, then the working set) and returns the
/// stored reports and the bytes written.
fn prefill(dir: &Path, inputs: &Inputs) -> Result<(HashMap<String, String>, u64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let cache = ResultCache::open(dir)?;
    let mut stored = HashMap::new();
    for spec in inputs.filler.iter().chain(&inputs.working_set) {
        let body = report_of(spec)?;
        let key = key_of(spec);
        cache.put(&key, &body)?;
        stored.insert(key, body);
    }
    Ok((stored, cache.stats().bytes))
}

/// Set-up: prefill the cache and start the server on it.
fn setup(inputs: &Inputs, tag: &str) -> Result<Env, String> {
    let dir = cache_dir(tag);
    let (stored, cache_bytes) = prefill(&dir, inputs)?;
    let server = tet_serve::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        threads: 1,
        cache_dir: dir.clone(),
        cache_bytes,
        hot_bytes: HOT_BYTES,
        idle_timeout_ms: 5_000,
    })?;
    Ok(Env {
        server: Some(server),
        dir,
        stored,
        cache_bytes,
    })
}

impl Env {
    fn client(&self) -> Client {
        let addr = self.server.as_ref().expect("server is running").addr();
        Client::new(&addr.to_string()).with_keep_alive(true)
    }
}

/// One request as the load generator saw it.
struct Done {
    /// The schedule index within its stream.
    index: usize,
    spec: String,
    /// The server answered from its cache.
    cached: bool,
    /// `None` when the request failed.
    body: Option<String>,
    /// From due time to the last response byte.
    latency_s: f64,
    /// From due time to the send.
    late_s: f64,
    /// Time spent not waiting for the due time.
    busy_s: f64,
}

/// Sleeps, then spins, until `due`.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_millis(3) {
            std::thread::sleep(left - Duration::from_millis(2));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Side calls a traced pass makes after each request: the request
/// path's layers, called directly on the same input.
struct Mirror {
    hot: HotCache,
    disk: ResultCache,
    host: String,
}

impl Mirror {
    fn new(env: &Env, inputs: &Inputs, tag: &str) -> Result<Mirror, String> {
        let dir = cache_dir(&format!("{tag}-mirror"));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = ResultCache::open_capped(&dir, env.cache_bytes)?;
        for spec in inputs.filler.iter().chain(&inputs.working_set) {
            let key = key_of(spec);
            disk.put(&key, &env.stored[&key])?;
        }
        Ok(Mirror {
            hot: HotCache::new(HOT_BYTES),
            disk,
            host: env
                .server
                .as_ref()
                .expect("server is running")
                .addr()
                .to_string(),
        })
    }

    /// Parses, canonicalises and keys `spec` as the server does.
    fn front(&self, tr: &mut Tracer, spec: &str) -> String {
        let raw = format!(
            "POST /v1/reports HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{spec}",
            self.host,
            spec.len()
        );
        let req = tr.span("http.parse", || {
            Request::read_from(&mut Cursor::new(raw.as_bytes()))
        });
        let body = match req {
            Ok(ReadOutcome::Request(r)) => r.body,
            _ => String::new(),
        };
        let parsed = tr.span("spec.canonicalize", || {
            let s = CampaignSpec::from_json(&body).expect("the benchmark generates valid specs");
            std::hint::black_box(s.canonical_json());
            s
        });
        tr.span("spec.key", || parsed.cache_key())
    }

    /// The two cache tiers' lookups, as the server's fast path does them.
    fn lookup(&self, tr: &mut Tracer, key: &str) {
        if tr.span("hotcache.get", || self.hot.get(key)).is_some() {
            return;
        }
        if let Some(body) = tr.span("diskcache.get", || self.disk.get(key)) {
            tr.span("hotcache.insert", || {
                self.hot.insert(key, HotEntry::json(&body))
            });
        }
    }
}

/// Exact work of the schedule prefix.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Prefix {
    bytes_hashed: u64,
    report_bytes: u64,
}

/// What a pass measured.
struct Pass {
    hits: Vec<Done>,
    misses: Vec<Done>,
    tracers: Vec<Tracer>,
    /// Server-side: `/v1/cache/stats` and `/v1/metrics` after the pass.
    cache_stats: Option<tet_obs::json::Value>,
    metrics: String,
}

/// Runs both streams for `seconds`. A traced pass records spans
/// and makes the mirror's side calls after each request.
fn pass(
    env: &Env,
    inputs: &Inputs,
    seed: u64,
    seconds: f64,
    mirror: Option<&Mirror>,
    origin: Instant,
) -> Pass {
    let traced = mirror.is_some();
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(seconds);
    let stream = |rate: f64, spec_at: &(dyn Fn(usize) -> String + Sync), miss: bool| {
        let client = env.client();
        let mut tr = Tracer::new(traced, origin);
        let mut out = Vec::new();
        let whole = tr.begin("bench.pass");
        for index in 0.. {
            let due = start + Duration::from_secs_f64(index as f64 / rate);
            if due >= end {
                break;
            }
            let spec = spec_at(index);
            tr.span("loadgen.wait", || wait_until(due));
            let sent = Instant::now();
            let res = tr.span("client.request", || client.run_to_report(&spec));
            let done = Instant::now();
            let (body, cached) = match res {
                Ok((b, c)) => (Some(b), c),
                Err(e) => {
                    eprintln!("repobench: request failed: {e}");
                    (None, false)
                }
            };
            if let Some(m) = mirror {
                let key = m.front(&mut tr, &spec);
                if miss {
                    let rendered = tr.span("scheduler.campaign", || {
                        run_campaign(
                            &CampaignSpec::from_json(&spec).expect("valid spec"),
                            1,
                            |_| {},
                        )
                    });
                    if let Ok(rep) = rendered {
                        let json = tr.span("report.render", || rep.to_json());
                        tr.span("diskcache.put", || m.disk.put(&key, &json).ok());
                    }
                } else {
                    m.lookup(&mut tr, &key);
                }
            }
            out.push(Done {
                index,
                spec,
                cached,
                body,
                latency_s: (done - due).as_secs_f64(),
                late_s: sent.saturating_duration_since(due).as_secs_f64(),
                busy_s: (Instant::now() - sent).as_secs_f64(),
            });
        }
        tr.end(whole);
        (out, tr)
    };
    let mut keys = inputs.hit_keys(seed);
    let hit_keys: Vec<usize> = (0..(HIT_RATE * seconds) as usize + 1)
        .map(|_| keys.next().expect("endless"))
        .collect();
    let hit_spec = |i: usize| inputs.working_set[hit_keys[i]].clone();
    let miss_spec = |k: usize| inputs.miss(k);
    let ((hits, t_hit), (misses, t_miss)) = std::thread::scope(|s| {
        let h = s.spawn(|| stream(HIT_RATE, &hit_spec, false));
        let m = s.spawn(|| stream(MISS_RATE, &miss_spec, true));
        (
            h.join().expect("hit stream panicked"),
            m.join().expect("miss stream panicked"),
        )
    });
    let client = env.client();
    Pass {
        hits,
        misses,
        tracers: vec![t_hit, t_miss],
        cache_stats: client.cache_stats().ok(),
        metrics: client.metrics().unwrap_or_default(),
    }
}

/// Checks every served report, counts attempts and failures, and sums
/// the exact prefix.
fn check(
    p: &Pass,
    env: &Env,
    out: &mut Outcome,
    reference: &mut HashMap<String, String>,
) -> Prefix {
    let mut prefix = Prefix::default();
    for (d, limit) in p
        .hits
        .iter()
        .map(|d| (d, EXACT_HITS))
        .chain(p.misses.iter().map(|d| (d, EXACT_MISSES)))
    {
        out.attempted += 1;
        let key = key_of(&d.spec);
        let want = match env.stored.get(&key) {
            Some(b) => Some(b.clone()),
            None => reference.get(&key).cloned().or_else(|| {
                let r = report_of(&d.spec).ok()?;
                reference.insert(key.clone(), r.clone());
                Some(r)
            }),
        };
        let ok = d.body.is_some() && d.body == want;
        if !ok {
            out.failed += 1;
            out.error(format!(
                "request for {} served {} bytes that differ from the reference",
                d.spec,
                d.body.as_ref().map_or(0, |b| b.len())
            ));
        }
        if d.index < limit {
            let canonical = CampaignSpec::from_json(&d.spec)
                .expect("valid spec")
                .canonical_json();
            prefix.bytes_hashed += (KEY_FORMAT.len() + 1 + canonical.len()) as u64;
            prefix.report_bytes += d.body.as_ref().map_or(0, |b| b.len()) as u64;
        }
    }
    prefix
}

fn exact(p: &Prefix) -> Vec<(&'static str, u64)> {
    vec![
        ("spec.bytes_hashed", p.bytes_hashed),
        ("report.bytes", p.report_bytes),
    ]
}

/// (due time, latency) of requests the server answered from cache
/// (`fast`) and of those it computed (`slow`); a failed request counts
/// in its stream's class as missing every limit.
#[allow(clippy::type_complexity)]
fn classes(p: &Pass) -> (Vec<(f64, f64)>, Vec<(f64, f64)>) {
    let (mut fast, mut slow) = (Vec::new(), Vec::new());
    for (d, rate, from_miss_stream) in p
        .hits
        .iter()
        .map(|d| (d, HIT_RATE, false))
        .chain(p.misses.iter().map(|d| (d, MISS_RATE, true)))
    {
        let due = d.index as f64 / rate;
        let (cached, latency) = match d.body {
            Some(_) => (d.cached, d.latency_s),
            None => (!from_miss_stream, f64::INFINITY),
        };
        if cached {
            fast.push((due, latency))
        } else {
            slow.push((due, latency))
        }
    }
    (fast, slow)
}

/// Hit latency p50 and p75 in µs, per-window medians as for `op_*`. Hits
/// are not an end-to-end metric: their time is mostly the VM's thread
/// wake-ups, which moved the hit p50 by 0.4 of its median between runs.
fn hit_percentiles(fast: &[(f64, f64)]) -> (f64, f64) {
    let ((p50, p75), _) = stats::windowed(fast, crate::WINDOW_S, (50.0, 75.0));
    (p50 * 1e6, p75 * 1e6)
}

/// `name_sum / name_count` of a Prometheus summary.
fn prom_mean(text: &str, name: &str) -> f64 {
    let get = |suffix: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name}{suffix} ")))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    get("_sum") / get("_count").max(1.0)
}

fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Server-side layer numbers of a pass: tier shares, evictions, mean
/// service times, polls per miss.
fn server_layers(p: &Pass, layer: &mut BTreeMap<&'static str, f64>) {
    let st = |k: &str| {
        p.cache_stats
            .as_ref()
            .and_then(|v| v.get(k))
            .and_then(|v| v.as_u64())
            .unwrap_or(0) as f64
    };
    let (hits, misses, hot_hits) = (st("hits"), st("misses"), st("hot_hits"));
    // A computed report is fetched once from the hot tier after its job
    // ends, so hot-tier hits that answered a request are hot_hits − misses.
    let hot_served = (hot_hits - misses).max(0.0);
    let disk_served = (hits - hot_served).max(0.0);
    layer.insert("hotcache.hit_share", hot_served / (hits + misses).max(1.0));
    layer.insert(
        "diskcache.hit_share",
        disk_served / (disk_served + misses).max(1.0),
    );
    layer.insert("hotcache.evictions", st("hot_evictions"));
    layer.insert("diskcache.evictions", st("evictions"));
    layer.insert(
        "server.cached_service_us",
        prom_mean(&p.metrics, "serve_cached_request_us"),
    );
    layer.insert(
        "server.cold_service_us",
        prom_mean(&p.metrics, "serve_cold_request_us"),
    );
    // Requests: 1 per cached answer; probe, submit, polls and report
    // fetch per computed one; plus this pass's `/v1/cache/stats` and
    // `/v1/metrics` reads.
    let computed = p.hits.iter().chain(&p.misses).filter(|d| !d.cached).count() as f64;
    let cached = (p.hits.len() + p.misses.len()) as f64 - computed;
    let polls = prom_value(&p.metrics, "serve_requests") - cached - 3.0 * computed - 2.0;
    layer.insert("client.polls_per_miss", polls / computed.max(1.0));
    let mut late: Vec<f64> = p.hits.iter().map(|d| d.late_s * 1e6).collect();
    layer.insert("loadgen.late_p99_us", stats::percentile(&mut late, 99.0));
}

fn span_layers(tracers: &[&Tracer], layer: &mut BTreeMap<&'static str, f64>) {
    let med = |name: &str, scale: f64| {
        let mut d: Vec<f64> = tracers.iter().flat_map(|t| t.durations(name)).collect();
        stats::median(&mut d) / scale
    };
    for (span, metric, scale) in [
        ("http.parse", "http.parse_us", 1e3),
        ("spec.canonicalize", "spec.canonicalize_us", 1e3),
        ("spec.key", "spec.key_us", 1e3),
        ("hotcache.get", "hotcache.get_us", 1e3),
        ("diskcache.get", "diskcache.get_us", 1e3),
        ("diskcache.put", "diskcache.put_us", 1e3),
        ("scheduler.campaign", "scheduler.campaign_ms", 1e6),
        ("report.render", "report.render_us", 1e3),
    ] {
        layer.insert(metric, med(span, scale));
    }
}

fn busy(p: &Pass) -> f64 {
    p.hits.iter().chain(&p.misses).map(|d| d.busy_s).sum()
}

fn fail_setup(out: &mut Outcome, e: String) -> Outcome {
    out.attempted += 1;
    out.failed += 1;
    out.error(format!("serve set-up: {e}"));
    std::mem::take(out)
}

pub fn run(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let seconds = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let inputs = Inputs::new(a.seed);
    let mut rep = 0;
    let mut make = || {
        rep += 1;
        setup(&inputs, &format!("rep{rep}"))
    };
    let (env, setup_times) = timed_setup(SETUP_REPS, &mut make);
    let env = match env {
        Ok(env) => env,
        Err(e) => return fail_setup(&mut out, e),
    };
    let mut reference = HashMap::new();

    if !a.trace {
        let p = pass(&env, &inputs, a.seed, seconds, None, Instant::now());
        let prefix = check(&p, &env, &mut out, &mut reference);
        out.exact = exact(&prefix);
        let (fast, slow) = classes(&p);
        // One round: requests served from the first due time to the last
        // response. Below the offered rate only when the server falls
        // behind.
        let served = p.hits.iter().chain(&p.misses).filter(|d| d.body.is_some());
        let span_s = p
            .hits
            .iter()
            .map(|d| (d, HIT_RATE))
            .chain(p.misses.iter().map(|d| (d, MISS_RATE)))
            .map(|(d, rate)| d.index as f64 / rate + d.latency_s)
            .fold(0.0, f64::max);
        out.throughput("requests_per_s", &[(0.0, served.count() as f64, span_s)]);
        out.latency(
            MISS_PCTS,
            seconds,
            "a request the server computed (a miss)",
            &slow,
        );
        let (p50, p75) = hit_percentiles(&fast);
        out.notes.insert(
            "op_tail_ms",
            format!(
                "{}; hits (per-layer client.hit_*): p50 {p50:.1} us, p75 {p75:.1} us of {}",
                out.notes["op_tail_ms"],
                fast.len()
            ),
        );
        drop(env);
        out.setup_time(setup_times, &mut make);
        return out;
    }

    // Untraced pass on the timed set-up, then a traced pass on a fresh
    // one over the same schedule.
    let untraced = pass(&env, &inputs, a.seed, seconds, None, Instant::now());
    let prefix_u = check(&untraced, &env, &mut out, &mut reference);
    drop(env);
    let env = match setup(&inputs, "traced") {
        Ok(env) => env,
        Err(e) => return fail_setup(&mut out, e),
    };
    let mirror = match Mirror::new(&env, &inputs, "traced") {
        Ok(m) => m,
        Err(e) => return fail_setup(&mut out, e),
    };
    let traced = pass(
        &env,
        &inputs,
        a.seed,
        seconds,
        Some(&mirror),
        Instant::now(),
    );
    let prefix_t = check(&traced, &env, &mut out, &mut reference);
    out.same_counts(
        "serve_mixed schedule prefix",
        &exact(&prefix_u),
        &exact(&prefix_t),
    );
    out.exact = exact(&prefix_t);

    let mut layer = BTreeMap::new();
    server_layers(&untraced, &mut layer);
    let (p50, p75) = hit_percentiles(&classes(&untraced).0);
    layer.insert("client.hit_p50_us", p50);
    layer.insert("client.hit_p75_us", p75);
    let tracers: Vec<&Tracer> = traced.tracers.iter().collect();
    span_layers(&tracers, &mut layer);
    layer.insert("spec.bytes_hashed", prefix_t.bytes_hashed as f64);
    layer.insert("report.bytes", prefix_t.report_bytes as f64);

    // Allocations per cached request: a closed-loop burst of the hit
    // schedule's prefix (client and server threads both count).
    let client = env.client();
    let keys: Vec<usize> = inputs.hit_keys(a.seed).take(EXACT_HITS).collect();
    alloc::set_counting(true);
    let before = alloc::now();
    for k in &keys {
        let _ = client.run_to_report(&inputs.working_set[*k]);
    }
    let allocs = alloc::now().since(before);
    alloc::set_counting(false);
    layer.insert("alloc.per_hit", allocs.count as f64 / keys.len() as f64);
    layer.insert(
        "alloc.bytes_per_hit",
        allocs.bytes as f64 / keys.len() as f64,
    );
    out.layer.extend(layer);

    let spans = tracers.iter().map(|t| t.spans.len()).sum();
    // The side calls are everything a traced stream does besides
    // waiting and the request itself.
    let side_s: f64 = tracers
        .iter()
        .flat_map(|t| &t.spans)
        .filter(|s| !s.is_root() && !matches!(s.name, "loadgen.wait" | "client.request"))
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum();
    out.breakdown(
        &Breakdown::of(&tracers),
        spans,
        busy(&untraced),
        busy(&traced),
        side_s,
    );
    let path = crate::out_dir().join(format!("spans-serve_mixed-{}.json", a.seed));
    if let Err(e) = crate::trace::write_chrome(&path, &tracers) {
        out.error(format!("write {}: {e}", path.display()));
    }
    drop(mirror);
    let _ = std::fs::remove_dir_all(cache_dir("traced-mirror"));
    out
}
