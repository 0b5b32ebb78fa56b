//! `cc_transmit`: seeded payloads through
//! `TetCovertChannel::default().transmit` on the i7-7700 preset. Each
//! call clones the scenario's machine, warms the gadget once, snapshots,
//! and then restores plus decodes (a batched 256-probe argmax sweep) per
//! byte. Long messages weigh the per-byte restore and decode; short ones
//! weigh the per-call warm-up and snapshot.
//!
//! `transmit` is one call into the channel layer, so the traced pass
//! spans it whole (`channel.transmit`). The machine, gadget and batch
//! layers beneath it get their own numbers from side calls on a copy of
//! the scenario: a gadget warm-up probe, one `Machine::snapshot`, and per
//! byte of one short message a `Machine::restore`, the sender's write and
//! an argmax decode whose probes go through `ProbeMemo::probe` and, when
//! it runs them live, the `TetGadget` probe.

use std::collections::BTreeMap;
use std::time::Instant;

use tet_uarch::CpuConfig;
use whisper::analysis::{ArgmaxDecoder, Polarity};
use whisper::channel::TetCovertChannel;
use whisper::{ProbeMemo, Scenario, ScenarioOptions, TetGadget, TetGadgetSpec};

use crate::alloc::{self, Allocs};
use crate::stats::{self, Rng};
use crate::trace::{Breakdown, Tracer};
use crate::{timed_setup, Args, Outcome, SETUP_REPS, SIM_PCTS, WINDOW_S};

/// Bytes of a long and of a short message.
const LONG: usize = 256;
const SHORT: usize = 8;
/// Short messages per round (each round also sends one long message).
const SHORTS_PER_ROUND: usize = 4;

/// The set-up's warm-up message: the same every run.
const WARM: &[u8] = b"warm-up!";

/// Round `r`'s messages: one long, then the short ones.
fn round_messages(seed: u64, r: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed, 0x100 + r as u64);
    let mut msg = |n: usize| (0..n).map(|_| rng.next() as u8).collect::<Vec<u8>>();
    let mut out = vec![msg(LONG)];
    out.extend((0..SHORTS_PER_ROUND).map(|_| msg(SHORT)));
    out
}

fn scenario(seed: u64) -> Scenario {
    let opts = ScenarioOptions {
        seed: 1 + Rng::new(seed, 2).below(1 << 32),
        ..ScenarioOptions::default()
    };
    Scenario::new(CpuConfig::kaby_lake_i7_7700(), &opts)
}

/// Set-up: the scenario plus one warm-up transmission.
fn setup(seed: u64) -> Scenario {
    let mut sc = scenario(seed);
    std::hint::black_box(TetCovertChannel::default().transmit(&mut sc, WARM));
    sc
}

/// Exact work of `transmit` calls.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Sent {
    bytes: u64,
    sim_cycles: u64,
    allocs: Allocs,
}

/// Exact work of the side calls into the layers beneath the channel.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Side {
    restores: u64,
    probes: u64,
    live_probes: u64,
}

/// Sends `msg` through `transmit` and checks every byte; returns the
/// exact work and the call's seconds.
fn send(sc: &mut Scenario, msg: &[u8], tr: &mut Tracer, out: &mut Outcome) -> (Sent, f64) {
    let before = alloc::now();
    let t = Instant::now();
    let rep = tr.span("channel.transmit", || {
        TetCovertChannel::default().transmit(sc, msg)
    });
    let secs = t.elapsed().as_secs_f64();
    let allocs = alloc::now().since(before);
    out.attempted += msg.len() as u64;
    let wrong = wrong_bytes(msg, &rep.received);
    if wrong > 0 {
        out.failed += wrong as u64;
        out.error(format!(
            "{wrong} of {} transmitted bytes decoded wrong",
            msg.len()
        ));
    }
    let sent = Sent {
        bytes: msg.len() as u64,
        sim_cycles: rep.cycles,
        allocs,
    };
    (sent, secs)
}

fn wrong_bytes(sent: &[u8], got: &[u8]) -> usize {
    sent.iter().zip(got).filter(|(a, b)| a != b).count() + sent.len().abs_diff(got.len())
}

/// The side calls: on a copy of the scenario, one warm-up gadget probe
/// and one snapshot, then per byte of `msg` a restore, the sender's
/// write and a batched argmax decode, which must read the byte back.
fn side(sc: &Scenario, msg: &[u8], tr: &mut Tracer, out: &mut Outcome) -> Side {
    let cfg = sc.machine.config().clone();
    let gadget = tr.span("gadget.build", || {
        TetGadget::build(TetGadgetSpec::covert_channel(sc.shared_page(), &cfg))
    });
    let mut rx = tr.span("scenario.clone", || sc.clone());
    tr.span("gadget.probe", || gadget.measure(&mut rx.machine, 0));
    let snap = tr.span("machine.snapshot", || rx.machine.snapshot());
    let decoder = ArgmaxDecoder::new(TetCovertChannel::default().batches, Polarity::MaxWins);
    let mut s = Side::default();
    let mut got = Vec::with_capacity(msg.len());
    for &b in msg {
        tr.span("machine.restore", || rx.machine.restore(&snap));
        tr.span("scenario.sender_write", || rx.sender_write(b));
        let decode = tr.begin("batch.decode");
        let mut memo = ProbeMemo::new(&rx.machine, gadget.match_hint(&rx.machine));
        let m = &mut rx.machine;
        let value = decoder
            .decode(|test, _| {
                s.probes += 1;
                memo.probe(m, test as u64, |m| {
                    s.live_probes += 1;
                    tr.span("gadget.probe", || gadget.measure(m, test as u64))
                })
            })
            .value;
        tr.end(decode);
        got.push(value);
    }
    s.restores = rx.machine.stats().snapshot_restores;
    let wrong = wrong_bytes(msg, &got);
    if wrong > 0 {
        out.error(format!(
            "side decode: {wrong} of {} bytes read back wrong",
            msg.len()
        ));
    }
    s
}

/// The side calls' message in round `r`: its first short message.
fn side_message(msgs: &[Vec<u8>]) -> &[u8] {
    &msgs[1]
}

fn exact(sent: &[Sent], side: &Side) -> Vec<(&'static str, u64)> {
    let s = |f: fn(&Sent) -> u64| sent.iter().map(f).sum::<u64>();
    vec![
        ("channel.bytes", s(|x| x.bytes)),
        ("channel.sim_cycles", s(|x| x.sim_cycles)),
        ("machine.restores", side.restores),
        ("batch.probes", side.probes),
        ("batch.live_probes", side.live_probes),
        ("alloc.count", s(|x| x.allocs.count)),
        ("alloc.bytes", s(|x| x.allocs.bytes)),
    ]
}

pub fn run(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (mut sc, setup_times) = timed_setup(SETUP_REPS, || setup(a.seed));
    let freq_ghz = sc.machine.config().freq_ghz;
    let mut off = Tracer::off();

    if !a.trace {
        // The exact set: round 0, sent and side-called (untraced).
        let msgs = round_messages(a.seed, 0);
        alloc::set_counting(true);
        let sent: Vec<Sent> = msgs
            .iter()
            .map(|m| send(&mut sc, m, &mut off, &mut out).0)
            .collect();
        alloc::set_counting(false);
        let side = side(&sc, side_message(&msgs), &mut off, &mut out);
        out.exact = exact(&sent, &side);

        let (mut long, mut per_round) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        let mut r = 1;
        while t0.elapsed().as_secs_f64() < a.seconds {
            let round_start = Instant::now();
            let mut bytes = 0;
            for m in round_messages(a.seed, r) {
                let t = Instant::now();
                send(&mut sc, &m, &mut off, &mut out);
                if m.len() == LONG {
                    long.push(((t - t0).as_secs_f64(), t.elapsed().as_secs_f64()));
                }
                bytes += m.len();
            }
            per_round.push((
                (round_start - t0).as_secs_f64(),
                bytes as f64,
                round_start.elapsed().as_secs_f64(),
            ));
            r += 1;
        }
        out.throughput("bytes_per_s", &per_round);
        out.latency(SIM_PCTS, WINDOW_S, "one 256-byte transmit", &long);
        out.setup_time(setup_times, || setup(a.seed));
        return out;
    }

    // Untraced pass through `transmit`, then the same rounds traced with
    // the side calls after each round. Allocations are counted in both.
    alloc::set_counting(true);
    let mut rounds = Vec::new();
    let mut untraced = Vec::new();
    let t0 = Instant::now();
    while rounds.is_empty() || t0.elapsed().as_secs_f64() < a.seconds / 2.0 {
        let msgs = round_messages(a.seed, rounds.len());
        untraced.push(
            msgs.iter()
                .map(|m| send(&mut sc, m, &mut off, &mut out).0)
                .collect::<Vec<Sent>>(),
        );
        rounds.push(msgs);
    }
    let untraced_s = t0.elapsed().as_secs_f64();

    let mut tr = Tracer::new(true, Instant::now());
    let (mut traced, mut sides, mut long_byte_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut side_s = 0.0;
    let t0 = Instant::now();
    let pass = tr.begin("bench.pass");
    for msgs in &rounds {
        let mut sent = Vec::with_capacity(msgs.len());
        for m in msgs {
            let (s, secs) = send(&mut sc, m, &mut tr, &mut out);
            if m.len() == LONG {
                long_byte_us.push(secs * 1e6 / LONG as f64);
            }
            sent.push(s);
        }
        traced.push(sent);
        let t = Instant::now();
        sides.push(side(&sc, side_message(msgs), &mut tr, &mut out));
        side_s += t.elapsed().as_secs_f64();
    }
    tr.end(pass);
    let traced_s = t0.elapsed().as_secs_f64();
    alloc::set_counting(false);
    // One scenario build, as the set-up does it, for `scenario.new_us`.
    let pass = tr.begin("bench.pass");
    tr.span("scenario.new", || drop(scenario(a.seed)));
    tr.end(pass);

    out.same_counts(
        "cc_transmit traced pass",
        &exact(&untraced.concat(), &Side::default()),
        &exact(&traced.concat(), &Side::default()),
    );
    out.exact = exact(&traced[0], &sides[0]);
    let ex = |name: &str| {
        out.exact
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v) as f64
    };
    let all = traced.concat();
    let cycles: u64 = all.iter().map(|s| s.sim_cycles).sum();
    let bytes: u64 = all.iter().map(|s| s.bytes).sum();
    let (probes, live): (u64, u64) = sides
        .iter()
        .fold((0, 0), |(p, l), s| (p + s.probes, l + s.live_probes));
    let us = |name: &str| stats::median(&mut tr.durations(name)) / 1e3;
    let layer = BTreeMap::from([
        ("scenario.new_us", us("scenario.new")),
        ("machine.snapshot_us", us("machine.snapshot")),
        ("machine.restore_us", us("machine.restore")),
        ("gadget.probe_us", us("gadget.probe")),
        ("channel.byte_us", stats::median(&mut long_byte_us)),
        ("machine.restores", ex("machine.restores")),
        ("batch.probes", ex("batch.probes")),
        ("batch.live_probes", ex("batch.live_probes")),
        ("batch.live_share", live as f64 / probes.max(1) as f64),
        ("channel.sim_cycles", ex("channel.sim_cycles")),
        (
            "channel.sim_bytes_per_s",
            bytes as f64 / (cycles as f64 / (freq_ghz * 1e9)),
        ),
        ("alloc.per_byte", ex("alloc.count") / ex("channel.bytes")),
        (
            "alloc.bytes_per_byte",
            ex("alloc.bytes") / ex("channel.bytes"),
        ),
    ]);
    out.layer.extend(layer);
    out.breakdown(
        &Breakdown::of(&[&tr]),
        tr.spans.len(),
        untraced_s,
        traced_s,
        side_s,
    );
    let path = crate::out_dir().join(format!("spans-cc_transmit-{}.json", a.seed));
    if let Err(e) = crate::trace::write_chrome(&path, &[&tr]) {
        out.error(format!("write {}: {e}", path.display()));
    }
    out
}
