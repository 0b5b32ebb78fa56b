//! Golden regression for every TET attack loop on one preset and seed.
//!
//! The attacks share their decode loops: the memoized 0..=255 byte
//! sweep, the 512-slot KASLR sweep, the byte-string leak and the vote
//! majority. This test pins what each attack returns — value, votes and
//! cycles of every leaked byte, the full `KaslrBreak` of all three
//! KASLR probes, the covert channel's bytes and cycles at one and four
//! threads — plus every attacked machine's lifetime `stats()`, so any
//! change to a loop's probe, replay or jitter-draw order shows up as a
//! changed number.
//!
//! Regenerate with `TET_REGEN_GOLDEN=1 cargo test --test attack_loops`
//! (only legitimate after an *intentional* model change).

use std::fmt::Write as _;
use std::path::Path;

use tet_uarch::CpuConfig;
use whisper::attacks::{
    LeakedByte, SmtZombieload, TetKaslr, TetMeltdown, TetSpectreRsb, TetZombieload,
};
use whisper::baseline::{EntryBleedProbe, FlushReloadMeltdown, PrefetchKaslr};
use whisper::channel::TetCovertChannel;
use whisper::scenario::{Scenario, ScenarioOptions};

// Relative to the whisper crate manifest (this test is wired into that
// crate; see `crates/whisper/Cargo.toml`).
const GOLDEN_PATH: &str = "../../tests/golden/attack_loops_kaby_lake_i7_7700.txt";
const SEED: u64 = 7;

fn scenario(kpti: bool) -> Scenario {
    Scenario::new(
        CpuConfig::kaby_lake_i7_7700(),
        &ScenarioOptions {
            seed: SEED,
            kpti,
            ..ScenarioOptions::default()
        },
    )
}

/// `value cycles votes`, the votes as `candidate:count` for every
/// candidate that got one.
fn byte(out: &mut String, name: &str, b: &LeakedByte) {
    let votes: Vec<String> = b
        .votes
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v > 0)
        .map(|(i, v)| format!("{i}:{v}"))
        .collect();
    writeln!(
        out,
        "{name} value={} cycles={} votes=[{}]",
        b.value,
        b.cycles,
        votes.join(" ")
    )
    .unwrap();
}

fn stats(out: &mut String, name: &str, sc: &Scenario) {
    writeln!(out, "{name} stats {:?}", sc.machine.stats()).unwrap();
}

fn render() -> String {
    let mut out = String::new();

    let mut sc = scenario(false);
    let md = TetMeltdown::default();
    byte(
        &mut out,
        "meltdown.leak_byte",
        &md.leak_byte(&mut sc.machine, sc.kernel_secret_va),
    );
    for confidence in [2, 3] {
        let b = md.leak_byte_adaptive(&mut sc.machine, sc.kernel_secret_va + 1, confidence);
        byte(
            &mut out,
            &format!("meltdown.leak_byte_adaptive({confidence})"),
            &b,
        );
    }
    let r = md.leak(&mut sc.machine, sc.kernel_secret_va, 3);
    writeln!(out, "meltdown.leak {r:?}").unwrap();
    stats(&mut out, "meltdown", &sc);

    let mut sc = scenario(false);
    sc.set_victim_byte(3, 0x5c);
    let zbl = TetZombieload::default();
    byte(
        &mut out,
        "zombieload.sample_byte",
        &zbl.sample_byte(&mut sc, 3),
    );
    let r = zbl.sample(&mut sc, 2);
    writeln!(out, "zombieload.sample {r:?}").unwrap();
    stats(&mut out, "zombieload", &sc);

    let mut sc = scenario(false);
    let rsb = TetSpectreRsb::default();
    byte(
        &mut out,
        "rsb.leak_byte",
        &rsb.leak_byte(&mut sc.machine, sc.user_secret_va),
    );
    let r = rsb.leak(&mut sc.machine, sc.user_secret_va, 2);
    writeln!(out, "rsb.leak {r:?}").unwrap();
    stats(&mut out, "rsb", &sc);

    let mut sc = scenario(false);
    FlushReloadMeltdown::prepare(&mut sc.machine);
    let r = FlushReloadMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, 2);
    writeln!(out, "flush_reload.leak {r:?}").unwrap();
    stats(&mut out, "flush_reload", &sc);

    let smt = SmtZombieload {
        sweeps: 3,
        ..SmtZombieload::default()
    };
    let b = smt.sample_byte(&CpuConfig::kaby_lake_i7_7700(), SEED, b'Q', 0);
    byte(&mut out, "smt_zombieload.sample_byte", &b);

    let mut sc = scenario(false);
    let cc = TetCovertChannel::default();
    sc.sender_write(0xa5);
    let (value, cycles) = cc.receive_byte(&mut sc);
    writeln!(out, "cc.receive_byte value={value} cycles={cycles}").unwrap();
    let r = cc.transmit_with_redundancy(&mut sc, b"ok", 3);
    writeln!(out, "cc.transmit_with_redundancy {r:?}").unwrap();
    stats(&mut out, "cc", &sc);
    let payload = b"TET-CC!";
    for threads in [1, 4] {
        let r = cc.transmit_chunked(&sc, payload, threads);
        writeln!(out, "cc.transmit_chunked({threads}) {r:?}").unwrap();
    }
    stats(&mut out, "cc after transmit_chunked", &sc);

    let mut sc = scenario(false);
    let r = TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
    writeln!(out, "kaslr.tet {r:?}").unwrap();
    let three = TetKaslr {
        samples_per_slot: 3,
        ..TetKaslr::default()
    };
    let r = three.break_kaslr(&mut sc.machine, &sc.kernel);
    writeln!(out, "kaslr.tet(3 samples) {r:?}").unwrap();
    stats(&mut out, "kaslr.tet", &sc);

    let mut sc = scenario(false);
    let r = PrefetchKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
    writeln!(out, "kaslr.prefetch {r:?}").unwrap();
    stats(&mut out, "kaslr.prefetch", &sc);

    let mut sc = scenario(true);
    let r = EntryBleedProbe::default().break_kaslr(&mut sc.machine, &sc.kernel);
    writeln!(out, "kaslr.entrybleed {r:?}").unwrap();
    stats(&mut out, "kaslr.entrybleed", &sc);

    out
}

#[test]
fn attack_loops_match_golden() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    let got = render();
    if std::env::var_os("TET_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, w, "line {} deviates from the golden attack loops", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        golden.lines().count(),
        "golden line count"
    );
}
