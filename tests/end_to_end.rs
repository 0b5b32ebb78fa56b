//! Cross-crate end-to-end scenarios: complete attack chains through the
//! whole stack (ISA → pipeline → memory → OS model → attack → analysis).

use tet_os::ContainerEnv;
use tet_uarch::CpuConfig;
use whisper::attacks::{TetKaslr, TetMeltdown, TetSpectreRsb, TetZombieload};
use whisper::baseline::{CacheAttackDetector, FlushReloadMeltdown, PrefetchKaslr};
use whisper::channel::TetCovertChannel;
use whisper::scenario::{Scenario, ScenarioOptions};
use whisper::smt::SmtTetChannel;

#[test]
fn meltdown_leaks_a_full_message_under_noise() {
    let mut sc = Scenario::new(
        CpuConfig::kaby_lake_i7_7700(),
        &ScenarioOptions {
            kernel_secret: b"WHISPER!".to_vec(),
            interrupt_period: 9973,
            ..ScenarioOptions::default()
        },
    );
    let report = TetMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, 8);
    assert_eq!(report.recovered, b"WHISPER!");
    assert!(report.bytes_per_sec > 0.0);
    assert!(report.seconds > 0.0);
}

#[test]
fn covert_channel_roundtrips_binary_data() {
    let sc = Scenario::new(CpuConfig::skylake_i7_6700(), &ScenarioOptions::default());
    let payload: Vec<u8> = (0..24).map(|i| (i * 37 + 11) as u8).collect();
    let report = TetCovertChannel::new(2).transmit(&sc, &payload);
    assert_eq!(report.received, payload);
    assert_eq!(report.error_rate, 0.0);
}

#[test]
fn zombieload_follows_the_victim_across_values() {
    let mut sc = Scenario::new(CpuConfig::skylake_i7_6700(), &ScenarioOptions::default());
    for (i, b) in [0x00u8, 0x7f, 0xff, 0x42].iter().enumerate() {
        sc.set_victim_byte(i as u64, *b);
    }
    let report = TetZombieload::default().sample(&mut sc, 4);
    assert_eq!(report.recovered, vec![0x00, 0x7f, 0xff, 0x42]);
}

#[test]
fn rsb_leaks_without_raising_any_fault() {
    let mut sc = Scenario::new(
        CpuConfig::raptor_lake_i9_13900k(),
        &ScenarioOptions {
            user_secret: b"spectre".to_vec(),
            ..ScenarioOptions::default()
        },
    );
    let before = sc.machine.cpu().pmu.snapshot();
    let report = TetSpectreRsb::default().leak(&mut sc.machine, sc.user_secret_va, 7);
    let delta = sc.machine.cpu().pmu.snapshot().delta(&before);
    assert_eq!(report.recovered, b"spectre");
    // No machine clears: the RSB attack never faults (pure mispredicts).
    assert_eq!(delta.count(tet_pmu::Event::MachineClearsCount), 0);
    assert!(delta.count(tet_pmu::Event::ClflushExecuted) > 0);
}

#[test]
fn kaslr_chain_kpti_flare_docker() {
    // The §4.5 gauntlet in one chain: KPTI + FLARE + Docker, and the
    // prefetch baseline failing where TET succeeds.
    let opts = ScenarioOptions {
        seed: 90210,
        kpti: true,
        flare: true,
        container: ContainerEnv::docker_24(),
        ..ScenarioOptions::default()
    };
    assert!(opts.container.supports_tet_probe());

    let mut sc = Scenario::new(CpuConfig::comet_lake_i9_10980xe(), &opts);
    let tet = TetKaslr {
        assume_kpti: true,
        ..TetKaslr::default()
    };
    let result = tet.break_kaslr(&mut sc.machine, &sc.kernel);
    assert!(
        result.success,
        "KPTI+FLARE+Docker must still fall to TET (found {:?}, true {:#x})",
        result.found_base, sc.kernel.base
    );

    let mut sc = Scenario::new(CpuConfig::comet_lake_i9_10980xe(), &opts);
    let baseline = PrefetchKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
    assert!(
        !baseline.success,
        "the prefetch baseline must fail under FLARE"
    );
}

#[test]
fn detector_splits_baseline_from_tet_in_one_session() {
    let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
    FlushReloadMeltdown::prepare(&mut sc.machine);
    let detector = CacheAttackDetector::default();
    let secret = sc.kernel_secret_va;

    // Interleave both attacks; the detector must flag each FR window and
    // clear each TET window.
    for _ in 0..3 {
        let before = sc.machine.cpu().pmu.snapshot();
        let fr = FlushReloadMeltdown::default().leak_byte(&mut sc.machine, secret);
        let fr_delta = sc.machine.cpu().pmu.snapshot().delta(&before);
        assert_eq!(fr.value, b'W');
        assert!(detector.inspect(&fr_delta).flagged);

        let before = sc.machine.cpu().pmu.snapshot();
        let tet = TetMeltdown::default().leak_byte(&mut sc.machine, secret);
        let tet_delta = sc.machine.cpu().pmu.snapshot().delta(&before);
        assert_eq!(tet.value, b'W');
        assert!(!detector.inspect(&tet_delta).flagged);
    }
}

#[test]
fn smt_channel_transfers_a_byte_pattern() {
    let bits: Vec<u8> = (0..16).map(|i| (i / 2) % 2).collect();
    let report = SmtTetChannel::prototype().transmit(&CpuConfig::kaby_lake_i7_7700(), 12, &bits);
    assert_eq!(report.received, bits);
    assert!(report.bits_per_sec > 0.0);
}

#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let mut sc = Scenario::new(
            CpuConfig::kaby_lake_i7_7700(),
            &ScenarioOptions {
                seed: 555,
                interrupt_period: 7919,
                ..ScenarioOptions::default()
            },
        );
        let md = TetMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, 4);
        (md.recovered, md.cycles)
    };
    assert_eq!(run(), run());
}

#[test]
fn kpti_blocks_meltdown_but_not_the_kaslr_probe() {
    // With KPTI the kernel secret is simply unmapped in user tables:
    // TET-MD cannot leak it (the paper's §6.2 "KPTI is efficient
    // mitigation" for TET-MD), while TET-KASLR still works.
    let mut sc = Scenario::new(
        CpuConfig::skylake_i7_6700(),
        &ScenarioOptions {
            kpti: true,
            seed: 31337,
            ..ScenarioOptions::default()
        },
    );
    let md = TetMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, 4);
    assert!(
        !md.succeeded(b"WHIS"),
        "KPTI must stop TET-MD, got {:?}",
        md.recovered
    );
    let kaslr = TetKaslr {
        assume_kpti: true,
        ..TetKaslr::default()
    };
    let r = kaslr.break_kaslr(&mut sc.machine, &sc.kernel);
    assert!(r.success, "KASLR still falls under KPTI");
}
