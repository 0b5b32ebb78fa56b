//! §4.4 — the SMT covert channel: the trojan signals bits with suppressed
//! page faults; the spy times a nop loop on the sibling thread.
//!
//! Paper: the careful prototype reaches 1 B/s below 5 % error on the
//! i7-7700, and the SecSMT-style aggressive settings reach 268 KB/s at
//! 28 % error. The shape to reproduce: the fast mode is orders of
//! magnitude faster *and* much noisier.
//!
//! Run: `cargo run -p whisper-bench --bin sec44_smt [bits]`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tet_uarch::CpuConfig;
use whisper::smt::SmtTetChannel;
use whisper_bench::{parse_or_exit, section, write_report, RunReport, Table};

fn main() {
    let nbits: usize = std::env::args()
        .nth(1)
        .map_or(64, |v| parse_or_exit("bits", &v));
    let mut rng = StdRng::seed_from_u64(2024);
    let bits: Vec<u8> = (0..nbits).map(|_| rng.gen_range(0..=1)).collect();
    let cfg = CpuConfig::kaby_lake_i7_7700();

    section("SMT covert channel (i7-7700, trojan page faults vs spy nop loop)");
    let mut table = Table::new(&[
        "mode",
        "spy iters/bit",
        "faults/bit",
        "bits",
        "throughput",
        "error",
        "paper",
    ]);

    let proto = SmtTetChannel::prototype();
    let rp = proto.transmit(&cfg, 7, &bits);
    println!(
        "prototype: {} bits, {:.1} bit/s, {:.1}% error",
        bits.len(),
        rp.bits_per_sec,
        rp.bit_error_rate * 100.0
    );
    table.row_owned(vec![
        "prototype".into(),
        proto.spy_iters.to_string(),
        proto.faults_per_bit.to_string(),
        bits.len().to_string(),
        format!("{:.1} bit/s", rp.bits_per_sec),
        format!("{:.1} %", rp.bit_error_rate * 100.0),
        "1 B/s, <5 % err".into(),
    ]);

    let fast = SmtTetChannel::fast();
    let rf = fast.transmit(&cfg, 7, &bits);
    println!(
        "fast (SecSMT-style): {} bits, {:.1} bit/s, {:.1}% error",
        bits.len(),
        rf.bits_per_sec,
        rf.bit_error_rate * 100.0
    );
    table.row_owned(vec![
        "fast (SecSMT-style)".into(),
        fast.spy_iters.to_string(),
        fast.faults_per_bit.to_string(),
        bits.len().to_string(),
        format!("{:.1} bit/s", rf.bits_per_sec),
        format!("{:.1} %", rf.bit_error_rate * 100.0),
        "268 KB/s, 28 % err".into(),
    ]);
    print!("{}", table.render());

    assert!(
        rp.bit_error_rate <= 0.05,
        "prototype must stay below 5% error"
    );
    assert!(
        rf.bits_per_sec > rp.bits_per_sec,
        "the aggressive mode must be faster"
    );
    assert!(
        rf.bit_error_rate >= rp.bit_error_rate,
        "the aggressive mode trades accuracy for speed"
    );
    println!("\nreproduced: speed/accuracy trade-off matches the paper's two operating points");

    whisper_bench::section("Cross-thread TET-Zombieload over the same SMT pair (§4.3.2 topology)");
    {
        use whisper::attacks::SmtZombieload;
        let secret = 0xb7u8;
        let leak = SmtZombieload::default().sample_byte(&cfg, 77, secret, 0);
        println!(
            "  victim (thread 0) byte {:#04x} -> attacker (thread 1) sampled {:#04x}",
            secret, leak.value
        );
        assert_eq!(leak.value, secret, "the fill buffers leak across threads");
        println!("  reproduced: only the shared LFB connects the threads, and it is enough");
    }

    let mut rep = RunReport::new("sec44_smt");
    rep.set_meta("cpu", "kaby_lake_i7_7700");
    rep.set_meta("section", "4.4");
    rep.counter("bits", bits.len() as u64);
    rep.scalar("prototype.bits_per_sec", rp.bits_per_sec);
    rep.scalar("prototype.bit_error_rate", rp.bit_error_rate);
    rep.scalar("fast.bits_per_sec", rf.bits_per_sec);
    rep.scalar("fast.bit_error_rate", rf.bit_error_rate);
    write_report(&rep);
}
