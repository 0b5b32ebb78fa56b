//! TET-KASLR (§4.5): breaking kernel ASLR by mapping detection.
//!
//! A faulting user access to a *mapped* kernel address completes its page
//! walk (and on Intel installs a TLB entry), while an *unmapped* address
//! fails the walk and is retried — measurably extending ToTE. The
//! attacker flushes the TLB, probes every candidate slot with the
//! Listing 2 gadget, and the first mapped slot marks the kernel base.
//!
//! * Under **KPTI** the only surviving user-table mapping is the entry
//!   trampoline at the fixed `+0xe00000` offset, so the probe sweep finds
//!   the trampoline slot and subtracts the offset (the paper locates it
//!   among the 512 candidates "within 1 s").
//! * Under **FLARE** the dummy mappings fool presence probes that merely
//!   complete walks (the prefetch baseline), but their reserved-bit
//!   leaves are *retried like unmapped pages* on the faulting-load path,
//!   so the TET probe still isolates the real image.

use tet_os::layout::{slot_base, KPTI_TRAMPOLINE_OFFSET, SLOT_SIZE};
use tet_os::Kernel;
use tet_uarch::Machine;

use crate::analysis::slot_sweep;
use crate::gadget::{TetGadget, TetGadgetSpec};

/// The outcome of a KASLR break attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct KaslrBreak {
    /// The base the attack recovered, if the probe sweep found a mapped
    /// slot.
    pub found_base: Option<u64>,
    /// Whether `found_base` equals the true randomized base.
    pub success: bool,
    /// Total probes performed.
    pub probes: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Seconds at the model's frequency.
    pub seconds: f64,
    /// Mean ToTE per slot (diagnostics / plotting).
    pub slot_totes: Vec<u64>,
}

/// The TET-KASLR attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TetKaslr {
    /// ToTE samples per candidate slot.
    pub samples_per_slot: u32,
    /// Whether the attacker assumes KPTI and probes for the trampoline
    /// (subtracting the fixed offset from the hit).
    pub assume_kpti: bool,
    /// Minimum mapped/unmapped gap (cycles) to accept a detection; below
    /// this the sweep is considered featureless (the Zen 3 case).
    pub min_gap: u64,
}

impl Default for TetKaslr {
    fn default() -> Self {
        TetKaslr {
            samples_per_slot: 1,
            assume_kpti: false,
            min_gap: 12,
        }
    }
}

impl KaslrBreak {
    /// The outcome of a [`slot_sweep`]: `found_base` is the attack's
    /// classification, `kernel` the ground truth for `success`.
    pub(crate) fn new(
        found_base: Option<u64>,
        kernel: &Kernel,
        (slot_totes, probes, cycles): (Vec<u64>, u64, u64),
        freq_ghz: f64,
    ) -> KaslrBreak {
        KaslrBreak {
            found_base,
            success: found_base == Some(kernel.base),
            probes,
            cycles,
            seconds: cycles as f64 / (freq_ghz * 1e9),
            slot_totes,
        }
    }
}

impl TetKaslr {
    /// Probes all 512 candidate slots and recovers the kernel base.
    ///
    /// `kernel` supplies the ground truth for the `success` field only;
    /// the probe sequence never reads it.
    pub fn break_kaslr(&self, machine: &mut Machine, kernel: &Kernel) -> KaslrBreak {
        // Warm the probe gadget's code path once (slot 0) so per-slot
        // measurements are not skewed by cold frontend structures.
        let warm = TetGadget::build(TetGadgetSpec::kaslr_probe(slot_base(0)));
        warm.measure(machine, 0);

        let sweep = slot_sweep(machine, self.samples_per_slot, |m, slot| {
            TetGadget::build(TetGadgetSpec::kaslr_probe(slot_base(slot))).measure_detailed(m, 0)
        });
        let found_base = self.classify(&sweep.0);
        KaslrBreak::new(found_base, kernel, sweep, machine.config().freq_ghz)
    }

    /// Classifies the sweep: mapped slots are the cluster measurably
    /// *below the median* (most of the 512 slots are unmapped, so the
    /// median sits on the unmapped level and is robust against
    /// interference outliers); the first mapped slot (minus the
    /// trampoline offset under KPTI) is the base.
    fn classify(&self, slot_totes: &[u64]) -> Option<u64> {
        let mut sorted: Vec<u64> = slot_totes.iter().copied().filter(|&t| t > 0).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let threshold = median.saturating_sub(self.min_gap);
        if sorted[0] >= threshold {
            return None; // featureless sweep (the AMD outcome)
        }
        let first_mapped = slot_totes.iter().position(|&t| t > 0 && t < threshold)? as u64;
        let hit = slot_base(first_mapped);
        if self.assume_kpti {
            let offset_slots = KPTI_TRAMPOLINE_OFFSET / SLOT_SIZE;
            if first_mapped < offset_slots {
                return None;
            }
            Some(hit - KPTI_TRAMPOLINE_OFFSET)
        } else {
            Some(hit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioOptions};
    use tet_uarch::CpuConfig;

    #[test]
    fn breaks_plain_kaslr_on_comet_lake() {
        let mut sc = Scenario::new(
            CpuConfig::comet_lake_i9_10980xe(),
            &ScenarioOptions {
                seed: 7,
                ..ScenarioOptions::default()
            },
        );
        let result = TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
        assert_eq!(result.found_base, Some(sc.kernel.base));
        assert!(result.success);
        assert_eq!(result.probes, 512);
    }

    #[test]
    fn breaks_kaslr_under_kpti() {
        let mut sc = Scenario::new(
            CpuConfig::comet_lake_i9_10980xe(),
            &ScenarioOptions {
                seed: 21,
                kpti: true,
                ..ScenarioOptions::default()
            },
        );
        let attack = TetKaslr {
            assume_kpti: true,
            ..TetKaslr::default()
        };
        let result = attack.break_kaslr(&mut sc.machine, &sc.kernel);
        assert!(result.success, "KPTI trampoline must betray the base");
    }

    #[test]
    fn breaks_kaslr_under_flare() {
        let mut sc = Scenario::new(
            CpuConfig::comet_lake_i9_10980xe(),
            &ScenarioOptions {
                seed: 33,
                flare: true,
                ..ScenarioOptions::default()
            },
        );
        let result = TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
        assert!(result.success, "FLARE dummies must not fool the TET probe");
    }

    #[test]
    fn fails_on_zen3() {
        let mut sc = Scenario::new(
            CpuConfig::zen3_ryzen5_5600g(),
            &ScenarioOptions {
                seed: 7,
                ..ScenarioOptions::default()
            },
        );
        let result = TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
        assert!(
            !result.success,
            "Zen 3's early fault abort must hide the mapping state \
             (found {:?}, true base {:#x})",
            result.found_base, sc.kernel.base
        );
    }

    #[test]
    fn succeeds_across_seeds() {
        for seed in [1, 99, 512, 77777] {
            let mut sc = Scenario::new(
                CpuConfig::skylake_i7_6700(),
                &ScenarioOptions {
                    seed,
                    ..ScenarioOptions::default()
                },
            );
            let result = TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
            assert!(result.success, "seed {seed} must break");
        }
    }
}
