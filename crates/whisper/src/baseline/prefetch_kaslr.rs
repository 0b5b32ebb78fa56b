//! KASLR probing baselines: the classic prefetch (walk-depth) probe that
//! FLARE defeats, and the EntryBleed syscall+prefetch probe.

use tet_os::layout::{slot_base, KPTI_TRAMPOLINE_OFFSET, SLOT_SIZE};
use tet_os::Kernel;
use tet_uarch::Machine;

use crate::analysis::slot_sweep;
use crate::attacks::KaslrBreak;
use crate::gadget::PrefetchProbe;

/// The classic prefetch-timing KASLR probe (Hund et al.-style): a
/// software prefetch of a mapped kernel address completes a deeper page
/// walk than an unmapped one, so walk timing exposes the layout. FLARE's
/// dummy mappings give every candidate a full-depth walk, flattening the
/// signal — this baseline is the one the FLARE defense targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchKaslr {
    /// Minimum timing gap to accept a detection.
    pub min_gap: u64,
}

impl Default for PrefetchKaslr {
    fn default() -> Self {
        PrefetchKaslr { min_gap: 8 }
    }
}

impl PrefetchKaslr {
    /// Sweeps all slots with prefetch probes.
    pub fn break_kaslr(&self, machine: &mut Machine, kernel: &Kernel) -> KaslrBreak {
        // Warm the probe's code path so slot 0 is not a cold-frontend
        // outlier.
        PrefetchProbe::build(slot_base(0), false).measure(machine);
        let sweep = slot_sweep(machine, 1, |m, slot| {
            PrefetchProbe::build(slot_base(slot), false).measure_detailed(m)
        });
        // Mapped slots complete the deepest walks: the *high* cluster.
        let found_base = classify_extreme(&sweep.0, self.min_gap, true);
        KaslrBreak::new(found_base, kernel, sweep, machine.config().freq_ghz)
    }
}

/// EntryBleed (2023): a `syscall` enters the kernel through the KPTI
/// trampoline and leaves its TLB entries warm; a prefetch of the correct
/// trampoline candidate then hits the TLB and is distinctly fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryBleedProbe {
    /// Minimum timing gap to accept a detection.
    pub min_gap: u64,
}

impl Default for EntryBleedProbe {
    fn default() -> Self {
        EntryBleedProbe { min_gap: 8 }
    }
}

impl EntryBleedProbe {
    /// Sweeps all trampoline candidates with syscall+prefetch probes.
    pub fn break_kaslr(&self, machine: &mut Machine, kernel: &Kernel) -> KaslrBreak {
        PrefetchProbe::build(slot_base(0), true).measure(machine);
        let sweep = slot_sweep(machine, 1, |m, slot| {
            PrefetchProbe::build(slot_base(slot), true).measure_detailed(m)
        });
        // The trampoline hit is the *low* (TLB-warm) outlier; the base is
        // the fixed offset below it.
        let found = classify_extreme(&sweep.0, self.min_gap, false);
        let found_base = found.and_then(|hit| {
            let offset_slots = KPTI_TRAMPOLINE_OFFSET / SLOT_SIZE;
            let slot = (hit - slot_base(0)) / SLOT_SIZE;
            (slot >= offset_slots).then(|| hit - KPTI_TRAMPOLINE_OFFSET)
        });
        KaslrBreak::new(found_base, kernel, sweep, machine.config().freq_ghz)
    }
}

/// Finds the first slot in the extreme cluster (`high_wins` selects the
/// high-ToTE cluster) and returns its base address, or `None` when the
/// sweep is featureless.
fn classify_extreme(slot_totes: &[u64], min_gap: u64, high_wins: bool) -> Option<u64> {
    let min = *slot_totes.iter().min()?;
    let max = *slot_totes.iter().max()?;
    if max - min < min_gap {
        return None;
    }
    let threshold = min + (max - min) / 2;
    let idx = slot_totes.iter().position(|&t| {
        if high_wins {
            t > threshold
        } else {
            t < threshold
        }
    })? as u64;
    Some(slot_base(idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioOptions};
    use tet_uarch::CpuConfig;

    #[test]
    fn prefetch_probe_breaks_plain_kaslr() {
        let mut sc = Scenario::new(
            CpuConfig::comet_lake_i9_10980xe(),
            &ScenarioOptions {
                seed: 5,
                ..ScenarioOptions::default()
            },
        );
        let r = PrefetchKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
        assert!(
            r.success,
            "found {:?}, true {:#x}",
            r.found_base, sc.kernel.base
        );
    }

    #[test]
    fn flare_defeats_the_prefetch_probe_but_not_tet() {
        let mk = || {
            Scenario::new(
                CpuConfig::comet_lake_i9_10980xe(),
                &ScenarioOptions {
                    seed: 5,
                    flare: true,
                    ..ScenarioOptions::default()
                },
            )
        };
        let mut sc = mk();
        let pre = PrefetchKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
        assert!(!pre.success, "FLARE must flatten the prefetch signal");

        let mut sc = mk();
        let tet = crate::attacks::TetKaslr::default().break_kaslr(&mut sc.machine, &sc.kernel);
        assert!(tet.success, "TET must still isolate the real image");
    }

    #[test]
    fn entrybleed_breaks_kaslr_under_kpti() {
        let mut sc = Scenario::new(
            CpuConfig::comet_lake_i9_10980xe(),
            &ScenarioOptions {
                seed: 9,
                kpti: true,
                ..ScenarioOptions::default()
            },
        );
        let r = EntryBleedProbe::default().break_kaslr(&mut sc.machine, &sc.kernel);
        assert!(
            r.success,
            "found {:?}, true {:#x}",
            r.found_base, sc.kernel.base
        );
    }
}
