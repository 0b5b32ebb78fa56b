//! Differential test of the simulator's fast paths on the headline
//! experiment: every Table 2 cell, run once under
//! [`SimOptions::default`] (fast-forward, trial batching, delta restore)
//! and once under [`SimOptions::reference`] (all three off), must reach
//! the same verdict with the same simulated work.
//!
//! "Same work" is every [`CellStats`] field — runs, simulated cycles,
//! snapshot restores and the PMU totals — except the two fast-forward
//! diagnostics, which count the skipping itself and so are zero on the
//! reference path by definition.

use tet_metrics::ProfHandle;
use tet_uarch::{CpuConfig, SimOptions};
use whisper::eval::{run_table2_cell_opts, AttackStatus, CellStats, TABLE2_ATTACKS};
use whisper::scenario::ScenarioOptions;

const SEED: u64 = 42;

/// All 25 cells at [`SEED`] under `sim`, in preset-major order.
fn matrix(sim: SimOptions) -> Vec<(AttackStatus, CellStats)> {
    let presets = CpuConfig::table2_presets();
    let n = TABLE2_ATTACKS.len();
    let opts = ScenarioOptions {
        seed: SEED,
        sim,
        ..ScenarioOptions::default()
    };
    tet_par::run_indexed(tet_par::default_threads(), presets.len() * n, |i| {
        run_table2_cell_opts(&presets[i / n], &opts, i % n, &ProfHandle::disabled())
    })
}

#[test]
fn table2_cells_identical_under_default_and_reference_options() {
    let fast = matrix(SimOptions::default());
    let reference = matrix(SimOptions::reference());
    let presets = CpuConfig::table2_presets();
    let n = TABLE2_ATTACKS.len();
    let mut ff_skipped = 0;
    for (i, ((fast_status, fast_stats), (ref_status, ref_stats))) in
        fast.iter().zip(&reference).enumerate()
    {
        let cell = format!("{} / {}", presets[i / n].name, TABLE2_ATTACKS[i % n]);
        assert_eq!(fast_status, ref_status, "{cell}: verdict");
        assert_eq!(
            (ref_stats.ff_skipped_cycles, ref_stats.ff_sprints),
            (0, 0),
            "{cell}: the reference path must not fast-forward"
        );
        let fast_work = CellStats {
            ff_skipped_cycles: 0,
            ff_sprints: 0,
            ..*fast_stats
        };
        assert_eq!(fast_work, *ref_stats, "{cell}: simulated work");
        ff_skipped += fast_stats.ff_skipped_cycles;
    }
    assert!(
        ff_skipped > 0,
        "fast-forward never engaged on the default path"
    );
}
