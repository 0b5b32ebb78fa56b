//! The `--baseline` regression gate with per-metric diagnostics.
//!
//! `bench_core --baseline PATH` compares the freshly measured report
//! against a previously committed one and fails past a tolerance floor.
//! This module is the comparison itself, factored out of the binary so
//! the verdicts are unit-testable against doctored baseline files and so
//! every failing metric prints *what* regressed — baseline value,
//! current value, relative change, and the tolerance it broke — instead
//! of a bare exit code.

use tet_obs::RunReport;

/// Which way a metric is supposed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-shaped: regressions are *drops* (cycles/sec, speedup).
    HigherIsBetter,
    /// Latency-shaped: regressions are *rises* (ns/trial, seconds).
    LowerIsBetter,
}

/// One gated metric: a key, its direction, and the minimum fraction of
/// baseline performance that still passes (0.7 = "fail below 70%").
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Metric key (`sim_cycles_per_sec` or a scalar/counter key).
    pub key: &'static str,
    /// Which way the metric is supposed to move.
    pub direction: Direction,
    /// Minimum acceptable `performance_ratio` (see [`GateOutcome`]).
    pub min_ratio: f64,
}

/// The gates `bench_core --baseline` applies: the historical 70% floor
/// on simulation throughput, per-trial cost, and the decode sweep's
/// wall-clock and per-retired-µop cost (the two axes of the sweep:
/// total time, and time normalized by simulated work so template
/// caching or batching wins don't mask per-µop regressions).
pub fn bench_core_gates() -> Vec<Gate> {
    vec![
        Gate {
            key: "sim_cycles_per_sec",
            direction: Direction::HigherIsBetter,
            min_ratio: 0.7,
        },
        Gate {
            key: "table2.ns_per_trial",
            direction: Direction::LowerIsBetter,
            min_ratio: 0.7,
        },
        Gate {
            key: "decode_sweep.ns_per_iter",
            direction: Direction::LowerIsBetter,
            min_ratio: 0.7,
        },
        Gate {
            key: "decode_sweep.ns_per_uop",
            direction: Direction::LowerIsBetter,
            min_ratio: 0.7,
        },
        Gate {
            key: "snapshot_fork.ns_per_trial",
            direction: Direction::LowerIsBetter,
            min_ratio: 0.7,
        },
        // The restore leg on its own: delta restore makes it a small
        // slice of a trial, so a restore-path regression could hide
        // inside `ns_per_trial` noise without this gate.
        Gate {
            key: "snapshot_fork.restore_ns",
            direction: Direction::LowerIsBetter,
            min_ratio: 0.7,
        },
        Gate {
            key: "snapshot_fork.simulate_ns",
            direction: Direction::LowerIsBetter,
            min_ratio: 0.7,
        },
    ]
}

/// One gate's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance.
    Pass,
    /// Past the tolerance floor.
    Regressed,
    /// The metric was missing (or non-positive) on either side.
    Skipped,
}

/// A gate evaluated against one (baseline, current) report pair.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Metric key.
    pub key: String,
    /// Baseline value, if present.
    pub baseline: Option<f64>,
    /// Current value, if present.
    pub current: Option<f64>,
    /// Current performance as a fraction of baseline performance
    /// (>= 1 means at least as good, direction-normalized).
    pub performance_ratio: Option<f64>,
    /// The gate's floor on `performance_ratio`.
    pub min_ratio: f64,
    /// Pass / regressed / skipped.
    pub verdict: Verdict,
}

/// Looks a gate metric up in a report: the dedicated
/// `sim_cycles_per_sec` field, then scalars, then counters.
pub fn metric(rep: &RunReport, key: &str) -> Option<f64> {
    if key == "sim_cycles_per_sec" {
        return rep.sim_cycles_per_sec;
    }
    rep.scalars
        .get(key)
        .copied()
        .or_else(|| rep.counters.get(key).map(|&v| v as f64))
}

/// Evaluates one gate.
pub fn evaluate(gate: &Gate, base: &RunReport, current: &RunReport) -> GateOutcome {
    let b = metric(base, gate.key);
    let c = metric(current, gate.key);
    let (performance_ratio, verdict) = match (b, c) {
        (Some(old), Some(new)) if old > 0.0 && new > 0.0 => {
            let ratio = match gate.direction {
                Direction::HigherIsBetter => new / old,
                Direction::LowerIsBetter => old / new,
            };
            let verdict = if ratio >= gate.min_ratio {
                Verdict::Pass
            } else {
                Verdict::Regressed
            };
            (Some(ratio), verdict)
        }
        _ => (None, Verdict::Skipped),
    };
    GateOutcome {
        key: gate.key.to_string(),
        baseline: b,
        current: c,
        performance_ratio,
        min_ratio: gate.min_ratio,
        verdict,
    }
}

/// Evaluates every gate.
pub fn run_gates(gates: &[Gate], base: &RunReport, current: &RunReport) -> Vec<GateOutcome> {
    gates.iter().map(|g| evaluate(g, base, current)).collect()
}

/// Whether any gate regressed.
pub fn any_regressed(outcomes: &[GateOutcome]) -> bool {
    outcomes.iter().any(|o| o.verdict == Verdict::Regressed)
}

impl GateOutcome {
    /// One diagnostic line: baseline vs current, relative change, and
    /// the tolerance — explicit enough that a CI log alone says what
    /// regressed and by how much.
    pub fn render(&self) -> String {
        match (self.baseline, self.current, self.performance_ratio) {
            (Some(old), Some(new), Some(ratio)) => {
                let delta_pct = (new / old - 1.0) * 100.0;
                let status = match self.verdict {
                    Verdict::Pass => "pass".to_string(),
                    Verdict::Regressed => format!(
                        "REGRESSION ({:.0}% of baseline performance, floor {:.0}%)",
                        ratio * 100.0,
                        self.min_ratio * 100.0
                    ),
                    Verdict::Skipped => "skipped".to_string(),
                };
                format!(
                    "  {}: baseline {old:.6}, current {new:.6} ({delta_pct:+.1}%, tolerance {:.0}%) — {status}",
                    self.key,
                    self.min_ratio * 100.0
                )
            }
            _ => format!(
                "  {}: skipped (baseline={:?} current={:?})",
                self.key, self.baseline, self.current
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rate: Option<f64>, ns_per_trial: Option<f64>) -> RunReport {
        let mut r = RunReport::new("bench_core");
        r.sim_cycles_per_sec = rate;
        if let Some(ns) = ns_per_trial {
            r.scalar("table2.ns_per_trial", ns);
            // The decode-sweep and snapshot-fork gates scale with the
            // same latency figure so one knob drives all LowerIsBetter
            // gates in tests.
            r.scalar("decode_sweep.ns_per_iter", ns * 100.0);
            r.scalar("decode_sweep.ns_per_uop", ns / 10.0);
            r.scalar("snapshot_fork.ns_per_trial", ns * 50.0);
            r.scalar("snapshot_fork.restore_ns", ns * 5.0);
            r.scalar("snapshot_fork.simulate_ns", ns * 45.0);
        }
        r
    }

    #[test]
    fn doctored_baseline_file_names_the_failing_metric() {
        // Doctor a baseline claiming 10x our throughput and 1/10 our
        // trial cost, round-trip it through disk like `--baseline` does,
        // and check both gates fail with explicit diagnostics.
        let doctored = report(Some(1e9), Some(50.0));
        let dir = std::env::temp_dir().join(format!("tet_baseline_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_doctored.json");
        std::fs::write(&path, doctored.to_json()).unwrap();
        let base = RunReport::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        let current = report(Some(1e8), Some(500.0));
        let outcomes = run_gates(&bench_core_gates(), &base, &current);
        assert!(any_regressed(&outcomes));
        for o in &outcomes {
            assert_eq!(o.verdict, Verdict::Regressed, "{}", o.key);
            let line = o.render();
            assert!(line.contains(&o.key), "{line}");
            assert!(line.contains("REGRESSION"), "{line}");
            assert!(line.contains("baseline"), "{line}");
            assert!(line.contains("tolerance"), "{line}");
        }
        // The throughput line carries both values and the floor.
        let line = outcomes[0].render();
        assert!(line.contains("1000000000"), "{line}");
        assert!(line.contains("100000000"), "{line}");
        assert!(line.contains("floor 70%"), "{line}");
    }

    /// Every `snapshot_fork.*_ns` leg `bench_core` writes is gated here
    /// in the direction `bench_trend` gives it. The one exception is
    /// `snapshot_fork.warmup_ns`, which `trend::direction_for` leaves
    /// undirected on purpose (warm-up is paid once per campaign).
    #[test]
    fn every_snapshot_fork_leg_bench_core_writes_is_gated() {
        let gates = bench_core_gates();
        let keys: Vec<&str> = include_str!("bin/bench_core.rs")
            .split('"')
            .filter(|k| k.starts_with("snapshot_fork.") && k.ends_with("_ns"))
            .collect();
        assert!(keys.len() >= 3, "bench_core legs not found: {keys:?}");
        for key in keys {
            match crate::trend::direction_for(key) {
                Some(direction) => {
                    let gate = gates
                        .iter()
                        .find(|g| g.key == key)
                        .unwrap_or_else(|| panic!("{key} is written but not gated"));
                    assert_eq!(gate.direction, direction, "{key}");
                    assert_eq!(gate.min_ratio, 0.7, "{key}");
                }
                None => assert_eq!(key, "snapshot_fork.warmup_ns", "{key} is undirected"),
            }
        }
    }

    #[test]
    fn within_tolerance_passes_both_directions() {
        let base = report(Some(1e8), Some(100.0));
        // 20% slower on both axes: inside the 70% floor.
        let current = report(Some(8e7), Some(125.0));
        let outcomes = run_gates(&bench_core_gates(), &base, &current);
        assert!(!any_regressed(&outcomes));
        assert!(outcomes.iter().all(|o| o.verdict == Verdict::Pass));
    }

    #[test]
    fn exact_floor_boundary_passes() {
        let base = report(Some(1e8), None);
        let current = report(Some(7e7), None);
        let o = evaluate(&bench_core_gates()[0], &base, &current);
        assert_eq!(o.verdict, Verdict::Pass, "ratio == floor passes");
    }

    #[test]
    fn missing_metrics_skip_instead_of_failing() {
        let base = report(None, Some(100.0));
        let current = report(Some(1e8), None);
        let outcomes = run_gates(&bench_core_gates(), &base, &current);
        assert!(outcomes.iter().all(|o| o.verdict == Verdict::Skipped));
        assert!(!any_regressed(&outcomes));
        assert!(outcomes[0].render().contains("skipped"));
    }
}
