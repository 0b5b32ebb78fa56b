//! Watch the transient execution happen, µop by µop.
//!
//! Runs the TET-Meltdown gadget with a structured trace sink attached and
//! folds the recorded µop lifecycle events into a pipeline chart: which
//! µops retired (architectural), which executed transiently and were
//! squashed — and how the triggered Jcc's misprediction reshapes the
//! window.
//!
//! It also exports the full event stream (µop slices, faults, resteers,
//! cache/TLB activity) as Chrome trace JSON — load
//! `target/reports/trace_transient.{not_triggered,triggered}.chrome.json`
//! in <https://ui.perfetto.dev> to scrub through the transient window.
//!
//! Run: `cargo run -p whisper --example trace_transient`

use std::collections::HashMap;
use std::sync::Arc;

use tet_isa::{Inst, Program, Reg};
use tet_obs::{ChromeTrace, EventKind, MemorySink, SinkHandle, SquashCause, TraceEvent};
use tet_uarch::{CpuConfig, RunConfig};
use whisper::gadget::{TetGadget, TetGadgetSpec, TransientBegin};
use whisper::scenario::{Scenario, ScenarioOptions};

/// One row of the chart: a renamed µop and what became of it.
struct Row {
    id: u64,
    inst: Inst,
    renamed_at: u64,
    started_at: Option<u64>,
    done_at: Option<u64>,
    /// Retire or squash cycle and cause (`None` = retired); unset while
    /// the µop is still in flight.
    end: Option<(u64, Option<SquashCause>)>,
}

/// Folds a run's µop lifecycle events into one row per renamed µop, in
/// rename order.
fn rows(program: &Program, events: &[TraceEvent]) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    let mut index = HashMap::new();
    for ev in events {
        match ev.kind {
            EventKind::UopRenamed { id, pc, .. } => {
                let Some(inst) = program.fetch(pc as usize) else {
                    continue;
                };
                index.insert(id, rows.len());
                rows.push(Row {
                    id,
                    inst,
                    renamed_at: ev.cycle,
                    started_at: None,
                    done_at: None,
                    end: None,
                });
            }
            EventKind::UopExecuted {
                id,
                started_at,
                done_at,
            } => {
                if let Some(&i) = index.get(&id) {
                    rows[i].started_at = Some(started_at);
                    rows[i].done_at = Some(done_at);
                }
            }
            EventKind::UopRetired { id } => {
                if let Some(&i) = index.get(&id) {
                    rows[i].end.get_or_insert((ev.cycle, None));
                }
            }
            EventKind::UopSquashed { id, cause } => {
                if let Some(&i) = index.get(&id) {
                    rows[i].end.get_or_insert((ev.cycle, Some(cause)));
                }
            }
            _ => {}
        }
    }
    rows
}

fn render(rows: &[Row], total_cycles: u64) {
    let width = 100usize;
    let scale = |c: u64| -> usize { (c as usize * (width - 1)) / total_cycles.max(1) as usize };
    println!(
        "{:<4} {:<26} {:<10} timeline (. renamed, = executing, R retired, x squashed)",
        "id", "inst", "fate"
    );
    for t in rows {
        let mut line = vec![b' '; width];
        let start = scale(t.renamed_at);
        let exec = t.started_at.map(scale);
        let done = t.done_at.map(scale);
        let (end, endch, fate) = match t.end {
            Some((at, None)) => (scale(at), b'R', "retired"),
            Some((at, Some(cause))) => (
                scale(at),
                b'x',
                match cause {
                    SquashCause::BranchMispredict => "SQ:branch",
                    SquashCause::Fault => "SQ:fault",
                    SquashCause::TxnAbort => "SQ:abort",
                },
            ),
            None => (width - 1, b'?', "in-flight"),
        };
        for c in line.iter_mut().take(end + 1).skip(start) {
            *c = b'.';
        }
        if let (Some(e), Some(d)) = (exec, done) {
            for c in line.iter_mut().take(d.min(end) + 1).skip(e) {
                *c = b'=';
            }
        }
        line[end] = endch;
        println!(
            "{:<4} {:<26} {:<10} {}",
            t.id,
            format!("{}", t.inst),
            fate,
            String::from_utf8_lossy(&line)
        );
    }
}

fn main() {
    let cfg = CpuConfig::kaby_lake_i7_7700();
    let mut sc = Scenario::new(
        cfg.clone(),
        &ScenarioOptions {
            kernel_secret: b"S".to_vec(),
            ..ScenarioOptions::default()
        },
    );
    let gadget = TetGadget::build(TetGadgetSpec {
        begin: TransientBegin::SignalHandler,
        ..TetGadgetSpec::meltdown(sc.kernel_secret_va, &cfg)
    });
    for _ in 0..4 {
        gadget.measure(&mut sc.machine, 0); // steady state
    }

    for (label, slug, test) in [
        ("NOT TRIGGERED (test != secret)", "not_triggered", 0u64),
        ("TRIGGERED (test == 'S')", "triggered", b'S' as u64),
    ] {
        let recorder = Arc::new(MemorySink::new());
        let r = sc.machine.run(
            &gadget.program,
            &RunConfig {
                handler_pc: Some(gadget.handler_pc),
                init_regs: vec![(Reg::Rbx, test)],
                sink: SinkHandle::attached(recorder.clone()),
                ..RunConfig::default()
            },
        );
        println!("\n=== {label}: ToTE = {} cycles ===", r.regs.get(Reg::Rax));
        let events = recorder.drain();
        render(&rows(&gadget.program, &events), r.cycles);

        let name = format!("trace_transient ({slug})");
        let json = ChromeTrace::new(&name, events).to_json();
        let dir = std::env::var("TET_REPORT_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|_| std::path::PathBuf::from("target/reports"));
        std::fs::create_dir_all(&dir).expect("report dir");
        let path = dir.join(format!("trace_transient.{slug}.chrome.json"));
        std::fs::write(&path, json).expect("write chrome trace");
        println!(
            "chrome trace: {} (load in https://ui.perfetto.dev)",
            path.display()
        );
    }
    println!(
        "\nthe triggered run shows the in-window Jcc squashing its own shadow\n\
         (SQ:branch) before the faulting load's squash (SQ:fault) — and the\n\
         retirement of the measurement tail sliding right: that slide IS the\n\
         Whisper channel."
    );
}
