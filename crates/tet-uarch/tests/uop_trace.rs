//! Tests of the per-µop lifecycle as the event stream records it: retired
//! vs squashed fates, and the visibility of transient execution.

use std::collections::HashMap;
use std::sync::Arc;

use tet_isa::{Asm, Cond, Inst, Program, Reg};
use tet_obs::{EventKind, MemorySink, SinkHandle, SquashCause};
use tet_uarch::{CpuConfig, Machine, RunConfig, RunExit, RunResult};

/// One µop's lifecycle, folded from its events.
#[derive(Debug, Default)]
struct Life {
    pc: usize,
    renamed_at: u64,
    started_at: Option<u64>,
    done_at: Option<u64>,
    retired_at: Option<u64>,
    squashed: Option<(u64, SquashCause)>,
}

impl Life {
    /// Executed but never retired: part of a transient execution.
    fn transient(&self) -> bool {
        self.squashed.is_some() && self.started_at.is_some()
    }
}

/// Runs `program` with a recorder attached and folds its µop events into
/// one [`Life`] per renamed µop, in rename order.
fn traced_run(
    m: &mut Machine,
    program: &Program,
    handler: Option<usize>,
) -> (RunResult, Vec<Life>) {
    let rec = Arc::new(MemorySink::new());
    let r = m.run(
        program,
        &RunConfig {
            handler_pc: handler,
            sink: SinkHandle::attached(rec.clone()),
            ..RunConfig::default()
        },
    );
    let mut lives: Vec<Life> = Vec::new();
    let mut index = HashMap::new();
    for ev in rec.drain() {
        match ev.kind {
            EventKind::UopRenamed { id, pc, .. } => {
                index.insert(id, lives.len());
                lives.push(Life {
                    pc: pc as usize,
                    renamed_at: ev.cycle,
                    ..Life::default()
                });
            }
            EventKind::UopExecuted {
                id,
                started_at,
                done_at,
            } => {
                let l = &mut lives[index[&id]];
                l.started_at = Some(started_at);
                l.done_at = Some(done_at);
            }
            EventKind::UopRetired { id } => {
                let l = &mut lives[index[&id]];
                assert!(
                    l.squashed.is_none() && l.retired_at.is_none(),
                    "{l:?} ended twice"
                );
                l.retired_at = Some(ev.cycle);
            }
            EventKind::UopSquashed { id, cause } => {
                let l = &mut lives[index[&id]];
                assert!(
                    l.squashed.is_none() && l.retired_at.is_none(),
                    "{l:?} ended twice"
                );
                l.squashed = Some((ev.cycle, cause));
            }
            _ => {}
        }
    }
    (r, lives)
}

#[test]
fn straight_line_uops_all_retire_in_order() {
    let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 3);
    let mut a = Asm::new();
    a.mov_imm(Reg::Rax, 1).add(Reg::Rax, 2u64).nop().halt();
    let program = a.assemble().expect("assembles");
    let (r, trace) = traced_run(&mut m, &program, None);
    assert_eq!(r.exit, RunExit::Halted);
    assert_eq!(trace.len(), 4);
    let mut last_retire = 0;
    for t in &trace {
        let at = t
            .retired_at
            .unwrap_or_else(|| panic!("{:?} did not retire: {t:?}", program.fetch(t.pc)));
        assert!(at >= last_retire, "in-order retirement");
        last_retire = at;
        assert!(t.started_at.is_some());
        assert!(t.done_at.unwrap() >= t.started_at.unwrap());
        assert!(t.renamed_at <= t.started_at.unwrap());
        assert!(!t.transient());
    }
}

#[test]
fn transient_uops_are_visible_in_the_trace() {
    let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 3);
    m.map_kernel_page(0xffff_ffff_8000_0000);
    let mut a = Asm::new();
    a.load_abs(Reg::Rax, 0xffff_ffff_8000_0000) // faults at retire
        .add(Reg::Rax, 1u64) // transient dependents
        .add(Reg::Rax, 2u64);
    let handler = a.here();
    a.halt();
    let program = a.assemble().expect("assembles");
    // Warm the code path so the shadow µops get fetched in the window.
    traced_run(&mut m, &program, Some(handler));
    let (r, trace) = traced_run(&mut m, &program, Some(handler));
    assert_eq!(r.exit, RunExit::Halted);

    let transient: Vec<_> = trace.iter().filter(|t| t.transient()).collect();
    assert!(
        transient.len() >= 2,
        "the dependent adds must show as transient: {trace:#?}"
    );
    for t in &transient {
        assert!(
            matches!(t.squashed, Some((_, SquashCause::Fault))),
            "fault squash cause: {t:?}"
        );
    }
    // The halt retired architecturally.
    assert!(trace
        .iter()
        .any(|t| t.retired_at.is_some() && matches!(program.fetch(t.pc), Some(Inst::Halt))));
}

#[test]
fn mispredict_squashes_carry_the_branch_reason() {
    let mut m = Machine::new(CpuConfig::kaby_lake_i7_7700(), 3);
    m.map_user_page(0x20_0000);
    let mut a = Asm::new();
    let skip = a.fresh_label();
    // The branch depends on a cold DRAM load, so it resolves long after
    // the wrong path has been fetched and renamed.
    a.load_abs(Reg::Rax, 0x20_0000) // 0 from fresh memory
        .cmp_imm(Reg::Rax, 0)
        .jcc(Cond::E, skip) // taken, predicted not-taken when cold
        .mov_imm(Reg::Rbx, 0xbad) // wrong path
        .mov_imm(Reg::Rcx, 0xbad)
        .bind(skip)
        .halt();
    let program = a.assemble().expect("assembles");
    let (r, trace) = traced_run(&mut m, &program, None);
    assert_eq!(r.exit, RunExit::Halted);
    let squashed: Vec<_> = trace
        .iter()
        .filter(|t| matches!(t.squashed, Some((_, SquashCause::BranchMispredict))))
        .collect();
    assert!(
        !squashed.is_empty(),
        "the wrong path must be traced as mispredict-squashed"
    );
    assert!(squashed.iter().all(|t| matches!(
        program.fetch(t.pc),
        Some(Inst::MovImm { imm: 0xbad, .. } | Inst::Halt)
    )));
}

#[test]
fn tsx_abort_reason_is_recorded() {
    let mut m = Machine::new(CpuConfig::skylake_i7_6700(), 3);
    m.map_kernel_page(0xffff_ffff_8000_0000);
    let mut a = Asm::new();
    let abort = a.fresh_label();
    a.xbegin(abort)
        .load_abs(Reg::Rax, 0xffff_ffff_8000_0000)
        .xend()
        .bind(abort)
        .halt();
    let program = a.assemble().expect("assembles");
    // Warm then trace.
    traced_run(&mut m, &program, None);
    let (r, trace) = traced_run(&mut m, &program, None);
    assert_eq!(r.exit, RunExit::Halted);
    assert!(trace
        .iter()
        .any(|t| matches!(t.squashed, Some((_, SquashCause::TxnAbort)))));
}
