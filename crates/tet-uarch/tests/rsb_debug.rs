//! Temporary diagnostic for the RSB timing components.
use std::sync::Arc;

use tet_isa::{Asm, Cond, Program, Reg};
use tet_obs::{EventKind, MemorySink, SinkHandle};
use tet_pmu::Event;
use tet_uarch::{CpuConfig, Machine, RunConfig, RunExit};

fn rsb_gadget(secret_addr: u64, sea: usize) -> Program {
    let build = |done_pc: u64| -> (Asm, usize) {
        let mut a = Asm::new();
        let f = a.fresh_label();
        let matched = a.fresh_label();
        a.rdtsc().mov_reg(Reg::R8, Reg::Rax).lfence().call(f);
        a.load_byte_abs(Reg::Rax, secret_addr)
            .cmp(Reg::Rax, Reg::Rbx)
            .jcc(Cond::E, matched)
            .nops(sea);
        a.bind(f);
        a.mov_imm(Reg::R9, done_pc)
            .store(Reg::R9, Reg::Rsp, 0)
            .clflush(Reg::Rsp, 0)
            .ret();
        let done = a.here();
        a.bind(matched);
        a.lfence().rdtsc().sub(Reg::Rax, Reg::R8).halt();
        (a, done)
    };
    let (_, done_pc) = build(0);
    let (a, _) = build(done_pc as u64);
    a.assemble().unwrap()
}

#[test]
fn dump_components() {
    let mut m = Machine::new(CpuConfig::raptor_lake_i9_13900k(), 23);
    let pa = m.map_user_page(0x50_0000);
    m.phys_mut().write_u8(pa, b'R');
    m.map_user_page(0x60_0000);
    let prog = rsb_gadget(0x50_0000, 48);
    let run = |m: &mut Machine, test: u64| {
        let before = m.cpu().pmu.snapshot();
        let r = m.run(
            &prog,
            &RunConfig {
                init_regs: vec![(Reg::Rbx, test), (Reg::Rsp, 0x60_0800)],
                ..RunConfig::default()
            },
        );
        assert_eq!(r.exit, RunExit::Halted);
        let d = m.cpu().pmu.snapshot().delta(&before);
        (
            r.regs.get(Reg::Rax),
            d.count(Event::BrMispExecAllBranches),
            d.count(Event::IntMiscClearResteerCycles),
            d.count(Event::UopsIssuedAny),
            d.count(Event::BrMispExecIndirect),
        )
    };
    for _ in 0..4 {
        run(&mut m, 1);
    }
    for i in 0..2 {
        let miss = run(&mut m, 1);
        let hit = run(&mut m, b'R' as u64);
        println!(
            "round {i}: miss tote={} misp={} resteer={} issued={} ind={}",
            miss.0, miss.1, miss.2, miss.3, miss.4
        );
        println!(
            "         hit  tote={} misp={} resteer={} issued={} ind={}",
            hit.0, hit.1, hit.2, hit.3, hit.4
        );
    }
}

#[test]
fn sweep_sea() {
    for sea in [0usize, 8, 16, 32, 48, 96] {
        let mut m = Machine::new(CpuConfig::raptor_lake_i9_13900k(), 23);
        let pa = m.map_user_page(0x50_0000);
        m.phys_mut().write_u8(pa, b'R');
        m.map_user_page(0x60_0000);
        let prog = rsb_gadget(0x50_0000, sea);
        let run = |m: &mut Machine, test: u64| {
            let r = m.run(
                &prog,
                &RunConfig {
                    init_regs: vec![(Reg::Rbx, test), (Reg::Rsp, 0x60_0800)],
                    ..RunConfig::default()
                },
            );
            r.regs.get(Reg::Rax)
        };
        for _ in 0..4 {
            run(&mut m, 1);
        }
        let miss = run(&mut m, 1);
        let hit = run(&mut m, b'R' as u64);
        println!(
            "sea={sea:3}: miss={miss} hit={hit} delta={}",
            miss as i64 - hit as i64
        );
    }
}

#[test]
fn trace_windows() {
    let mut m = Machine::new(CpuConfig::raptor_lake_i9_13900k(), 23);
    let pa = m.map_user_page(0x50_0000);
    m.phys_mut().write_u8(pa, b'R');
    m.map_user_page(0x60_0000);
    let prog = rsb_gadget(0x50_0000, 48);
    let run = |m: &mut Machine, test: u64| {
        let rec = Arc::new(MemorySink::new());
        let r = m.run(
            &prog,
            &RunConfig {
                init_regs: vec![(Reg::Rbx, test), (Reg::Rsp, 0x60_0800)],
                sink: SinkHandle::attached(rec.clone()),
                ..RunConfig::default()
            },
        );
        (r.regs.get(Reg::Rax), rec.drain())
    };
    for _ in 0..4 {
        run(&mut m, 1);
    }
    for (label, test) in [("miss", 1u64), ("hit", b'R' as u64)] {
        let (tote, events) = run(&mut m, test);
        let line: String = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::FrontendCycle {
                    dsb_uops,
                    mite_uops,
                    stalled,
                } => Some(if mite_uops > 0 {
                    'M'
                } else if dsb_uops > 0 {
                    'D'
                } else if stalled {
                    '.'
                } else {
                    '_'
                }),
                _ => None,
            })
            .collect();
        println!("{label} tote={tote}\n{line}");
    }
}
