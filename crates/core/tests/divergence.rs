//! Lock-step architectural validation: the committed instruction stream of
//! every configuration must exactly match the reference emulator.

use multipath_core::{Features, ProgId, SimConfig, Simulator};
use multipath_workload::{kernels, Benchmark};

fn lockstep(bench: Benchmark, features: Features, commits: u64) {
    let mut sim = Simulator::new(
        SimConfig::big_2_16().with_features(features),
        vec![kernels::build(bench, 1)],
    );
    sim.attach_reference(ProgId(0));
    let stats = sim.run(commits, commits * 50);
    assert!(
        stats.committed >= commits,
        "{bench}/{}: starved ({} committed in {} cycles)",
        features.label(),
        stats.committed,
        stats.cycles
    );
}

#[test]
fn lockstep_all_kernels_full_architecture() {
    for bench in Benchmark::ALL {
        lockstep(bench, Features::rec_rs_ru(), 4_000);
    }
}

#[test]
fn lockstep_all_features_on_branchy_kernels() {
    for features in Features::all_six() {
        lockstep(Benchmark::Go, features, 4_000);
        lockstep(Benchmark::Vortex, features, 4_000);
    }
}

#[test]
fn lockstep_rec_without_respawn() {
    lockstep(Benchmark::Compress, Features::rec(), 6_000);
    lockstep(Benchmark::Li, Features::rec_ru(), 6_000);
}

/// A program that stores a new instruction word over one of its own text
/// words and, after a delay loop long enough for the store to commit,
/// executes that word: `addi r1, r1, 1` becomes `addi r1, r1, 100`.
fn self_modifying_program() -> multipath_workload::Program {
    use multipath_isa::regs::*;
    use multipath_isa::{Inst, IntReg, Opcode};
    use multipath_workload::asm::Assembler;

    const BASE: u64 = 0x1_0000;
    let patched = Inst::rri(Opcode::Addi, R1, R1, 100).encode();
    let build = |patch_disp: i16| {
        let mut a = Assembler::new();
        a.li(R2, patched as i32);
        a.li(R3, BASE as i32);
        a.stl(R2, patch_disp, R3);
        a.li(R4, 300);
        a.label("delay");
        a.subi(R4, R4, 1);
        a.bne(R4, "delay");
        a.mov(R1, IntReg::ZERO);
        a.label("patch");
        a.addi(R1, R1, 1);
        a.addi(R5, R1, 0);
        a.halt();
        a
    };
    // The displacement does not change any instruction count, so the
    // first assembly locates the patched word for the second.
    let disp = (build(0).address_of("patch", BASE) - BASE) as i16;
    multipath_workload::Program {
        name: "self-modifying".to_owned(),
        text_base: BASE,
        text: build(disp).assemble(BASE).expect("assembles"),
        data: Vec::new(),
        entry: BASE,
        initial_sp: 0x7f_0000,
    }
}

/// Fetch sees a committed store into the text. Only machines without
/// recycling are checked: a recycled trace replays the instructions it
/// decoded before the store, so under REC the patched word can come back
/// stale (ROADMAP lists this).
#[test]
fn stores_into_the_text_are_fetched_after_they_commit() {
    let program = self_modifying_program();
    let patch_pc = program.text_base + 4 * (program.text.len() as u64 - 3);
    for features in [Features::smt(), Features::tme()] {
        let mut sim = Simulator::new(
            SimConfig::big_2_16().with_features(features),
            vec![program.clone()],
        );
        sim.attach_reference(ProgId(0));
        sim.enable_commit_log();
        sim.run(u64::MAX, 100_000);
        let label = features.label();
        assert!(sim.program_finished(ProgId(0)), "{label}: did not finish");
        let log = sim.commit_log().expect("enabled");
        let patched = log.iter().find(|&&(pc, _)| pc == patch_pc);
        assert_eq!(patched, Some(&(patch_pc, Some(100))), "{label}");
    }
}
