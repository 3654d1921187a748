//! Shared helpers for the workspace integration tests.
//!
//! The centrepiece is [`random_program`]: a generator of small, always-
//! terminating programs with data-dependent hammocks, nested loops, calls,
//! and memory traffic. Integration tests run these through the full
//! speculative pipeline and require bit-identical architectural results
//! against the in-order reference emulator — a differential test that has
//! historically caught every speculation-recovery bug in the simulator.

use multipath_isa::regs::*;
use multipath_isa::IntReg;
use multipath_workload::{Assembler, DataBuilder, Program, SplitMix64};

/// Base address of the scratch data segment used by generated programs.
pub const SCRATCH_BASE: u64 = 0x10_0000;
/// Number of u64 slots in the scratch array.
pub const SCRATCH_SLOTS: usize = 256;

/// Generates a small random program that always halts.
///
/// Structure: an outer loop of `outer` iterations; each iteration runs a
/// random straight-line body sprinkled with data-dependent hammocks, a
/// call to one of two tiny leaf functions, and masked loads/stores into a
/// scratch array. Register `r9` accumulates a checksum which is stored to
/// the last scratch slot before `halt`.
pub fn random_program(seed: u64, body_blocks: usize, outer: i16) -> Program {
    let mut rng = SplitMix64::new(seed);
    let mut data = DataBuilder::new(SCRATCH_BASE);
    data.u64_array("scratch", (0..SCRATCH_SLOTS).map(|_| rng.next_u64() >> 8));
    let scratch = data.address_of("scratch") as i32;

    // Scratch registers the generator draws from (avoids r16/r17/r30/r26
    // which hold bases, the stack, and return addresses).
    const TEMPS: [IntReg; 6] = [R4, R5, R6, R7, R8, R12];

    let mut a = Assembler::new();
    a.li(R16, scratch);
    a.li(R30, 0x7f_0000);
    a.li(R9, 0);
    a.li(R2, 0);
    a.br("main");

    // Two leaf functions with internal branches.
    a.label("leaf_a");
    a.andi(R13, R9, 3);
    a.beq(R13, "leaf_a_zero");
    a.muli(R13, R13, 7);
    a.add(R9, R9, R13);
    a.ret();
    a.label("leaf_a_zero");
    a.addi(R9, R9, 11);
    a.ret();

    a.label("leaf_b");
    a.srli(R13, R9, 2);
    a.xor(R9, R9, R13);
    a.ret();

    a.label("main");
    a.li(R3, i32::from(outer));
    a.label("outer");

    for block in 0..body_blocks {
        let t = |i: usize| TEMPS[i % TEMPS.len()];
        // A masked load feeding a hammock.
        let base = t(rng.next_below(6) as usize);
        a.andi(base, R2, (SCRATCH_SLOTS - 1) as i16);
        a.slli(base, base, 3);
        a.add(base, R16, base);
        let v = t(rng.next_below(6) as usize);
        a.ldq(v, 0, base);
        // Random arithmetic on the loaded value.
        for _ in 0..rng.next_below(4) {
            let d = t(rng.next_below(6) as usize);
            let s = t(rng.next_below(6) as usize);
            match rng.next_below(6) {
                0 => a.add(d, d, s),
                1 => a.sub(d, s, d),
                2 => a.xor(d, d, s),
                3 => a.slli(d, s, (rng.next_below(5) + 1) as i16),
                4 => a.srli(d, s, (rng.next_below(5) + 1) as i16),
                _ => a.andi(d, s, 0x7ff),
            }
        }
        // Data-dependent hammock (taken probability set by a mask).
        let bit = 1 << rng.next_below(4);
        let then_label = format!("b{block}_then");
        let join_label = format!("b{block}_join");
        a.andi(R14, v, bit as i16);
        a.beq(R14, &then_label);
        a.add(R9, R9, v);
        match rng.next_below(3) {
            0 => a.jsr("leaf_a"),
            1 => a.jsr("leaf_b"),
            _ => a.xori(R9, R9, 0x35),
        }
        a.br(&join_label);
        a.label(&then_label);
        a.sub(R9, R9, v);
        a.addi(R9, R9, 3);
        a.label(&join_label);
        // Occasionally spill the checksum.
        if rng.chance(0.5) {
            a.andi(R14, R2, (SCRATCH_SLOTS - 2) as i16);
            a.slli(R14, R14, 3);
            a.add(R14, R16, R14);
            a.stq(R9, 0, R14);
        }
        a.addi(R2, R2, 1);
    }

    a.subi(R3, R3, 1);
    a.bne(R3, "outer");
    a.stq(R9, ((SCRATCH_SLOTS - 1) * 8) as i16, R16);
    a.halt();

    Program {
        name: format!("random-{seed}"),
        text_base: 0x1_0000,
        text: a.assemble(0x1_0000).expect("generated program assembles"),
        data: vec![data.build()],
        entry: 0x1_0000,
        initial_sp: 0x7f_0000,
    }
}

/// FNV-1a 64 digest of a committed-instruction log, order-sensitive.
///
/// Each committed `(pc, destination value)` pair feeds the hash: the pc,
/// then a presence tag, then the value. The golden-trace suite stores one
/// digest per kernel/configuration; any change to what commits, in what
/// order, or with what result moves the digest.
pub fn commit_digest(log: &[(u64, Option<u64>)]) -> u64 {
    let mut bytes = Vec::with_capacity(log.len() * 24);
    for &(pc, value) in log {
        bytes.extend(pc.to_le_bytes());
        match value {
            Some(v) => {
                bytes.extend(1u64.to_le_bytes());
                bytes.extend(v.to_le_bytes());
            }
            None => bytes.extend(0u64.to_le_bytes()),
        }
    }
    multipath_core::config::fnv1a(&bytes)
}

/// Reads the final scratch segment (including the checksum slot).
pub fn scratch_dump(memory: &multipath_mem::Memory) -> Vec<u64> {
    (0..SCRATCH_SLOTS as u64)
        .map(|i| memory.read_u64(SCRATCH_BASE + i * 8))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_digest_is_order_and_value_sensitive() {
        let log_a = vec![(0x1000u64, Some(1u64)), (0x1004, None)];
        let log_b = vec![(0x1004u64, None), (0x1000, Some(1u64))];
        let log_c = vec![(0x1000u64, Some(2u64)), (0x1004, None)];
        assert_ne!(commit_digest(&log_a), commit_digest(&log_b));
        assert_ne!(commit_digest(&log_a), commit_digest(&log_c));
        assert_eq!(commit_digest(&log_a), commit_digest(&log_a.clone()));
    }

    #[test]
    fn commit_digest_distinguishes_none_from_zero() {
        let none = vec![(0x1000u64, None)];
        let zero = vec![(0x1000u64, Some(0u64))];
        assert_ne!(commit_digest(&none), commit_digest(&zero));
    }

    #[test]
    fn generated_programs_assemble_and_halt_on_reference() {
        for seed in 0..8 {
            let p = random_program(seed, 4, 6);
            let mut emu = multipath_core::emulator::Emulator::new(&p);
            let mut steps = 0u64;
            while !emu.halted() {
                emu.step();
                steps += 1;
                assert!(steps < 200_000, "seed {seed}: runaway program");
            }
        }
    }
}
