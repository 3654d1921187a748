//! The register mapping table with one region per hardware context.
//!
//! Figure 1 of the paper: an 8-context SMT/TME processor has a mapping
//! table of 8 regions, each translating that context's logical registers
//! to physical registers. TME duplicates register state between contexts
//! by copying one region to another over the Mapping Synchronization Bus;
//! [`MapTable::copy_region`] models that.

use crate::ids::{CtxId, PhysReg};
use multipath_isa::{Reg, NUM_LOGICAL_REGS};

/// The full mapping table.
#[derive(Debug, Clone)]
pub struct MapTable {
    regions: Vec<[Option<PhysReg>; NUM_LOGICAL_REGS]>,
}

impl MapTable {
    /// Creates a table with `contexts` empty regions.
    pub fn new(contexts: usize) -> MapTable {
        MapTable {
            regions: vec![[None; NUM_LOGICAL_REGS]; contexts],
        }
    }

    /// The current mapping of `reg` in `ctx`'s region.
    ///
    /// # Panics
    ///
    /// Panics if the region was never initialised for this register — the
    /// simulator seeds every logical register at program start, so a miss
    /// is a renaming bug.
    pub fn get(&self, ctx: CtxId, reg: Reg) -> PhysReg {
        self.regions[ctx.index()][reg.index()].unwrap_or_else(|| panic!("unmapped {reg} in {ctx}"))
    }

    /// Overwrites the mapping of `reg` in `ctx`'s region, returning the
    /// displaced mapping (the "old mapping" recorded in the active list).
    pub fn set(&mut self, ctx: CtxId, reg: Reg, to: PhysReg) -> Option<PhysReg> {
        self.regions[ctx.index()][reg.index()].replace(to)
    }

    /// Copies `from`'s entire region over `to`'s (the MSB synchronisation
    /// used when spawning or re-synchronising a spare context).
    pub fn copy_region(&mut self, from: CtxId, to: CtxId) {
        let src = self.regions[from.index()];
        self.regions[to.index()] = src;
    }

    /// Iterates the physical registers a region maps, in logical-register
    /// order (reference accounting when regions are seeded or copied).
    pub fn pregs(&self, ctx: CtxId) -> impl Iterator<Item = PhysReg> + '_ {
        self.regions[ctx.index()].iter().flatten().copied()
    }

    /// Number of regions (contexts).
    pub fn contexts(&self) -> usize {
        self.regions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipath_isa::IntReg;

    fn preg(i: u16) -> PhysReg {
        PhysReg {
            fp: false,
            index: i,
        }
    }

    #[test]
    fn set_returns_displaced() {
        let mut m = MapTable::new(2);
        let r = Reg::Int(IntReg::R5);
        assert_eq!(m.set(CtxId(0), r, preg(1)), None);
        assert_eq!(m.set(CtxId(0), r, preg(2)), Some(preg(1)));
        assert_eq!(m.get(CtxId(0), r), preg(2));
    }

    #[test]
    fn regions_are_independent() {
        let mut m = MapTable::new(2);
        let r = Reg::Int(IntReg::R5);
        m.set(CtxId(0), r, preg(1));
        m.set(CtxId(1), r, preg(2));
        assert_eq!(m.get(CtxId(0), r), preg(1));
        assert_eq!(m.get(CtxId(1), r), preg(2));
    }

    #[test]
    fn copy_region_duplicates_state() {
        let mut m = MapTable::new(2);
        let r5 = Reg::Int(IntReg::R5);
        let r6 = Reg::Int(IntReg::R6);
        m.set(CtxId(0), r5, preg(1));
        m.set(CtxId(0), r6, preg(2));
        m.copy_region(CtxId(0), CtxId(1));
        assert_eq!(m.get(CtxId(1), r5), preg(1));
        assert_eq!(m.get(CtxId(1), r6), preg(2));
        // Subsequent divergence does not leak back.
        m.set(CtxId(1), r5, preg(9));
        assert_eq!(m.get(CtxId(0), r5), preg(1));
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn unseeded_lookup_panics() {
        MapTable::new(1).get(CtxId(0), Reg::Int(IntReg::R0));
    }

    #[test]
    fn region_iterator_lists_mappings() {
        let mut m = MapTable::new(1);
        m.set(CtxId(0), Reg::Int(IntReg::R7), preg(4));
        m.set(CtxId(0), Reg::Int(IntReg::R1), preg(9));
        let all: Vec<_> = m.pregs(CtxId(0)).collect();
        assert_eq!(all, vec![preg(9), preg(4)]);
    }
}
