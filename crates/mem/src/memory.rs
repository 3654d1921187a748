//! Sparse paged functional memory.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_SIZE - 1) as u64;

/// Hashes page numbers by one multiplication (Fibonacci hashing): page
/// numbers are small, dense integers chosen by the program, so the keyed
/// SipHash default buys nothing here and costs a lookup per access.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A sparse 64-bit byte-addressable address space.
///
/// Pages are allocated on first touch and zero-initialised, so wrong-path
/// loads to arbitrary addresses are always defined (they read zero) — a
/// requirement for multipath execution, where alternate paths may compute
/// wild addresses before being squashed.
///
/// All multi-byte accesses are little-endian and may straddle page
/// boundaries.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Memory {
        Memory::default()
    }

    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|b| &**b)
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & OFFSET_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & OFFSET_MASK) as usize] = value;
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let off = (addr & OFFSET_MASK) as usize;
        if off + buf.len() <= PAGE_SIZE {
            // Within one page: one lookup, and an untouched page reads
            // zero without being created.
            match self.page(addr) {
                Some(p) => buf.copy_from_slice(&p[off..off + buf.len()]),
                None => buf.fill(0),
            }
            return;
        }
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
    }

    /// Writes `data` starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        if data.is_empty() {
            return; // touches no page
        }
        let off = (addr & OFFSET_MASK) as usize;
        if off + data.len() <= PAGE_SIZE {
            self.page_mut(addr)[off..off + data.len()].copy_from_slice(data);
            return;
        }
        for (i, &b) in data.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }

    /// Reads a little-endian u32.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian u32.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads an IEEE double stored at `addr`.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an IEEE double at `addr`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Number of resident (touched) pages — a footprint proxy for tests.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0xdead_beef_0000), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trip_widths() {
        let mut m = Memory::new();
        m.write_u8(10, 0xab);
        m.write_u32(100, 0xdead_beef);
        m.write_u64(200, 0x0123_4567_89ab_cdef);
        m.write_f64(300, -1.5);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u32(100), 0xdead_beef);
        assert_eq!(m.read_u64(200), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_f64(300), -1.5);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles the page boundary
        m.write_u64(addr, u64::MAX);
        assert_eq!(m.read_u64(addr), u64::MAX);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn overwrite_is_visible() {
        let mut m = Memory::new();
        m.write_u64(64, 1);
        m.write_u64(64, 2);
        assert_eq!(m.read_u64(64), 2);
    }

    #[test]
    fn round_trips_at_every_offset_across_a_page_boundary() {
        let boundary = 1u64 << PAGE_SHIFT;
        for addr in boundary - 9..=boundary + 1 {
            let mut m = Memory::new();
            m.write_u32(addr, 0xdead_beef);
            assert_eq!(m.read_u32(addr), 0xdead_beef, "u32 at {addr:#x}");
            m.write_u64(addr + 16, 0x0123_4567_89ab_cdef);
            assert_eq!(
                m.read_u64(addr + 16),
                0x0123_4567_89ab_cdef,
                "u64 at {:#x}",
                addr + 16
            );
        }
    }

    #[test]
    fn in_page_path_agrees_with_the_byte_path() {
        let boundary = 1u64 << PAGE_SHIFT;
        let mut fast = Memory::new();
        let mut bytewise = Memory::new();
        for (i, addr) in (boundary - 40..boundary + 40).step_by(3).enumerate() {
            let data: Vec<u8> = (0..(i % 9) as u8).map(|b| b ^ addr as u8).collect();
            fast.write_bytes(addr, &data);
            for (k, &b) in data.iter().enumerate() {
                bytewise.write_u8(addr + k as u64, b);
            }
        }
        assert_eq!(fast.resident_pages(), bytewise.resident_pages());
        for addr in boundary - 48..boundary + 48 {
            for len in 0..=8 {
                let mut got = vec![0u8; len];
                fast.read_bytes(addr, &mut got);
                let want: Vec<u8> = (0..len as u64)
                    .map(|k| bytewise.read_u8(addr + k))
                    .collect();
                assert_eq!(got, want, "{len} bytes at {addr:#x}");
            }
        }
    }

    #[test]
    fn reading_an_untouched_page_creates_nothing() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 7);
        let before = m.resident_pages();
        assert_eq!(m.read_u32(0x5_0000), 0);
        assert_eq!(m.read_u64(0x5_0ffc), 0); // straddles two untouched pages
        let mut buf = [1u8; 16];
        m.read_bytes(0x9_0000, &mut buf);
        assert_eq!(buf, [0; 16]);
        m.write_bytes(0xa_0000, &[]);
        assert_eq!(m.resident_pages(), before);
    }

    #[test]
    fn address_wraparound_reads_are_defined() {
        let m = Memory::new();
        let mut buf = [0u8; 8];
        m.read_bytes(u64::MAX - 3, &mut buf);
        assert_eq!(buf, [0; 8]);
    }
}
