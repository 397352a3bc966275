//! Shared address-space layout for workloads.
//!
//! Applications allocate named regions (arrays); the allocator aligns each
//! region to a coherence-block boundary so that distinct data structures do
//! not falsely share blocks (false sharing *within* an array is real
//! application behaviour and is preserved).

/// A named, block-aligned span of the shared address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    base: u64,
    len: u64,
}

impl Region {
    /// Base byte address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte address at `offset`.
    ///
    /// # Panics
    /// On out-of-bounds offsets (workload bugs should fail fast).
    pub fn addr(&self, offset: u64) -> u64 {
        assert!(offset < self.len, "offset {offset} outside region");
        self.base + offset
    }

    /// Byte address of element `idx` of an array of `elem_bytes`-sized
    /// elements.
    pub fn elem(&self, idx: u64, elem_bytes: u64) -> u64 {
        self.addr(idx * elem_bytes)
    }

    /// True if `addr` falls inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.len
    }
}

/// Bump allocator for the shared segment.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    block_bytes: u64,
    next: u64,
    regions: Vec<(String, Region)>,
}

impl AddressSpace {
    /// Creates an allocator aligning regions to `block_bytes`.
    pub fn new(block_bytes: u64) -> Self {
        assert!(block_bytes.is_power_of_two(), "block size must be 2^k");
        AddressSpace {
            block_bytes,
            next: 0,
            regions: Vec::new(),
        }
    }

    /// Allocates `bytes` for `name`, block-aligned.
    pub fn alloc(&mut self, name: &str, bytes: u64) -> Region {
        assert!(bytes > 0, "zero-sized region");
        let base = self.next;
        let r = Region { base, len: bytes };
        self.next = (base + bytes).div_ceil(self.block_bytes) * self.block_bytes;
        self.regions.push((name.to_string(), r));
        r
    }

    /// Total shared bytes allocated (the paper's Table 2 "shared space").
    pub fn total_bytes(&self) -> u64 {
        self.next
    }

    /// Named regions, in allocation order.
    pub fn regions(&self) -> &[(String, Region)] {
        &self.regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_block_aligned_and_disjoint() {
        let mut a = AddressSpace::new(16);
        let r1 = a.alloc("x", 10);
        let r2 = a.alloc("y", 40);
        let r3 = a.alloc("z", 16);
        assert_eq!(r1.base() % 16, 0);
        assert_eq!(r2.base(), 16, "10 bytes round up to one block");
        assert_eq!(r3.base(), 64);
        assert_eq!(a.total_bytes(), 80);
    }

    #[test]
    fn element_addressing() {
        let mut a = AddressSpace::new(16);
        let r = a.alloc("m", 8 * 100);
        assert_eq!(r.elem(0, 8), r.base());
        assert_eq!(r.elem(3, 8), r.base() + 24);
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn out_of_bounds_panics() {
        let mut a = AddressSpace::new(16);
        let r = a.alloc("m", 32);
        r.addr(32);
    }
}
