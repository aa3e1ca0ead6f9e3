//! The size-class-embedded VA encoding (Figure 6) and the plain-list slot
//! function `f(SC, Index)`.
//!
//! A Jord virtual address is `[Top | SC | Index | Offset]` within a 48-bit
//! canonical VA:
//!
//! ```text
//!  47      43 42      38 37                    (7+k) (6+k)        0
//! +----------+----------+--------------------------+----------------+
//! |  Top tag |  SC = k  |          Index           |     Offset     |
//! +----------+----------+--------------------------+----------------+
//! ```
//!
//! The offset field is exactly as wide as the class's chunk (`7+k` bits for
//! class *k*), so the base of every VMA is recoverable from the address by
//! masking — this is what lets the VTW compute the VTE address with no
//! memory access. `f(SC, Index) = Index × 26 + SC` interleaves classes
//! evenly in the plain list, as in the paper's "simple two-input injective
//! function".
//!
//! With 26 classes the SC field costs 5 bits of ASLR entropy; the smallest
//! class retains 31 index bits here (the paper's 47-bit layout retains 29 —
//! same order, same trade-off).

use jord_hw::types::{Va, VteAddr};

use crate::size_class::{SizeClass, NUM_CLASSES};

/// Width of the Top tag and SC fields.
const TAG_BITS: u32 = 5;
const SC_SHIFT: u32 = 38;
const TAG_SHIFT: u32 = 43;
/// Bits available below the SC field for Index + Offset.
const BODY_BITS: u32 = SC_SHIFT;

/// Bytes per VMA table entry: one cache block (Figure 8 spans 512 bits).
pub const VTE_BYTES: u64 = 64;

/// The VA encoding scheme, as configured through the `uatc` CSR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VaCodec {
    top_tag: u8,
    per_class_capacity: u32,
}

impl VaCodec {
    /// Default Top tag for Jord-managed VAs.
    pub const DEFAULT_TAG: u8 = 0b11010;

    /// Creates a codec with the given Top tag (5 bits) and per-class VMA
    /// capacity (power of two). Large classes are automatically capped by
    /// their available index bits.
    ///
    /// # Panics
    ///
    /// Panics if the tag exceeds 5 bits, or the capacity is zero or not a
    /// power of two.
    pub fn new(top_tag: u8, per_class_capacity: u32) -> Self {
        assert!(top_tag < 32, "top tag must fit in 5 bits");
        assert!(
            per_class_capacity > 0 && per_class_capacity.is_power_of_two(),
            "per-class capacity must be a positive power of two"
        );
        VaCodec {
            top_tag,
            per_class_capacity,
        }
    }

    /// The default scheme used by the experiments: tag `0b11010`, 4096 VMAs
    /// per size class (106,496 VTEs, a 6.8 MB plain list).
    pub fn isca25() -> Self {
        VaCodec::new(Self::DEFAULT_TAG, 4096)
    }

    /// Maximum number of VMAs of class `sc` (configured capacity, capped by
    /// the class's index-field width).
    pub fn capacity(&self, sc: SizeClass) -> u32 {
        let index_bits = BODY_BITS - sc.offset_bits();
        let hard = if index_bits >= 32 {
            u32::MAX
        } else {
            1u32 << index_bits
        };
        self.per_class_capacity.min(hard)
    }

    /// Total plain-list slots implied by this codec (classes × capacity,
    /// interleaved; slots of capped classes beyond their hard limit are
    /// simply never used — the list is "preallocated and overprovisioned").
    pub fn total_slots(&self) -> usize {
        self.per_class_capacity as usize * NUM_CLASSES as usize
    }

    /// True if `va` carries this codec's Top tag (only such VAs take the
    /// Jord translation path; all others fall through to paged memory).
    pub fn matches(&self, va: Va) -> bool {
        (va >> TAG_SHIFT) as u8 & 0x1F == self.top_tag && va >> (TAG_SHIFT + TAG_BITS) == 0
    }

    /// Encodes `(class, index, offset)` into a VA.
    ///
    /// Returns `None` if `index` exceeds the class capacity or `offset`
    /// exceeds the class chunk size.
    pub fn encode(&self, sc: SizeClass, index: u32, offset: u64) -> Option<Va> {
        if index >= self.capacity(sc) || offset >= sc.bytes() {
            return None;
        }
        Some(
            ((self.top_tag as u64) << TAG_SHIFT)
                | ((sc.index() as u64) << SC_SHIFT)
                | ((index as u64) << sc.offset_bits())
                | offset,
        )
    }

    /// The base address of VMA `(class, index)`.
    pub fn base_of(&self, sc: SizeClass, index: u32) -> Option<Va> {
        self.encode(sc, index, 0)
    }

    /// Decodes a VA into `(class, index, offset)`.
    ///
    /// Returns `None` if the tag mismatches, the SC field is invalid, or
    /// the index exceeds capacity.
    pub fn decode(&self, va: Va) -> Option<(SizeClass, u32, u64)> {
        if !self.matches(va) {
            return None;
        }
        let sc = SizeClass::from_index(((va >> SC_SHIFT) & 0x1F) as u8)?;
        let body = va & ((1u64 << BODY_BITS) - 1);
        let index = (body >> sc.offset_bits()) as u32;
        let offset = body & (sc.bytes() - 1);
        if index >= self.capacity(sc) {
            return None;
        }
        Some((sc, index, offset))
    }

    /// The plain-list slot of VMA `(class, index)`:
    /// `f(SC, Index) = Index × NUM_CLASSES + SC` (even interleave).
    pub fn slot_of(&self, sc: SizeClass, index: u32) -> usize {
        index as usize * NUM_CLASSES as usize + sc.index() as usize
    }

    /// Inverse of [`slot_of`](Self::slot_of).
    pub fn slot_to_vma(&self, slot: usize) -> (SizeClass, u32) {
        let sc = SizeClass::from_index((slot % NUM_CLASSES as usize) as u8)
            .expect("slot modulus is a valid class");
        (sc, (slot / NUM_CLASSES as usize) as u32)
    }

    /// The memory address of the VTE for `(class, index)` given the table
    /// base from `uatp` — the closed form `A_VTE = A_Base + f(SC, Index)`
    /// of §4.1 (scaled by the 64 B entry size).
    pub fn vte_addr(&self, table_base: u64, sc: SizeClass, index: u32) -> VteAddr {
        VteAddr(table_base + self.slot_of(sc, index) as u64 * VTE_BYTES)
    }

    /// Packs the scheme into the `uatc` CSR image.
    pub fn to_uatc(&self) -> u64 {
        (self.top_tag as u64) | ((self.per_class_capacity as u64) << 8)
    }

    /// Unpacks a `uatc` CSR image.
    ///
    /// Returns `None` if the image encodes an invalid scheme.
    pub fn from_uatc(value: u64) -> Option<Self> {
        let tag = (value & 0x1F) as u8;
        let cap = (value >> 8) as u32;
        if cap == 0 || !cap.is_power_of_two() {
            return None;
        }
        Some(VaCodec::new(tag, cap))
    }
}

impl Default for VaCodec {
    fn default() -> Self {
        VaCodec::isca25()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let c = VaCodec::isca25();
        for sc in SizeClass::all() {
            let cap = c.capacity(sc);
            for index in [0, 1, cap / 2, cap - 1] {
                let offset = sc.bytes() - 1;
                let va = c.encode(sc, index, offset).unwrap();
                assert!(c.matches(va));
                assert_eq!(c.decode(va), Some((sc, index, offset)));
            }
        }
    }

    #[test]
    fn classes_partition_the_va_space() {
        // Distinct (sc, index) pairs must give disjoint VMA ranges.
        let c = VaCodec::isca25();
        let a = c.base_of(SizeClass::from_index(0).unwrap(), 0).unwrap();
        let b = c.base_of(SizeClass::from_index(0).unwrap(), 1).unwrap();
        assert!(b >= a + 128);
        let big = c.base_of(SizeClass::from_index(10).unwrap(), 0).unwrap();
        assert_ne!(a >> SC_SHIFT, big >> SC_SHIFT, "different SC fields");
    }

    #[test]
    fn foreign_vas_do_not_match() {
        let c = VaCodec::isca25();
        assert!(!c.matches(0x7fff_0000_0000));
        assert!(!c.matches(0));
        // Correct tag bits but non-canonical high bits.
        let va = c.encode(SizeClass::MIN, 0, 0).unwrap();
        assert!(!c.matches(va | (1 << 50)));
    }

    #[test]
    fn capacity_capped_for_large_classes() {
        let c = VaCodec::isca25();
        // 4 GiB class has 38-32 = 6 index bits → 64 VMAs max.
        assert_eq!(c.capacity(SizeClass::MAX), 64);
        assert_eq!(c.capacity(SizeClass::MIN), 4096);
        assert!(c.encode(SizeClass::MAX, 64, 0).is_none());
        assert!(c.encode(SizeClass::MAX, 63, 0).is_some());
    }

    #[test]
    fn encode_rejects_out_of_range() {
        let c = VaCodec::isca25();
        assert!(c.encode(SizeClass::MIN, 4096, 0).is_none());
        assert!(c.encode(SizeClass::MIN, 0, 128).is_none());
    }

    #[test]
    fn slot_function_is_injective_and_interleaved() {
        let c = VaCodec::isca25();
        let mut seen = std::collections::HashSet::new();
        for sc in SizeClass::all() {
            for index in 0..64u32 {
                assert!(seen.insert(c.slot_of(sc, index)), "slot collision");
            }
        }
        // Consecutive indices of one class are NUM_CLASSES slots apart.
        let sc = SizeClass::MIN;
        assert_eq!(c.slot_of(sc, 1) - c.slot_of(sc, 0), 26);
        // Round trip.
        for slot in [0usize, 1, 25, 26, 27, 1000] {
            let (sc, idx) = c.slot_to_vma(slot);
            assert_eq!(c.slot_of(sc, idx), slot);
        }
    }

    #[test]
    fn vte_addr_closed_form() {
        let c = VaCodec::isca25();
        let base = 0x100_0000;
        let sc = SizeClass::from_index(3).unwrap();
        let vte = c.vte_addr(base, sc, 2);
        assert_eq!(vte.0, base + (2 * 26 + 3) as u64 * 64);
    }

    #[test]
    fn uatc_roundtrip() {
        let c = VaCodec::new(7, 1024);
        assert_eq!(VaCodec::from_uatc(c.to_uatc()), Some(c));
        assert!(VaCodec::from_uatc(0).is_none()); // zero capacity
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_panics() {
        let _ = VaCodec::new(1, 100);
    }
}
