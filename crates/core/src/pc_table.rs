//! [`PcTable`]: the one per-pc container behind the instruction
//! profilers.
//!
//! Every profiled event looks up its instruction's state, so this lookup
//! sits on the hot path of every profiling mode. Program counters are
//! small, dense instruction indices, so a pc below [`PcTable::DENSE_CAP`]
//! resolves through a flat `u32` index (`pc → slot`) with one bounds check
//! and no hashing. Replay and serve also accept arbitrary `u32` pcs from
//! outside, so a pc at or above the cap falls back to an ordered sparse
//! map. That caps the dense index at `4 × DENSE_CAP` bytes however large
//! the pcs are: a trace holding only `u32::MAX` costs one sparse entry,
//! and one holding `DENSE_CAP - 1` costs the whole (bounded) index,
//! never `DENSE_CAP × size_of::<V>()`.
//!
//! Iteration is in ascending pc order (dense pcs, then sparse ones), so
//! the profilers' `metrics()`/`stats()` come out ordered without a sort.

use std::collections::BTreeMap;

/// A map from pc to `V`: a dense slot index below [`PcTable::DENSE_CAP`],
/// an ordered sparse map above it, and the values in one `Vec`.
///
/// ```
/// use vp_core::PcTable;
///
/// let mut table: PcTable<u64> = PcTable::new();
/// *table.get_or_insert_with(7, || 0) += 1;
/// *table.get_or_insert_with(u32::MAX, || 0) += 5;
/// *table.get_or_insert_with(7, || 0) += 1;
/// assert_eq!(table.get(7), Some(&2));
/// let pcs: Vec<u32> = table.iter().map(|(pc, _)| pc).collect();
/// assert_eq!(pcs, [7, u32::MAX]);
/// assert!(table.index_bytes() <= 4 * PcTable::<u64>::DENSE_CAP as usize);
/// ```
#[derive(Debug, Clone)]
pub struct PcTable<V> {
    /// `dense[pc]` is 1 + the slot of `pc`, or 0 when `pc` is absent.
    /// Grows to the next power of two above the largest dense pc seen,
    /// never past `DENSE_CAP` entries.
    dense: Vec<u32>,
    /// Slot of each pc at or above `DENSE_CAP`.
    sparse: BTreeMap<u32, u32>,
    /// The values and their pcs, in insertion order (a removal moves the
    /// last slot into the hole).
    slots: Vec<(u32, V)>,
}

impl<V> Default for PcTable<V> {
    fn default() -> Self {
        PcTable { dense: Vec::new(), sparse: BTreeMap::new(), slots: Vec::new() }
    }
}

impl<V> PcTable<V> {
    /// pcs below this resolve through the dense index; the rest through
    /// the sparse map. The dense index therefore never exceeds
    /// `4 × DENSE_CAP` bytes (256 KiB).
    pub const DENSE_CAP: u32 = 1 << 16;

    /// An empty table (no index until the first insertion).
    pub fn new() -> PcTable<V> {
        PcTable::default()
    }

    /// Number of pcs held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no pc is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    #[inline]
    fn slot(&self, pc: u32) -> Option<usize> {
        if pc < Self::DENSE_CAP {
            match self.dense.get(pc as usize) {
                Some(&s) if s != 0 => Some(s as usize - 1),
                _ => None,
            }
        } else {
            self.sparse.get(&pc).map(|&s| s as usize)
        }
    }

    fn set_slot(&mut self, pc: u32, slot: usize) {
        let tag = u32::try_from(slot).expect("slot count fits in u32");
        if pc < Self::DENSE_CAP {
            self.dense[pc as usize] = tag + 1;
        } else {
            self.sparse.insert(pc, tag);
        }
    }

    /// The value of `pc`.
    #[inline]
    pub fn get(&self, pc: u32) -> Option<&V> {
        self.slot(pc).map(|s| &self.slots[s].1)
    }

    /// The value of `pc`, mutably.
    #[inline]
    pub fn get_mut(&mut self, pc: u32) -> Option<&mut V> {
        self.slot(pc).map(|s| &mut self.slots[s].1)
    }

    /// The value of `pc`, inserting `make()` first if `pc` is absent.
    #[inline]
    pub fn get_or_insert_with(&mut self, pc: u32, make: impl FnOnce() -> V) -> &mut V {
        let slot = match self.slot(pc) {
            Some(slot) => slot,
            None => self.push(pc, make()),
        };
        &mut self.slots[slot].1
    }

    /// Appends `value` for an absent `pc` and returns its slot.
    fn push(&mut self, pc: u32, value: V) -> usize {
        if pc < Self::DENSE_CAP && pc as usize >= self.dense.len() {
            let len = (pc as usize + 1).next_power_of_two().min(Self::DENSE_CAP as usize);
            self.dense.reserve_exact(len - self.dense.len());
            self.dense.resize(len, 0);
        }
        let slot = self.slots.len();
        self.slots.push((pc, value));
        self.set_slot(pc, slot);
        slot
    }

    /// Removes `pc`, returning its value.
    pub fn remove(&mut self, pc: u32) -> Option<V> {
        let slot = self.slot(pc)?;
        if pc < Self::DENSE_CAP {
            self.dense[pc as usize] = 0;
        } else {
            self.sparse.remove(&pc);
        }
        let (_, value) = self.slots.swap_remove(slot);
        if let Some(&(moved, _)) = self.slots.get(slot) {
            self.set_slot(moved, slot);
        }
        Some(value)
    }

    /// Every `(pc, value)` pair in ascending pc order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        let dense = self
            .dense
            .iter()
            .filter(|&&s| s != 0)
            .map(|&s| &self.slots[s as usize - 1])
            .map(|(pc, v)| (*pc, v));
        dense.chain(self.sparse.values().map(|&s| {
            let (pc, v) = &self.slots[s as usize];
            (*pc, v)
        }))
    }

    /// Every value, in no particular order — for sums, where order does
    /// not matter.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().map(|(_, v)| v)
    }

    /// Moves every pc of `other` into this table: a pc only `other` holds
    /// moves over as it is, and a shared one is folded by
    /// `combine(mine, theirs)`.
    pub fn merge_with(&mut self, other: PcTable<V>, mut combine: impl FnMut(&mut V, V)) {
        for (pc, theirs) in other.slots {
            match self.slot(pc) {
                Some(slot) => combine(&mut self.slots[slot].1, theirs),
                None => {
                    self.push(pc, theirs);
                }
            }
        }
    }

    /// Bytes of the dense index, the only part whose size depends on the
    /// pc values rather than on how many pcs are held. At most
    /// `4 × DENSE_CAP`.
    pub fn index_bytes(&self) -> usize {
        self.dense.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_index_grows_by_powers_of_two() {
        let mut t: PcTable<()> = PcTable::new();
        assert_eq!(t.index_bytes(), 0);
        t.get_or_insert_with(5, || ());
        assert_eq!(t.index_bytes(), 8 * 4);
        t.get_or_insert_with(u32::MAX, || ());
        assert_eq!(t.index_bytes(), 8 * 4, "sparse pcs leave the dense index alone");
    }
}
