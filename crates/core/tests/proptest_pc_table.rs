//! Property tests: `PcTable` against a `HashMap` reference over arbitrary
//! operation sequences, with pcs below the dense cap, around it and at
//! `u32::MAX`; plus the dense index's byte bound.

use std::collections::HashMap;

use proptest::prelude::*;
use vp_core::PcTable;

const CAP: u32 = PcTable::<u64>::DENSE_CAP;

/// Small dense pcs (so operations collide), pcs straddling the cap, the
/// largest pc, and arbitrary ones.
fn arb_pc() -> impl Strategy<Value = u32> {
    prop_oneof![
        4 => 0u32..48,
        2 => (CAP - 6)..(CAP + 6),
        1 => Just(u32::MAX),
        1 => any::<u32>(),
    ]
}

/// `(operation, pc, value)`: 0 insert-or-overwrite, 1 get,
/// 2 get-or-insert-then-add, 3 remove.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, u32, u64)>> {
    prop::collection::vec((0u8..4, arb_pc(), 0u64..1000), 0..300)
}

/// Applies `ops` to both the table and the reference, checking every
/// answer along the way.
fn apply(
    table: &mut PcTable<u64>,
    reference: &mut HashMap<u32, u64>,
    ops: &[(u8, u32, u64)],
) -> Result<(), TestCaseError> {
    for &(op, pc, value) in ops {
        match op {
            0 => {
                *table.get_or_insert_with(pc, || 0) = value;
                reference.insert(pc, value);
            }
            1 => prop_assert_eq!(table.get(pc), reference.get(&pc)),
            2 => {
                *table.get_or_insert_with(pc, || 7) += value;
                *reference.entry(pc).or_insert(7) += value;
            }
            _ => prop_assert_eq!(table.remove(pc), reference.remove(&pc)),
        }
        prop_assert_eq!(table.len(), reference.len());
    }
    Ok(())
}

/// The reference's pairs in ascending pc order.
fn ordered(reference: &HashMap<u32, u64>) -> Vec<(u32, u64)> {
    let mut pairs: Vec<(u32, u64)> = reference.iter().map(|(&pc, &v)| (pc, v)).collect();
    pairs.sort_unstable();
    pairs
}

fn contents(table: &PcTable<u64>) -> Vec<(u32, u64)> {
    table.iter().map(|(pc, &v)| (pc, v)).collect()
}

proptest! {
    /// Every lookup answers as the reference does, and iteration is in
    /// ascending pc order.
    #[test]
    fn table_matches_hashmap_reference(ops in arb_ops()) {
        let mut table = PcTable::new();
        let mut reference = HashMap::new();
        apply(&mut table, &mut reference, &ops)?;
        prop_assert_eq!(contents(&table), ordered(&reference));
        for (pc, v) in ordered(&reference) {
            prop_assert_eq!(table.get(pc), Some(&v));
            prop_assert_eq!(table.get_mut(pc).copied(), Some(v));
        }
        let mut values: Vec<u64> = table.values().copied().collect();
        values.sort_unstable();
        let mut expected: Vec<u64> = reference.values().copied().collect();
        expected.sort_unstable();
        prop_assert_eq!(values, expected);
        prop_assert!(table.index_bytes() <= 4 * CAP as usize);
    }

    /// `merge_with` moves over pcs only `other` holds and folds shared
    /// ones, exactly as the reference's entry-wise merge.
    #[test]
    fn merge_matches_hashmap_reference(left in arb_ops(), right in arb_ops()) {
        let (mut a, mut b) = (PcTable::new(), PcTable::new());
        let (mut ra, mut rb) = (HashMap::new(), HashMap::new());
        apply(&mut a, &mut ra, &left)?;
        apply(&mut b, &mut rb, &right)?;
        a.merge_with(b, |mine, theirs| *mine = mine.wrapping_mul(3).wrapping_add(theirs));
        for (pc, theirs) in rb {
            ra.entry(pc)
                .and_modify(|mine| *mine = mine.wrapping_mul(3).wrapping_add(theirs))
                .or_insert(theirs);
        }
        prop_assert_eq!(contents(&a), ordered(&ra));
        prop_assert_eq!(a.len(), ra.len());
    }
}

#[test]
fn few_pcs_near_and_above_the_cap_stay_within_the_index_bound() {
    // pcs at and above the cap never touch the dense index.
    let mut high: PcTable<[u64; 64]> = PcTable::new();
    for pc in [CAP, CAP + 1, 1 << 20, u32::MAX] {
        high.get_or_insert_with(pc, || [pc as u64; 64]);
    }
    assert_eq!(high.index_bytes(), 0);
    assert_eq!(high.len(), 4);

    // The largest dense pc costs the whole index, and no more: 4 bytes a
    // pc below the cap, never the cap times the value size.
    let mut near: PcTable<[u64; 64]> = PcTable::new();
    for pc in [CAP - 1, CAP, u32::MAX] {
        near.get_or_insert_with(pc, || [0; 64]);
    }
    assert_eq!(near.index_bytes(), 4 * CAP as usize);
    assert_eq!(near.len(), 3);
    let pcs: Vec<u32> = near.iter().map(|(pc, _)| pc).collect();
    assert_eq!(pcs, [CAP - 1, CAP, u32::MAX]);
}
