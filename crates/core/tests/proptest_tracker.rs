//! Property tests: `ValueTracker`/`FullProfile` against naive reference
//! computations, plus structural TNV invariants, over arbitrary value
//! streams.

use std::collections::HashMap;

use proptest::prelude::*;
use vp_core::tnv::{Policy, TnvTable};
use vp_core::track::{FullProfile, TrackerConfig, ValueTracker};

/// Streams drawn from a small alphabet (so collisions and invariance
/// actually occur) mixed with occasional arbitrary values.
fn arb_stream() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(prop_oneof![4 => 0u64..8, 1 => any::<u64>()], 1..400)
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Lfu),
        Just(Policy::Lru),
        (1usize..8, 1u64..500)
            .prop_map(|(steady, clear_interval)| Policy::LfuClear { steady, clear_interval }),
    ]
}

proptest! {
    /// The one-pass `inv_all(n)` equals the sum over the sort-based
    /// `top(n)` bit for bit, for every width: `n = 0`, ties (the small
    /// alphabet makes equal counts common) and `n` beyond the distinct
    /// count.
    #[test]
    fn one_pass_inv_all_equals_sorted_top_sum(
        stream in prop::collection::vec(prop_oneof![6 => 0u64..6, 1 => any::<u64>()], 0..300),
    ) {
        let mut full = FullProfile::new();
        for &v in &stream {
            full.observe(v);
        }
        let distinct = full.distinct() as usize;
        for n in (0..=distinct + 2).chain([usize::MAX]) {
            let covered: u64 = full.top(n).iter().map(|&(_, c)| c).sum();
            let sorted = if stream.is_empty() { 0.0 } else { covered as f64 / stream.len() as f64 };
            prop_assert_eq!(full.inv_all(n).to_bits(), sorted.to_bits(), "n={}", n);
        }
    }

    /// Exact metrics match a naive reference implementation.
    #[test]
    fn tracker_matches_reference(stream in arb_stream()) {
        let mut tracker = ValueTracker::new(TrackerConfig::with_full());
        for &v in &stream {
            tracker.observe(v);
        }
        // Reference: histogram + linear scans.
        let mut hist: HashMap<u64, u64> = HashMap::new();
        let mut lvp_hits = 0u64;
        let mut zeros = 0u64;
        for (i, &v) in stream.iter().enumerate() {
            *hist.entry(v).or_insert(0) += 1;
            if i > 0 && stream[i - 1] == v {
                lvp_hits += 1;
            }
            if v == 0 {
                zeros += 1;
            }
        }
        let n = stream.len() as f64;
        prop_assert_eq!(tracker.executions(), stream.len() as u64);
        prop_assert!((tracker.lvp() - lvp_hits as f64 / n).abs() < 1e-12);
        prop_assert!((tracker.pct_zero() - zeros as f64 / n).abs() < 1e-12);
        prop_assert_eq!(tracker.distinct(), Some(hist.len() as u64));
        let mut counts: Vec<u64> = hist.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        for k in [1usize, 2, 4, 8] {
            let expected: u64 = counts.iter().take(k).sum();
            let got = tracker.inv_all(k).unwrap();
            prop_assert!((got - expected as f64 / n).abs() < 1e-12, "k={k}");
        }
        prop_assert_eq!(tracker.last_value(), stream.last().copied());
    }

    /// TNV structural invariants hold for every policy and stream: counts
    /// never exceed observations, estimates never exceed exact invariance,
    /// top(k) is count-sorted, and the table never overflows.
    #[test]
    fn tnv_structural_invariants(stream in arb_stream(), policy in arb_policy(), cap in 1usize..12) {
        // Clamp the steady part to the capacity.
        let policy = match policy {
            Policy::LfuClear { steady, clear_interval } if steady >= cap => {
                Policy::LfuClear { steady: cap - 1, clear_interval }
            }
            p => p,
        };
        if cap == 1 {
            // LfuClear needs at least one clearable slot.
            if matches!(policy, Policy::LfuClear { .. }) {
                return Ok(());
            }
        }
        let mut tnv = TnvTable::new(cap, policy);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        for &v in &stream {
            tnv.observe(v);
            *exact.entry(v).or_insert(0) += 1;
        }
        prop_assert!(tnv.entries().len() <= cap);
        prop_assert_eq!(tnv.observations(), stream.len() as u64);
        let total: u64 = tnv.entries().iter().map(|e| e.count).sum();
        prop_assert!(total <= tnv.observations());
        // Sorted by count, descending.
        for pair in tnv.entries().windows(2) {
            prop_assert!(pair[0].count >= pair[1].count);
        }
        // Resident counts never exceed the exact counts, so Inv-Top is a
        // lower bound of Inv-All at every width.
        for e in tnv.entries() {
            prop_assert!(e.count <= exact[&e.value], "value {} over-counted", e.value);
        }
        let mut counts: Vec<u64> = exact.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        for k in 1..=cap {
            let exact_k: u64 = counts.iter().take(k).sum();
            prop_assert!(
                tnv.inv_top(k) <= exact_k as f64 / stream.len() as f64 + 1e-12,
                "k={k}"
            );
        }
    }

    /// With capacity >= distinct values, every policy is exact.
    #[test]
    fn tnv_exact_when_table_is_large_enough(
        stream in prop::collection::vec(0u64..6, 1..300),
        policy in arb_policy(),
    ) {
        // Clearing discards counts, so exactness only holds for policies
        // that never clear resident entries below the distinct count.
        let policy = match policy {
            Policy::LfuClear { clear_interval, .. } => {
                Policy::LfuClear { steady: 6, clear_interval }
            }
            p => p,
        };
        let mut tnv = TnvTable::new(8, policy);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        for &v in &stream {
            tnv.observe(v);
            *exact.entry(v).or_insert(0) += 1;
        }
        // With <= 6 distinct values, 8 slots and a steady part of 6, no
        // value with a top-6 count is ever evicted.
        let mut counts: Vec<u64> = exact.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: u64 = counts.iter().take(8).sum();
        prop_assert!((tnv.inv_top(8) - top as f64 / stream.len() as f64).abs() < 1e-12);
    }
}
