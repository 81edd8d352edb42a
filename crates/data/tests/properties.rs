//! Property-based tests for the data substrate invariants.

use proptest::prelude::*;

use toreador_data::csv::{read_csv, write_csv};
use toreador_data::generate::random_table;
use toreador_data::partition::PartitionedTable;
use toreador_data::prelude::*;
use toreador_data::stats::{quantile, Welford};

/// Arbitrary `Value` covering every variant (strings avoid the empty string,
/// which CSV cannot distinguish from null by design).
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e9f64..1e9).prop_map(Value::Float),
        "[a-zA-Z0-9 ,\"\n]{1,12}".prop_map(Value::Str),
        any::<i64>().prop_map(Value::Timestamp),
    ]
}

proptest! {
    #[test]
    fn value_total_cmp_is_total_order(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        // Transitivity (spot-check the chain that applies).
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
        // Reflexivity.
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
    }

    #[test]
    fn group_eq_implies_equal_hash(a in arb_value(), b in arb_value()) {
        if a.group_eq(&b) {
            prop_assert_eq!(a.hash_code(), b.hash_code());
        }
    }

    #[test]
    fn split_preserves_rows_and_order(rows in 0usize..200, parts in 1usize..16, seed in 0u64..100) {
        let t = random_table(rows, 4, seed);
        let p = PartitionedTable::split(t.clone(), parts).unwrap();
        prop_assert_eq!(p.num_partitions(), parts);
        prop_assert_eq!(p.total_rows(), rows);
        if rows > 0 {
            prop_assert_eq!(p.collect().unwrap(), t);
        }
    }

    #[test]
    fn csv_round_trip_is_identity_modulo_empty_strings(rows in 0usize..60, seed in 0u64..100) {
        // random_table's strings are non-empty, so inference round-trips.
        let t = random_table(rows, 5, seed);
        if rows == 0 {
            return Ok(()); // inference has no rows to look at
        }
        let text = write_csv(&t);
        let back = read_csv(&text).unwrap();
        prop_assert_eq!(back.num_rows(), t.num_rows());
        // Values compare equal column-by-column (schema may differ in
        // nullability, which Display/parse does not encode).
        for (ca, cb) in t.columns().iter().zip(back.columns()) {
            for (va, vb) in ca.iter_values().zip(cb.iter_values()) {
                if let (Ok(fa), Ok(fb)) = (va.as_float(), vb.as_float()) {
                    prop_assert!((fa - fb).abs() <= fa.abs() * 1e-12 + 1e-12);
                } else {
                    prop_assert_eq!(va.to_string(), vb.to_string());
                }
            }
        }
    }

    #[test]
    fn sort_output_is_sorted_permutation(rows in 0usize..120, seed in 0u64..100) {
        let t = random_table(rows, 3, seed);
        let s = t.sort_by(&["c0"], false).unwrap();
        prop_assert_eq!(s.num_rows(), t.num_rows());
        let col = s.column("c0").unwrap();
        for i in 1..s.num_rows() {
            let prev = col.value(i - 1).unwrap();
            let cur = col.value(i).unwrap();
            prop_assert_ne!(prev.total_cmp(&cur), std::cmp::Ordering::Greater);
        }
        // Multiset preservation.
        let mut a: Vec<String> = t.column("c0").unwrap().iter_values().map(|v| format!("{v:?}")).collect();
        let mut b: Vec<String> = col.iter_values().map(|v| format!("{v:?}")).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn filter_then_concat_partitions_rows(rows in 0usize..150, seed in 0u64..100) {
        let t = random_table(rows, 2, seed);
        let mask: Vec<bool> = (0..rows).map(|i| i % 3 == 0).collect();
        let inv: Vec<bool> = mask.iter().map(|b| !b).collect();
        let kept = t.filter(&mask).unwrap();
        let dropped = t.filter(&inv).unwrap();
        prop_assert_eq!(kept.num_rows() + dropped.num_rows(), rows);
    }

    #[test]
    fn welford_merge_associative(xs in prop::collection::vec(-1e6f64..1e6, 0..100), split in 0usize..100) {
        let split = split.min(xs.len());
        let mut whole = Welford::new();
        for &x in &xs { whole.push(x); }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..split] { left.push(x); }
        for &x in &xs[split..] { right.push(x); }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        if !xs.is_empty() {
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
            prop_assert!((left.variance() - whole.variance()).abs() < 1e-3);
        }
    }

    #[test]
    fn quantile_is_monotone_in_q(xs in prop::collection::vec(-1e3f64..1e3, 1..80), q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo).unwrap();
        let b = quantile(&xs, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn take_out_of_range_errors(rows in 0usize..20) {
        let t = random_table(rows, 2, 0);
        prop_assert!(t.take(&[rows]).is_err());
    }
}
