//! Layout differential: every relational kernel run on shared views —
//! windows at a non-zero offset into buffers a parent table also holds —
//! returns exactly what it returns on freshly built columns of the same
//! rows: the same values (floats by bit pattern), the same validity, and
//! the same `==`.

use proptest::prelude::*;

use toreador_data::generate::edge_table;
use toreador_data::partition::PartitionedTable;
use toreador_data::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Slice(u16, u16),
    Concat(u16, u16, u16, u16),
    Take(Vec<u16>),
    TakeSel(Vec<u16>),
    Filter(u64),
    Split(u8, u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let idx = || prop::collection::vec(any::<u16>(), 0..40);
    prop_oneof![
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::Slice(a, b)),
        (any::<u16>(), any::<u16>(), any::<u16>(), any::<u16>())
            .prop_map(|(a, b, c, d)| Op::Concat(a, b, c, d)),
        idx().prop_map(Op::Take),
        idx().prop_map(Op::TakeSel),
        any::<u64>().prop_map(Op::Filter),
        (any::<u8>(), any::<u8>()).prop_map(|(n, k)| Op::Split(n, k)),
    ]
}

/// The row range `a..b` (either order) scaled onto `0..=n`.
fn range(a: u16, b: u16, n: usize) -> (usize, usize) {
    let at = |f: u16| f as usize * (n + 1) / (u16::MAX as usize + 1);
    let (a, b) = (at(a), at(b));
    (a.min(b), a.max(b))
}

/// Apply `op`; also say whether the result must share `t`'s buffers.
fn apply(t: &Table, op: &Op) -> (Table, bool) {
    let n = t.num_rows();
    let slice = |a: u16, b: u16| {
        let (a, b) = range(a, b, n);
        t.slice(a, b).unwrap()
    };
    match op {
        Op::Slice(a, b) => (slice(*a, *b), true),
        Op::Concat(a, b, c, d) => (
            Table::concat(&[slice(*a, *b), slice(*c, *d)]).unwrap(),
            false,
        ),
        Op::Take(ix) => {
            let ix: Vec<usize> = ix
                .iter()
                .filter(|_| n > 0)
                .map(|&i| i as usize % n.max(1))
                .collect();
            (t.take(&ix).unwrap(), false)
        }
        Op::TakeSel(ix) => {
            let sel: Vec<u32> = ix
                .iter()
                .filter(|_| n > 0)
                .map(|&i| (i as usize % n.max(1)) as u32)
                .collect();
            (t.take_sel(&sel).unwrap(), false)
        }
        Op::Filter(seed) => {
            let mask: Vec<bool> = (0..n)
                .map(|i| (seed.rotate_left(i as u32) ^ (i as u64 / 64)) & 1 == 1)
                .collect();
            (t.filter(&mask).unwrap(), false)
        }
        Op::Split(parts, k) => {
            let parts = 1 + *parts as usize % 5;
            let p = PartitionedTable::split(t.clone(), parts).unwrap();
            (p.parts()[*k as usize % parts].clone(), true)
        }
    }
}

/// The same rows, built from scratch through the builder.
fn fresh(t: &Table) -> Table {
    Table::from_rows(t.schema().clone(), t.iter_rows()).unwrap()
}

/// Cell-exact rendering: floats by bit pattern, so NaN payloads and -0.0
/// count.
fn cells(t: &Table) -> Vec<String> {
    t.iter_rows()
        .flatten()
        .map(|v| match v {
            Value::Float(x) => format!("F{:016x}", x.to_bits()),
            v => format!("{v:?}"),
        })
        .collect()
}

fn assert_same(view: &Table, reference: &Table) -> Result<(), TestCaseError> {
    prop_assert_eq!(view.num_rows(), reference.num_rows());
    prop_assert_eq!(cells(view), cells(reference));
    for (a, b) in view.columns().iter().zip(reference.columns()) {
        prop_assert_eq!(a.null_count(), b.null_count());
        prop_assert_eq!(a.validity(), b.validity());
    }
    // `==` is IEEE on floats: a NaN in any slot makes a table unequal
    // even to itself.
    let has_nan = reference.columns().iter().any(|c| {
        c.as_floats()
            .is_ok_and(|(x, _)| x.iter().any(|x| x.is_nan()))
    });
    prop_assert_eq!(view == reference, !has_nan);
    prop_assert_eq!(view.compact() == *reference, !has_nan);
    Ok(())
}

// 256 cases by default; `PROPTEST_CASES` overrides (the vendored proptest
// does not read it itself).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256),
    ))]

    #[test]
    fn kernels_on_views_match_kernels_on_fresh_columns(
        rows in 0usize..120,
        pad in 0usize..70,
        seed in any::<u64>(),
        ops in prop::collection::vec(arb_op(), 1..6),
    ) {
        let base = edge_table(rows + 2 * pad, seed);
        let mut view = base.slice(pad, pad + rows).unwrap();
        let mut reference = fresh(&view);
        assert_same(&view, &reference)?;
        for op in &ops {
            let (next, shares) = apply(&view, op);
            for (a, b) in next.columns().iter().zip(view.columns()) {
                prop_assert_eq!(a.shares_storage(b), shares, "{:?}", op);
            }
            view = next;
            reference = fresh(&apply(&reference, op).0);
            assert_same(&view, &reference)?;
        }
    }
}
