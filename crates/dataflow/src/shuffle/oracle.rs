//! Differential proof that the lane-scattering shuffle of [`crate::shuffle`]
//! is the byte-codec shuffle it replaced, lane for lane and byte for byte.
//!
//! The oracle below is that shuffle, kept as test code: every row is
//! materialised as a `Vec<Value>`, routed by [`route`], written through
//! the row codec ([`encode_row`]) into a per-target buffer, and decoded
//! back with [`decode_table`] — so a null slot comes out holding the
//! builder's default, whatever payload it held going in. The shuffle under
//! test decodes nothing, so sharing the decoder leaves the oracle
//! independent of it. Under a budget it
//! spills the largest buffer at the same points the production shuffle
//! checks, so the two must journal the same spill sequence.
//!
//! Inputs are one to four random tables over all five types with nulls,
//! garbage under the nulls, NaN payloads, ±0.0, `""` and multi-byte
//! UTF-8 (the generators of [`crate::group::oracle`]); one to eight
//! targets, keyed or keyless; budgets from zero to a gigabyte.
//! "Identical" means, lane by lane, equal validity and equal data — floats
//! by bit pattern, null slots included — plus equal `bytes_moved` and an
//! equal `SpillStarted`/`SpillMerged` sequence. Scale the sweep with
//! `PROPTEST_CASES` (default 32).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use toreador_data::schema::Schema;
use toreador_data::table::Table;
use toreador_data::value::{Row, Value};

use super::{route_rows, shuffle_spillable, ShuffleOutput, ROUTE_SEED, SPILL_CHECK_ROWS};
use crate::codec::{
    decode_table, encode_row_at, lanes, row_widths, TAG_BOOL, TAG_FLOAT, TAG_INT, TAG_NULL,
    TAG_STR, TAG_TS,
};
use crate::error::{FlowError, Result};
use crate::group::oracle::{identical, proptest_cases, random_types, table_of};
use crate::spill::{SpillHandle, SpillManager, SPILL_OP_SHUFFLE};
use crate::trace::{TraceEventKind, TraceJournal};

// ------------------------------------------------------------- the oracle

/// Append one value as a tagged cell.
pub(crate) fn encode_value(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(b) => buf.extend_from_slice(&[TAG_BOOL, *b as u8]),
        Value::Int(i) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&x.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Timestamp(t) => {
            buf.push(TAG_TS);
            buf.extend_from_slice(&t.to_le_bytes());
        }
    }
}

/// Encode a materialised row (width-prefixed).
pub(crate) fn encode_row(row: &Row, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        encode_value(v, buf);
    }
}

/// The row-at-a-time route: a seeded rotate-xor of the key values' hash
/// codes, modulo `targets`.
pub(crate) fn route(row: &Row, key_idx: &[usize], targets: usize) -> usize {
    let mut h: u64 = ROUTE_SEED;
    for &k in key_idx {
        h = h.rotate_left(5) ^ row[k].hash_code();
    }
    (h % targets as u64) as usize
}

/// The byte-codec shuffle: rows encoded into per-target buffers, the
/// largest buffer spilled whenever the budget is exceeded at a check, and
/// each target decoded from its runs plus its buffered tail.
pub(crate) fn oracle_shuffle(
    inputs: &[Table],
    schema: &Schema,
    keys: &[String],
    targets: usize,
    spill: Option<(&SpillManager, &TraceJournal)>,
) -> Result<ShuffleOutput> {
    let key_idx: Vec<usize> = keys
        .iter()
        .map(|k| schema.index_of(k).map_err(FlowError::Data))
        .collect::<Result<Vec<_>>>()?;
    let mut buffers: Vec<Vec<u8>> = vec![Vec::new(); targets];
    let mut counts = vec![0usize; targets];
    let mut spilled: Vec<Vec<SpillHandle>> = (0..targets).map(|_| Vec::new()).collect();
    let mut spilled_bytes = 0u64;
    let check = |buffers: &mut Vec<Vec<u8>>,
                 counts: &mut Vec<usize>,
                 spilled: &mut Vec<Vec<SpillHandle>>,
                 spilled_bytes: &mut u64|
     -> Result<()> {
        let Some((manager, journal)) = spill else {
            return Ok(());
        };
        while buffers.iter().map(Vec::len).sum::<usize>() > manager.budget_bytes() as usize {
            let Some((target, _)) = buffers
                .iter()
                .enumerate()
                .filter(|(_, b)| !b.is_empty())
                .max_by_key(|(_, b)| b.len())
            else {
                break;
            };
            let buf = std::mem::take(&mut buffers[target]);
            let bytes = buf.len() as u64;
            let rows = std::mem::take(&mut counts[target]);
            *spilled_bytes += bytes;
            let run = decode_table(schema, rows, &buf)?;
            let handle = manager.spill_table(&run)?;
            journal.record(TraceEventKind::SpillStarted {
                op: SPILL_OP_SHUFFLE.to_owned(),
                target,
                rows: rows as u64,
                bytes,
            });
            spilled[target].push(handle);
        }
        Ok(())
    };
    for t in inputs {
        for (i, row) in t.iter_rows().enumerate() {
            let target = if key_idx.is_empty() {
                0
            } else {
                route(&row, &key_idx, targets)
            };
            encode_row(&row, &mut buffers[target]);
            counts[target] += 1;
            if (i + 1) % SPILL_CHECK_ROWS == 0 {
                check(&mut buffers, &mut counts, &mut spilled, &mut spilled_bytes)?;
            }
        }
        check(&mut buffers, &mut counts, &mut spilled, &mut spilled_bytes)?;
    }
    let bytes_moved = buffers.iter().map(|b| b.len() as u64).sum::<u64>() + spilled_bytes;
    let mut partitions = Vec::with_capacity(targets);
    for (target, (buf, count)) in buffers.into_iter().zip(counts).enumerate() {
        let tail = decode_table(schema, count, &buf)?;
        let runs = std::mem::take(&mut spilled[target]);
        if runs.is_empty() {
            partitions.push(tail);
            continue;
        }
        let (manager, journal) = spill.expect("spilled runs imply a spill manager");
        let mut chunks = Vec::new();
        let mut merged_bytes = 0u64;
        let n_runs = runs.len();
        for handle in runs {
            merged_bytes += handle.bytes();
            chunks.push(manager.read_back(handle)?);
        }
        chunks.push(tail);
        journal.record(TraceEventKind::SpillMerged {
            op: SPILL_OP_SHUFFLE.to_owned(),
            target,
            runs: n_runs,
            rows: chunks.iter().map(|c| c.num_rows() as u64).sum(),
            bytes: merged_bytes,
        });
        partitions.push(Table::concat(&chunks)?);
    }
    Ok(ShuffleOutput {
        partitions,
        bytes_moved,
    })
}

// ------------------------------------------------------------- the proofs

/// One to four inputs over one random schema, sized so that some cross a
/// spill check (`SPILL_CHECK_ROWS`) and some are empty.
fn random_inputs(rng: &mut StdRng) -> Vec<Table> {
    let types = random_types(rng, 1, 5);
    (0..rng.gen_range(1..=4))
        .map(|_| {
            let rows = match rng.gen_range(0..4) {
                0 => 0,
                1 => rng.gen_range(SPILL_CHECK_ROWS - 2..SPILL_CHECK_ROWS * 2 + 3),
                _ => rng.gen_range(1..200),
            };
            table_of(&types, rows, "c", rng)
        })
        .collect()
}

/// Zero to three key columns, or none at all (a gather).
fn random_keys(t: &Table, rng: &mut StdRng) -> Vec<String> {
    let names: Vec<String> = t.schema().names().iter().map(|s| s.to_string()).collect();
    let mut keys: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(0..=3) {
        let n = names[rng.gen_range(0..names.len())].clone();
        if !keys.contains(&n) {
            keys.push(n);
        }
    }
    keys
}

fn same_output(got: &ShuffleOutput, want: &ShuffleOutput) -> std::result::Result<(), String> {
    if got.bytes_moved != want.bytes_moved {
        return Err(format!("bytes {} vs {}", got.bytes_moved, want.bytes_moved));
    }
    if got.partitions.len() != want.partitions.len() {
        return Err("partition counts differ".to_owned());
    }
    for (i, (g, w)) in got.partitions.iter().zip(&want.partitions).enumerate() {
        identical(g, w, &[]).map_err(|e| format!("partition {i}: {e}"))?;
    }
    Ok(())
}

/// The spill events a journal holds, as `(kind, target, rows, bytes)`.
fn spill_events(journal: &TraceJournal) -> Vec<(&'static str, usize, u64, u64)> {
    journal
        .snapshot()
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceEventKind::SpillStarted {
                target,
                rows,
                bytes,
                ..
            } => Some(("started", *target, *rows, *bytes)),
            TraceEventKind::SpillMerged {
                target,
                rows,
                bytes,
                ..
            } => Some(("merged", *target, *rows, *bytes)),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    #[test]
    fn row_widths_match_the_encoder(seed in 0u64..u64::MAX, rows in 0usize..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = table_of(&random_types(&mut rng, 1, 6), rows, "c", &mut rng);
        let lanes = lanes(&t);
        let widths = row_widths(&t, 0..rows);
        for (i, &w) in widths.iter().enumerate() {
            let mut buf = Vec::new();
            encode_row_at(&lanes, i, &mut buf);
            prop_assert_eq!(w, buf.len(), "row {}", i);
        }
        let lo = rng.gen_range(0..=rows);
        let hi = rng.gen_range(lo..=rows);
        prop_assert_eq!(row_widths(&t, lo..hi), widths[lo..hi].to_vec());
    }

    #[test]
    fn shuffle_matches_the_byte_codec_oracle(seed in 0u64..u64::MAX, targets in 1usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = random_inputs(&mut rng);
        let keys = random_keys(&inputs[0], &mut rng);
        let schema = inputs[0].schema().clone();
        let got = shuffle_spillable(inputs.clone(), &schema, &keys, targets, None).unwrap();
        let want = oracle_shuffle(&inputs, &schema, &keys, targets, None).unwrap();
        prop_assert_eq!(same_output(&got, &want), Ok(()), "keys {:?}, {} targets", keys, targets);
    }

    #[test]
    fn spills_match_the_byte_codec_oracle(seed in 0u64..u64::MAX, targets in 1usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = random_inputs(&mut rng);
        let keys = random_keys(&inputs[0], &mut rng);
        let schema = inputs[0].schema().clone();
        for budget in [0u64, 1, 512, 4 << 10, 1 << 30] {
            let run = |side: &str, f: &dyn Fn(&SpillManager, &TraceJournal) -> ShuffleOutput| {
                let dir = std::env::temp_dir().join(format!(
                    "toreador-shuffle-oracle-{}-{seed}-{budget}-{side}",
                    std::process::id()
                ));
                let manager = SpillManager::new(budget, dir);
                let journal = TraceJournal::new();
                let out = f(&manager, &journal);
                (out, spill_events(&journal))
            };
            let (got, got_events) = run("scatter", &|m, j| {
                shuffle_spillable(inputs.clone(), &schema, &keys, targets, Some((m, j))).unwrap()
            });
            let (want, want_events) = run("codec", &|m, j| {
                oracle_shuffle(&inputs, &schema, &keys, targets, Some((m, j))).unwrap()
            });
            prop_assert_eq!(same_output(&got, &want), Ok(()), "budget {}, keys {:?}", budget, keys);
            prop_assert_eq!(got_events, want_events, "budget {}, keys {:?}", budget, keys);
        }
    }

    #[test]
    fn columnar_shuffle_routing_matches_row_routing(
        rows in 1usize..200,
        cols in 1usize..6,
        seed in 0u64..500,
        targets in 1usize..9,
    ) {
        use toreador_data::generate::random_table;

        let t = random_table(rows, cols, seed);
        let key_idx: Vec<usize> = (0..cols).step_by(2).collect();
        let routes = route_rows(&t, &key_idx, targets).unwrap();
        for (i, row) in t.iter_rows().enumerate() {
            prop_assert_eq!(routes[i] as usize, route(&row, &key_idx, targets), "row {}", i);
        }
    }
}
