//! The shared partition codec: tagged cells, row and lane layouts, CRC
//! framing.
//!
//! Two subsystems persist partitioned rows as bytes — stage-boundary
//! checkpointing ([`crate::checkpoint`]) and out-of-core spilling
//! ([`crate::spill`]) — and the shuffle ([`crate::shuffle`]) reports its
//! cost in the same bytes. They must stay byte-identical: a checkpointed
//! wave and a spilled run are the same cells through the same encoder, and
//! the regression tests below pin that down. This module is the single
//! definition of
//!
//! - the **tagged cell** (`[tag u8][payload]`, one tag per type, null as a
//!   bare tag), encoded straight out of the native columns
//!   ([`encode_cell`]) and measured without encoding ([`row_widths`]);
//! - the two layouts built from it: the **row** layout
//!   (`[width u16 LE][cell]*` per row, [`encode_table`]/[`decode_table`]),
//!   which is a checkpoint wave's partition body, and the **lane** layout
//!   (one column's cells in row order, [`encode_lane`]/[`decode_lane`]),
//!   which is one frame of a spill file;
//! - the **one cell decoder** both read paths share. It appends each cell
//!   straight into its column's [`ColumnBuilder`]: no `Value` row is
//!   built, and a text cell costs no `String`. Truncation, trailing bytes,
//!   an unknown tag, a tag of the wrong type, a bool byte other than 0 or
//!   1, invalid UTF-8, a row width that differs from the schema's and a
//!   null in a required field are all a classified [`FlowError::Codec`].
//!   Counts come from headers the decoder cannot trust, so builders are
//!   sized by what the payload can hold, never by a count alone;
//! - the `[len u32 LE][crc32 u32 LE][payload]` frame used by wave files
//!   and spill files alike (CRC-32 from [`toreador_store::crc`]), and
//! - the **atomic publish discipline** ([`write_atomic`]/[`sync_dir`]):
//!   temp-write + fsync + rename + directory fsync, as in `toreador-store`.
//!
//! Framing and I/O helpers return plain error payloads (`FrameError`,
//! message strings) so each caller can keep its own error vocabulary —
//! checkpointing maps them to [`FlowError::Checkpoint`], spilling to
//! [`FlowError::Spill`] — without this module depending on either.

use std::ops::Range;
use std::path::Path;

use toreador_data::column::{Column, ColumnBuilder, LaneRef, Validity};
use toreador_data::schema::{Field, Schema};
use toreador_data::table::Table;
use toreador_data::value::{DataType, Value};
use toreador_store::crc::crc32;

use crate::error::{FlowError, Result};

pub(crate) const TAG_NULL: u8 = 0;
pub(crate) const TAG_BOOL: u8 = 1;
pub(crate) const TAG_INT: u8 = 2;
pub(crate) const TAG_FLOAT: u8 = 3;
pub(crate) const TAG_STR: u8 = 4;
pub(crate) const TAG_TS: u8 = 5;

/// One column borrowed as its lane plus validity, for encoding rows (or
/// whole lanes) straight out of the native columns without building
/// `Value`s.
pub type Lane<'a> = (LaneRef<'a>, &'a Validity);

/// Borrow every column of `t` as a [`Lane`].
pub fn lanes(t: &Table) -> Vec<Lane<'_>> {
    t.columns()
        .iter()
        .map(|c| (c.lane(), c.validity()))
        .collect()
}

/// Encode cell `i` of one lane as a tagged cell (null validity encodes as
/// the null tag). This is the unit both the row layout and a spill file's
/// lane frames are built from, which is what keeps the two byte-identical
/// by construction.
pub fn encode_cell(lane: &Lane<'_>, i: usize, buf: &mut Vec<u8>) {
    let (data, validity) = lane;
    if !validity.get(i) {
        buf.push(TAG_NULL);
        return;
    }
    match data {
        LaneRef::Bool(d) => buf.extend_from_slice(&[TAG_BOOL, d[i] as u8]),
        LaneRef::Int(d) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&d[i].to_le_bytes());
        }
        LaneRef::Float(d) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&d[i].to_le_bytes());
        }
        LaneRef::Str(d) => {
            let s = d.bytes(i);
            buf.push(TAG_STR);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s);
        }
        LaneRef::Timestamp(d) => {
            buf.push(TAG_TS);
            buf.extend_from_slice(&d[i].to_le_bytes());
        }
    }
}

/// Encode row `i` of a table: its width as `u16` LE, then one tagged cell
/// per column.
pub fn encode_row_at(lanes: &[Lane<'_>], i: usize, buf: &mut Vec<u8>) {
    buf.extend_from_slice(&(lanes.len() as u16).to_le_bytes());
    for lane in lanes {
        encode_cell(lane, i, buf);
    }
}

/// The encoded width of each row in `rows` of `t` — exactly the length
/// [`encode_row_at`] writes for it — by arithmetic instead of encoding: 2
/// for the width prefix, then per cell 1 for a null, 2 for a bool, 9 for an
/// int, float or timestamp, and 5 plus the byte length for a string.
pub fn row_widths(t: &Table, rows: Range<usize>) -> Vec<usize> {
    let mut fixed = 2;
    let mut widths = vec![0; rows.len()];
    for col in t.columns() {
        let validity = col.validity();
        let cell = match col.lane() {
            LaneRef::Str(d) => {
                for (w, i) in widths.iter_mut().zip(rows.clone()) {
                    *w += if validity.get(i) {
                        5 + d.bytes(i).len()
                    } else {
                        1
                    };
                }
                continue;
            }
            LaneRef::Bool(_) => 2,
            LaneRef::Int(_) | LaneRef::Float(_) | LaneRef::Timestamp(_) => 9,
        };
        if validity.null_count() == 0 {
            fixed += cell;
        } else {
            for (w, i) in widths.iter_mut().zip(rows.clone()) {
                *w += if validity.get(i) { cell } else { 1 };
            }
        }
    }
    for w in &mut widths {
        *w += fixed;
    }
    widths
}

/// Encode every row of a table in the row layout. This is the checkpoint
/// wire format: a wave partition persists as its row count plus this byte
/// stream.
pub fn encode_table(t: &Table, buf: &mut Vec<u8>) {
    let lanes = lanes(t);
    for i in 0..t.num_rows() {
        encode_row_at(&lanes, i, buf);
    }
}

/// Decode `count` rows of `schema` out of the row layout, rejecting
/// trailing bytes — the inverse of [`encode_table`].
pub fn decode_table(schema: &Schema, count: usize, bytes: &[u8]) -> Result<Table> {
    let fields = schema.fields();
    // A row takes at least its width prefix plus a tag per cell.
    let cap = count.min(bytes.len() / (2 + fields.len()));
    let mut columns: Vec<ColumnBuilder> = fields
        .iter()
        .map(|f| ColumnBuilder::with_capacity(f.data_type, cap))
        .collect();
    let mut buf = bytes;
    for _ in 0..count {
        let width = u16::from_le_bytes(take(&mut buf, 2, "row")?.try_into().expect("2 bytes"));
        if usize::from(width) != fields.len() {
            return Err(FlowError::Codec(format!(
                "row of width {width} in a {}-field schema",
                fields.len()
            )));
        }
        for (field, col) in fields.iter().zip(&mut columns) {
            decode_cell(&mut buf, field, col)?;
        }
    }
    no_trailing(buf, "table")?;
    let columns = columns.into_iter().map(ColumnBuilder::finish).collect();
    Ok(Table::new(schema.clone(), columns)?)
}

/// Encode one whole lane (`rows` cells, in row order) — the payload of
/// one lane frame in a spill file. Cell `i` is byte-identical to what
/// [`encode_row_at`] writes for that column in row `i`.
pub fn encode_lane(lane: &Lane<'_>, rows: usize, buf: &mut Vec<u8>) {
    for i in 0..rows {
        encode_cell(lane, i, buf);
    }
}

/// Decode `rows` cells of `field` out of one lane payload — the inverse of
/// [`encode_lane`]. Rejects trailing bytes for the same reason
/// [`decode_table`] does: a lane payload is either exactly its lane or
/// corrupt.
pub fn decode_lane(field: &Field, rows: usize, bytes: &[u8]) -> Result<Column> {
    // A cell takes at least its tag.
    let mut col = ColumnBuilder::with_capacity(field.data_type, rows.min(bytes.len()));
    let mut buf = bytes;
    for _ in 0..rows {
        decode_cell(&mut buf, field, &mut col)?;
    }
    no_trailing(buf, "lane")?;
    Ok(col.finish())
}

/// The one cell decoder: read a tagged cell of `field` off the front of
/// `buf` and append it to `out`. A null appends the builder's default.
fn decode_cell(buf: &mut &[u8], field: &Field, out: &mut ColumnBuilder) -> Result<()> {
    let tag = take(buf, 1, "cell")?[0];
    if tag == TAG_NULL {
        if !field.nullable {
            return Err(FlowError::Codec(format!(
                "null in required field {:?}",
                field.name
            )));
        }
        out.push_null();
        return Ok(());
    }
    let want = match field.data_type {
        DataType::Bool => TAG_BOOL,
        DataType::Int => TAG_INT,
        DataType::Float => TAG_FLOAT,
        DataType::Str => TAG_STR,
        DataType::Timestamp => TAG_TS,
    };
    if tag != want {
        return Err(FlowError::Codec(if tag > TAG_TS {
            format!("unknown value tag {tag}")
        } else {
            format!(
                "value tag {tag} in {} field {:?}",
                field.data_type.name(),
                field.name
            )
        }));
    }
    let word = |buf: &mut &[u8]| -> Result<[u8; 8]> {
        Ok(take(buf, 8, "cell")?.try_into().expect("8 bytes"))
    };
    match field.data_type {
        DataType::Bool => match take(buf, 1, "cell")?[0] {
            b @ (0 | 1) => out.push(&Value::Bool(b == 1)),
            b => return Err(FlowError::Codec(format!("bool cell holds byte {b}"))),
        },
        DataType::Int => out.push(&Value::Int(i64::from_le_bytes(word(buf)?))),
        DataType::Float => out.push(&Value::Float(f64::from_le_bytes(word(buf)?))),
        DataType::Timestamp => out.push(&Value::Timestamp(i64::from_le_bytes(word(buf)?))),
        DataType::Str => {
            let len = u32::from_le_bytes(take(buf, 4, "cell")?.try_into().expect("4 bytes"));
            let text = std::str::from_utf8(take(buf, len as usize, "cell")?)
                .map_err(|_| FlowError::Codec("invalid utf8 in text cell".to_owned()))?;
            out.push_str(text)
        }
    }?;
    Ok(())
}

/// Split `n` bytes off the front of `buf`, or fail as a truncated `what`.
fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(FlowError::Codec(format!("truncated {what}")));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn no_trailing(rest: &[u8], what: &str) -> Result<()> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(FlowError::Codec(format!(
            "trailing bytes after decoding {what}"
        )))
    }
}

// ---------------------------------------------------------------------------
// CRC framing: `[len u32 LE][crc32 u32 LE][payload]`.
// ---------------------------------------------------------------------------

/// Why a frame failed to parse. Callers map this into their own error
/// vocabulary; [`FrameError::describe`] is the wording both the wave-file
/// and spill-file diagnostics embed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    TruncatedHeader,
    TruncatedPayload,
    CrcMismatch,
}

impl FrameError {
    pub fn describe(&self) -> &'static str {
        match self {
            FrameError::TruncatedHeader => "truncated frame header",
            FrameError::TruncatedPayload => "truncated frame payload",
            FrameError::CrcMismatch => "frame crc mismatch",
        }
    }
}

/// Append one CRC-framed record to `out`.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Pop one CRC-checked frame off the front of `bytes`.
pub fn take_frame<'a>(bytes: &mut &'a [u8]) -> std::result::Result<&'a [u8], FrameError> {
    if bytes.len() < 8 {
        return Err(FrameError::TruncatedHeader);
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if bytes.len() < 8 + len {
        return Err(FrameError::TruncatedPayload);
    }
    let payload = &bytes[8..8 + len];
    if crc32(payload) != crc {
        return Err(FrameError::CrcMismatch);
    }
    *bytes = &bytes[8 + len..];
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Atomic publish (the store WAL conventions). Errors come back as the
// message string the checkpoint layer has always produced, so each caller
// wraps them in its own error variant without changing any diagnostics.
// ---------------------------------------------------------------------------

/// Best-effort POSIX directory fsync, as in `toreador-store`. Routed
/// through the [`toreador_store::io`] seam so disk chaos can intercept.
pub fn sync_dir(dir: &Path) {
    let _ = toreador_store::io::io_for(dir).sync_dir(dir);
}

/// Atomically publish `bytes` at `path`: temp-write + fsync + rename + dir
/// fsync. A reader never observes a torn file under its final name, and a
/// failure at any step removes the temp file — ENOSPC mid-publish leaves
/// no `.tmp` orphan behind.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::result::Result<(), String> {
    let io_err = |what: &str, p: &Path, e: std::io::Error| format!("{what} {}: {e}", p.display());
    let dir = path
        .parent()
        .ok_or_else(|| format!("no parent dir for {}", path.display()))?;
    let io = toreador_store::io::io_for(path);
    let tmp = path.with_extension("tmp");
    let f = io.create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
    if let Err(e) = f.write_all_at(0, bytes) {
        let _ = io.remove_file(&tmp);
        return Err(io_err("write", &tmp, e));
    }
    if let Err(e) = f.sync_all() {
        let _ = io.remove_file(&tmp);
        return Err(io_err("fsync", &tmp, e));
    }
    if let Err(e) = io.rename(&tmp, path) {
        let _ = io.remove_file(&tmp);
        return Err(io_err("rename", path, e));
    }
    let _ = io.sync_dir(dir);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::oracle::{identical, proptest_cases, random_types, table_of};
    use crate::shuffle::oracle::encode_row;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::fs;
    use toreador_data::generate::random_table;

    #[test]
    fn frames_round_trip_and_detect_damage() {
        let mut out = Vec::new();
        push_frame(&mut out, b"alpha");
        push_frame(&mut out, b"");
        push_frame(&mut out, b"omega");
        let mut rest = out.as_slice();
        assert_eq!(take_frame(&mut rest).unwrap(), b"alpha");
        assert_eq!(take_frame(&mut rest).unwrap(), b"");
        assert_eq!(take_frame(&mut rest).unwrap(), b"omega");
        assert_eq!(take_frame(&mut rest), Err(FrameError::TruncatedHeader));
        // Flip one payload byte: CRC mismatch.
        let mut bad = out.clone();
        bad[8] ^= 0xFF;
        assert_eq!(
            take_frame(&mut bad.as_slice()),
            Err(FrameError::CrcMismatch)
        );
        // Truncate mid-payload.
        let short = &out[..10];
        assert_eq!(
            take_frame(&mut { short }),
            Err(FrameError::TruncatedPayload)
        );
    }

    /// The regression the factoring exists for: the cells of a spill file's
    /// lane frames are exactly the cells of the row layout — and
    /// therefore of the checkpoint wire format. Row `i` of `encode_table`
    /// is the 2-byte width prefix followed by the lanes' cells in column
    /// order, and the decoded lane extents, re-interleaved by row, are the
    /// checkpoint stream.
    #[test]
    fn lane_cells_are_byte_identical_to_the_row_codec() {
        let t = random_table(120, 5, 31);
        let lanes = lanes(&t);
        for (i, row) in t.iter_rows().enumerate() {
            let mut by_row = Vec::new();
            encode_row(&row, &mut by_row);
            let mut by_cells = (lanes.len() as u16).to_le_bytes().to_vec();
            for lane in &lanes {
                encode_cell(lane, i, &mut by_cells);
            }
            assert_eq!(by_row, by_cells, "row {i}");
        }
        let mut by_table = Vec::new();
        encode_table(&t, &mut by_table);
        let decoded: Vec<Column> = lanes
            .iter()
            .zip(t.schema().fields())
            .map(|(lane, field)| {
                let mut extent = Vec::new();
                encode_lane(lane, t.num_rows(), &mut extent);
                decode_lane(field, t.num_rows(), &extent).unwrap()
            })
            .collect();
        let mut interleaved = Vec::new();
        for i in 0..t.num_rows() {
            interleaved.extend_from_slice(&(decoded.len() as u16).to_le_bytes());
            for col in &decoded {
                encode_cell(&(col.lane(), col.validity()), i, &mut interleaved);
            }
        }
        assert_eq!(by_table, interleaved);
    }

    #[test]
    fn lane_extents_round_trip_and_reject_trailing_bytes() {
        let t = random_table(90, 4, 13);
        let fields = t.schema().fields();
        for ((lane, col), field) in lanes(&t).iter().zip(t.columns()).zip(fields) {
            let mut bytes = Vec::new();
            encode_lane(lane, t.num_rows(), &mut bytes);
            let back = decode_lane(field, t.num_rows(), &bytes).unwrap();
            assert_eq!(
                format!("{:?}", back.iter_values().collect::<Vec<_>>()),
                format!("{:?}", col.iter_values().collect::<Vec<_>>())
            );
            assert!(decode_lane(field, t.num_rows() - 1, &bytes).is_err());
            assert!(decode_lane(field, t.num_rows() + 1, &bytes).is_err());
        }
    }

    #[test]
    fn cells_that_do_not_fit_their_field_are_codec_errors() {
        let required = Field::required("id", DataType::Int);
        let nullable = Field::new("x", DataType::Float);
        let schema = Schema::new(vec![required.clone()]).unwrap();
        let int_cell = [&[TAG_INT][..], &7i64.to_le_bytes()].concat();
        let cases: [(&Field, Vec<u8>, &str); 5] = [
            (&required, vec![TAG_NULL], "null in required field \"id\""),
            (
                &nullable,
                int_cell.clone(),
                "value tag 2 in Float field \"x\"",
            ),
            (&nullable, vec![99], "unknown value tag 99"),
            (
                &Field::new("b", DataType::Bool),
                vec![TAG_BOOL, 2],
                "bool cell holds byte 2",
            ),
            (
                &Field::new("s", DataType::Str),
                [&[TAG_STR][..], &2u32.to_le_bytes(), &[0xC3, 0x28]].concat(),
                "invalid utf8",
            ),
        ];
        for (field, cell, want) in cases {
            match decode_lane(field, 1, &cell) {
                Err(FlowError::Codec(msg)) => assert!(msg.contains(want), "{msg} vs {want}"),
                other => panic!("{want}: got {other:?}"),
            }
        }
        // The row layout checks its width prefix against the schema.
        let row = |width: u16| [&width.to_le_bytes()[..], &int_cell].concat();
        assert!(decode_table(&schema, 1, &row(1)).is_ok());
        match decode_table(&schema, 1, &row(2)) {
            Err(FlowError::Codec(msg)) => assert!(msg.contains("width 2"), "{msg}"),
            other => panic!("width mismatch: got {other:?}"),
        }
    }

    /// A count comes from a header the decoder cannot trust: a claim far
    /// beyond what the payload holds is a truncation, not an allocation.
    #[test]
    fn counts_beyond_the_payload_are_truncation_not_allocation() {
        let field = Field::new("s", DataType::Str);
        let schema = Schema::new(vec![field.clone()]).unwrap();
        for count in [3, 1 << 40, (1 << 62) - 1, usize::MAX] {
            let lane = decode_lane(&field, count, &[TAG_NULL; 2]);
            assert!(matches!(lane, Err(FlowError::Codec(ref m)) if m == "truncated cell"));
            let table = decode_table(&schema, count, &[1, 0, TAG_NULL, 1, 0, TAG_NULL]);
            assert!(matches!(table, Err(FlowError::Codec(ref m)) if m == "truncated row"));
        }
    }

    /// `t` with every null slot holding its builder's default, built a row
    /// at a time through `Value`s: what a decoder must hand back.
    fn defaults_under_nulls(t: &Table) -> Table {
        let columns = t
            .columns()
            .iter()
            .map(|c| Column::from_values(c.data_type(), &c.iter_values().collect::<Vec<_>>()))
            .collect::<toreador_data::error::Result<Vec<_>>>()
            .unwrap();
        Table::new(t.schema().clone(), columns).unwrap()
    }

    fn extents(t: &Table) -> Vec<Vec<u8>> {
        lanes(t)
            .iter()
            .map(|lane| {
                let mut extent = Vec::new();
                encode_lane(lane, t.num_rows(), &mut extent);
                extent
            })
            .collect()
    }

    /// Decoding `bytes` fails, or yields a table whose encoding is `bytes`.
    fn canonical_table(schema: &Schema, rows: usize, bytes: &[u8]) -> bool {
        decode_table(schema, rows, bytes).map_or(true, |t| {
            let mut again = Vec::new();
            encode_table(&t, &mut again);
            again == bytes
        })
    }

    /// Decoding `bytes` fails, or yields a lane whose encoding is `bytes`.
    fn canonical_lane(field: &Field, rows: usize, bytes: &[u8]) -> bool {
        decode_lane(field, rows, bytes).map_or(true, |c| {
            let mut again = Vec::new();
            encode_lane(&(c.lane(), c.validity()), rows, &mut again);
            again == bytes
        })
    }

    // Inputs come from the hash-kernel generators: all five types, nulls
    // with garbage under them, NaN payloads, ±0.0, "" and multi-byte
    // UTF-8. Scale the sweep with `PROPTEST_CASES` (default 32).
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

        #[test]
        fn tables_and_lanes_round_trip_bit_for_bit(seed in 0u64..u64::MAX, rows in 0usize..80) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = table_of(&random_types(&mut rng, 1, 5), rows, "c", &mut rng);
            let want = defaults_under_nulls(&t);
            let mut body = Vec::new();
            encode_table(&t, &mut body);
            let back = decode_table(t.schema(), rows, &body).unwrap();
            prop_assert_eq!(identical(&back, &want, &[]), Ok(()));
            let columns = extents(&t)
                .iter()
                .zip(t.schema().fields())
                .map(|(extent, field)| decode_lane(field, rows, extent).unwrap())
                .collect();
            let back = Table::new(t.schema().clone(), columns).unwrap();
            prop_assert_eq!(identical(&back, &want, &[]), Ok(()));
        }

        #[test]
        fn damaged_bodies_fail_or_decode_canonically(seed in 0u64..u64::MAX, rows in 0usize..16) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = table_of(&random_types(&mut rng, 1, 5), rows, "c", &mut rng);
            let schema = t.schema();
            let mut body = Vec::new();
            encode_table(&t, &mut body);
            for cut in 0..body.len() {
                prop_assert!(decode_table(schema, rows, &body[..cut]).is_err(), "cut {}", cut);
            }
            for k in 0..body.len() {
                let mut flipped = body.clone();
                flipped[k] ^= rng.gen_range(1..=255u8);
                prop_assert!(canonical_table(schema, rows, &flipped), "flip at {}", k);
            }
            for (extent, field) in extents(&t).iter().zip(schema.fields()) {
                for cut in 0..extent.len() {
                    prop_assert!(decode_lane(field, rows, &extent[..cut]).is_err(), "cut {}", cut);
                }
                for k in 0..extent.len() {
                    let mut flipped = extent.clone();
                    flipped[k] ^= rng.gen_range(1..=255u8);
                    prop_assert!(canonical_lane(field, rows, &flipped), "flip at {}", k);
                }
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic(seed in 0u64..u64::MAX, len in 0usize..256) {
            let mut rng = StdRng::seed_from_u64(seed);
            let fields: Vec<Field> = random_types(&mut rng, 1, 5)
                .into_iter()
                .enumerate()
                .map(|(i, ty)| Field { nullable: rng.gen_bool(0.5), ..Field::new(format!("c{i}"), ty) })
                .collect();
            let schema = Schema::new(fields).unwrap();
            // Bias towards tags and small lengths so decoding gets past the
            // first cell.
            let bytes: Vec<u8> = (0..len)
                .map(|_| if rng.gen_bool(0.5) { rng.gen_range(0..7) } else { rng.gen() })
                .collect();
            let count = [0, 1, 2, rng.gen_range(0..64), 1 << 40, usize::MAX][rng.gen_range(0..6)];
            let _ = decode_table(&schema, count, &bytes);
            let _ = decode_lane(&schema.fields()[0], count, &bytes);
        }
    }

    #[test]
    fn write_atomic_publishes_and_never_leaves_a_tmp() {
        let dir = std::env::temp_dir().join(format!("toreador-codec-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        write_atomic(&path, b"payload").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload");
        assert!(!path.with_extension("tmp").exists());
        // Re-publish overwrites atomically.
        write_atomic(&path, b"payload2").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload2");
        let _ = fs::remove_dir_all(&dir);
    }
}
