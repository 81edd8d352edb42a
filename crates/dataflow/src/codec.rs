//! The shared partition codec: tagged values, lane-based rows, CRC framing.
//!
//! Two subsystems persist partitioned rows as bytes — stage-boundary
//! checkpointing ([`crate::checkpoint`]) and the out-of-core pager
//! ([`crate::pager`]) — and the shuffle ([`crate::shuffle`]) reports its
//! cost in the same bytes. They must stay byte-identical: a checkpointed
//! wave and a spilled run are the same rows through the same encoder, and
//! the regression tests below pin that down. This module is the single
//! definition of
//!
//! - the **tagged value codec** (`[tag u8][payload]`, one tag per
//!   [`Value`] variant, null as a bare tag),
//! - the **row codec** (`[width u16 LE][cell]*`), encoded straight out of
//!   the native columns ([`encode_row_at`]/[`encode_cell`]) without
//!   materialising `Value`s, and measured without encoding
//!   ([`row_widths`]),
//! - the **table codec** ([`encode_table`]/[`decode_table`]) — the
//!   checkpoint wire format for one partition,
//! - **CRC32 (IEEE)** and the `[len u32 LE][crc32 u32 LE][payload]` frame
//!   used by wave files and page files alike, and
//! - the **atomic publish discipline** ([`write_atomic`]/[`sync_dir`]):
//!   temp-write + fsync + rename + directory fsync, as in `toreador-store`.
//!
//! Framing and I/O helpers return plain error payloads (`FrameError`,
//! message strings) so each caller can keep its own error vocabulary —
//! checkpointing maps them to [`FlowError::Checkpoint`], the pager to its
//! spill errors — without this module depending on either.

use std::ops::Range;
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use toreador_data::column::{LaneRef, Validity};
use toreador_data::schema::Schema;
use toreador_data::table::{Table, TableBuilder};
use toreador_data::value::{Row, Value};

use crate::error::{FlowError, Result};

pub(crate) const TAG_NULL: u8 = 0;
pub(crate) const TAG_BOOL: u8 = 1;
pub(crate) const TAG_INT: u8 = 2;
pub(crate) const TAG_FLOAT: u8 = 3;
pub(crate) const TAG_STR: u8 = 4;
pub(crate) const TAG_TS: u8 = 5;

/// Decode one tagged value off the front of `buf`.
pub fn decode_value(buf: &mut Bytes) -> Result<Value> {
    let short = || FlowError::Codec("truncated shuffle payload".to_owned());
    if buf.remaining() < 1 {
        return Err(short());
    }
    let tag = buf.get_u8();
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_BOOL => {
            if buf.remaining() < 1 {
                return Err(short());
            }
            Value::Bool(buf.get_u8() != 0)
        }
        TAG_INT => {
            if buf.remaining() < 8 {
                return Err(short());
            }
            Value::Int(buf.get_i64_le())
        }
        TAG_FLOAT => {
            if buf.remaining() < 8 {
                return Err(short());
            }
            Value::Float(buf.get_f64_le())
        }
        TAG_STR => {
            if buf.remaining() < 4 {
                return Err(short());
            }
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len {
                return Err(short());
            }
            let bytes = buf.copy_to_bytes(len);
            Value::Str(
                String::from_utf8(bytes.to_vec())
                    .map_err(|_| FlowError::Codec("invalid utf8 in shuffle payload".to_owned()))?,
            )
        }
        TAG_TS => {
            if buf.remaining() < 8 {
                return Err(short());
            }
            Value::Timestamp(buf.get_i64_le())
        }
        other => return Err(FlowError::Codec(format!("unknown value tag {other}"))),
    })
}

/// Decode one row.
pub fn decode_row(buf: &mut Bytes) -> Result<Row> {
    if buf.remaining() < 2 {
        return Err(FlowError::Codec("truncated shuffle payload".to_owned()));
    }
    let width = buf.get_u16_le() as usize;
    let mut row = Vec::with_capacity(width);
    for _ in 0..width {
        row.push(decode_value(buf)?);
    }
    Ok(row)
}

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

/// Encode cell `i` of one lane as a tagged value — the bytes
/// [`decode_value`] reads back (null validity encodes as the null tag). This
/// is the unit both the row codec and the pager's per-lane extents are
/// built from, which is what keeps the two byte-identical by construction.
pub fn encode_cell(lane: &Lane<'_>, i: usize, buf: &mut BytesMut) {
    let (data, validity) = lane;
    if !validity.get(i) {
        buf.put_u8(TAG_NULL);
        return;
    }
    match data {
        LaneRef::Bool(d) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(d[i] as u8);
        }
        LaneRef::Int(d) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(d[i]);
        }
        LaneRef::Float(d) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64_le(d[i]);
        }
        LaneRef::Str(d) => {
            let s = d.bytes(i);
            buf.put_u8(TAG_STR);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s);
        }
        LaneRef::Timestamp(d) => {
            buf.put_u8(TAG_TS);
            buf.put_i64_le(d[i]);
        }
    }
}

/// Encode row `i` of a table: its width as `u16` LE, then one tagged cell
/// per column — the bytes [`decode_row`] reads back.
pub fn encode_row_at(lanes: &[Lane<'_>], i: usize, buf: &mut BytesMut) {
    buf.put_u16_le(lanes.len() as u16);
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

/// Encode every row of a table through the lane codec. This is the
/// checkpoint wire format: a wave partition persists as its row count plus
/// this byte stream.
pub fn encode_table(t: &Table, buf: &mut BytesMut) {
    let lanes = lanes(t);
    for i in 0..t.num_rows() {
        encode_row_at(&lanes, i, buf);
    }
}

/// Decode `count` rows of `schema` back into a table, rejecting trailing
/// bytes — the inverse of [`encode_table`].
pub fn decode_table(schema: &Schema, count: usize, mut bytes: Bytes) -> Result<Table> {
    let mut builder = TableBuilder::with_capacity(schema.clone(), count);
    for _ in 0..count {
        builder.push_row(decode_row(&mut bytes)?)?;
    }
    if bytes.has_remaining() {
        return Err(FlowError::Codec(
            "trailing bytes after decoding table".to_owned(),
        ));
    }
    Ok(builder.finish()?)
}

/// Encode one whole lane (`rows` cells, in row order) — the pager's
/// per-lane extent payload. Cell `i` is byte-identical to what
/// [`encode_row_at`] writes for that column in row `i`.
pub fn encode_lane(lane: &Lane<'_>, rows: usize, buf: &mut BytesMut) {
    for i in 0..rows {
        encode_cell(lane, i, buf);
    }
}

/// Decode `rows` tagged cells back out of one lane extent — the inverse of
/// [`encode_lane`]. Rejects trailing bytes for the same reason
/// [`decode_table`] does: an extent is either exactly its lane or corrupt.
pub fn decode_lane(rows: usize, mut bytes: Bytes) -> Result<Vec<Value>> {
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        out.push(decode_value(&mut bytes)?);
    }
    if bytes.has_remaining() {
        return Err(FlowError::Codec(
            "trailing bytes after decoding lane".to_owned(),
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE), table-driven. The store crate has its own copy: this codec
// predates the dataflow→store dependency (added for the streaming ack log)
// and keeps its own framing rather than round-tripping payloads through the
// store WAL.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE 802.3) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// CRC framing: `[len u32 LE][crc32 u32 LE][payload]`.
// ---------------------------------------------------------------------------

/// Why a frame failed to parse. Callers map this into their own error
/// vocabulary; [`FrameError::describe`] is the wording both the wave-file
/// and page-file diagnostics embed.
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
    use crate::shuffle::oracle::{encode_row, encode_value};
    use std::fs;
    use toreador_data::generate::random_table;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

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

    /// The regression the factoring exists for: the cell codec used by the
    /// pager's per-lane extents produces exactly the bytes the row codec —
    /// and therefore the checkpoint wire format — produces for the same
    /// cells. Row `i` of `encode_table` is the 2-byte width prefix followed
    /// by the lanes' cell encodings in column order.
    #[test]
    fn lane_cells_are_byte_identical_to_the_row_codec() {
        let t = random_table(120, 5, 31);
        let lanes = lanes(&t);
        for (i, row) in t.iter_rows().enumerate() {
            let mut by_row = BytesMut::new();
            encode_row(&row, &mut by_row);
            let mut by_cells = BytesMut::new();
            by_cells.put_u16_le(lanes.len() as u16);
            for lane in &lanes {
                encode_cell(lane, i, &mut by_cells);
            }
            assert_eq!(by_row.freeze(), by_cells.freeze(), "row {i}");
        }
        // And the whole-table form: lane extents re-interleaved by row are
        // the checkpoint stream.
        let mut by_table = BytesMut::new();
        encode_table(&t, &mut by_table);
        let extents: Vec<Bytes> = lanes
            .iter()
            .map(|l| {
                let mut b = BytesMut::new();
                encode_lane(l, t.num_rows(), &mut b);
                b.freeze()
            })
            .collect();
        let mut interleaved = BytesMut::new();
        let mut cursors: Vec<Bytes> = extents.clone();
        for _ in 0..t.num_rows() {
            interleaved.put_u16_le(lanes.len() as u16);
            for c in cursors.iter_mut() {
                let v = decode_value(c).unwrap();
                encode_value(&v, &mut interleaved);
            }
        }
        assert_eq!(by_table.freeze(), interleaved.freeze());
    }

    #[test]
    fn lane_extents_round_trip_and_reject_trailing_bytes() {
        let t = random_table(90, 4, 13);
        for (lane, col) in lanes(&t).iter().zip(t.columns()) {
            let mut buf = BytesMut::new();
            encode_lane(lane, t.num_rows(), &mut buf);
            let bytes = buf.freeze();
            let vals = decode_lane(t.num_rows(), bytes.clone()).unwrap();
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(format!("{v:?}"), format!("{:?}", col.value(i).unwrap()));
            }
            assert!(decode_lane(t.num_rows() - 1, bytes.clone()).is_err());
            assert!(decode_lane(t.num_rows() + 1, bytes).is_err());
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
