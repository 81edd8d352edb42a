//! Typed columnar storage: immutable lanes shared between views.
//!
//! A [`Column`] stores one attribute of a table as a typed lane plus a
//! validity bitmap. Every lane is an `Arc`-backed buffer seen through an
//! `(offset, len)` window, so cloning or slicing a column shares its bytes
//! instead of copying them: a table handed across a boundary (register,
//! split, scan, a stream window) costs O(columns), not O(rows). A `Str`
//! lane is one `u64` offsets lane plus one byte buffer.
//!
//! Columns are built once through a [`ColumnBuilder`] (plain `Vec`s,
//! appended to in place) and then frozen; nothing ever mutates a shared
//! buffer. Kernels read lanes as slices (`&[T]`, or [`StrLane::get`] for
//! text), and [`Column::value`] materialises one [`Value`] for row-at-a-time
//! callers such as display, statistics and the test oracles.

use std::fmt;
use std::ops::{Deref, Index, Range};
use std::sync::Arc;

use crate::error::{DataError, Result};
use crate::value::{DataType, Value};

/// An immutable, shared lane of fixed-width values: a window
/// `offset..offset + len` onto one reference-counted allocation. Derefs to
/// `&[T]`; [`Buffer::slice`] narrows the window without copying.
pub struct Buffer<T> {
    data: Arc<[T]>,
    offset: usize,
    len: usize,
}

impl<T> Buffer<T> {
    /// The sub-window `start..end` of this view (sharing the allocation).
    /// Panics when the range is out of bounds, as slice indexing does.
    pub fn slice(&self, start: usize, end: usize) -> Buffer<T> {
        assert!(
            start <= end && end <= self.len,
            "buffer slice {start}..{end} out of range for length {}",
            self.len
        );
        Buffer {
            data: Arc::clone(&self.data),
            offset: self.offset + start,
            len: end - start,
        }
    }

    /// True when both views read the same allocation.
    pub fn shares(&self, other: &Buffer<T>) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

impl<T> Clone for Buffer<T> {
    fn clone(&self) -> Self {
        Buffer {
            data: Arc::clone(&self.data),
            offset: self.offset,
            len: self.len,
        }
    }
}

impl<T> Deref for Buffer<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.data[self.offset..self.offset + self.len]
    }
}

impl<T> From<Arc<[T]>> for Buffer<T> {
    fn from(data: Arc<[T]>) -> Self {
        let len = data.len();
        Buffer {
            data,
            offset: 0,
            len,
        }
    }
}

impl<T> From<Vec<T>> for Buffer<T> {
    fn from(data: Vec<T>) -> Self {
        Arc::<[T]>::from(data).into()
    }
}

impl<T> FromIterator<T> for Buffer<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        iter.into_iter().collect::<Arc<[T]>>().into()
    }
}

impl<'a, T> IntoIterator for &'a Buffer<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for Buffer<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for Buffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// An immutable, shared text lane: `len + 1` byte offsets into one UTF-8
/// buffer. Slot `i` is `bytes[offsets[i]..offsets[i + 1]]`; a builder
/// writes a null slot as an empty range. Slicing narrows the offsets
/// window and shares both buffers. `lane[i]` and [`StrLane::get`] borrow
/// a slot as `&str`.
#[derive(Clone)]
pub struct StrLane {
    offsets: Buffer<u64>,
    bytes: Arc<str>,
}

impl StrLane {
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot `i` as a borrowed string. Panics when `i` is out of range.
    pub fn get(&self, i: usize) -> &str {
        let offsets: &[u64] = &self.offsets;
        &self.bytes[offsets[i] as usize..offsets[i + 1] as usize]
    }

    /// Slot `i` as raw UTF-8 bytes: no char-boundary checks, and byte
    /// order is `str` order, so comparisons can run on this.
    pub fn bytes(&self, i: usize) -> &[u8] {
        let offsets: &[u64] = &self.offsets;
        &self.bytes.as_bytes()[offsets[i] as usize..offsets[i + 1] as usize]
    }

    /// Iterate the slots in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The sub-lane `start..end` (sharing both buffers). Panics when the
    /// range is out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> StrLane {
        assert!(
            start <= end && end <= self.len(),
            "lane slice {start}..{end} out of range for length {}",
            self.len()
        );
        StrLane {
            offsets: self.offsets.slice(start, end + 1),
            bytes: Arc::clone(&self.bytes),
        }
    }

    /// True when both views read the same byte buffer.
    pub fn shares(&self, other: &StrLane) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
    }
}

impl Index<usize> for StrLane {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        self.get(i)
    }
}

impl<S: AsRef<str>> FromIterator<S> for StrLane {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut offsets = vec![0u64];
        let mut bytes = String::new();
        for s in iter {
            bytes.push_str(s.as_ref());
            offsets.push(bytes.len() as u64);
        }
        StrLane {
            offsets: offsets.into(),
            bytes: bytes.into(),
        }
    }
}

impl PartialEq for StrLane {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for StrLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Validity bitmap: `true` means the slot holds a value, `false` means null.
///
/// Immutable and shared like the lanes: packed 64-bit words behind an
/// `Arc`, read from a bit offset, so slicing shares the words. A bitmap
/// with no nulls stores no words at all. Equality compares logical bits.
#[derive(Clone)]
pub struct Validity {
    /// `None` when every slot is valid.
    words: Option<Arc<[u64]>>,
    /// Bit position of slot 0 within `words`.
    offset: usize,
    len: usize,
    null_count: usize,
}

impl Validity {
    /// A bitmap of `len` slots, all valid.
    pub fn all_valid(len: usize) -> Self {
        Validity {
            words: None,
            offset: 0,
            len,
            null_count: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn null_count(&self) -> usize {
        self.null_count
    }

    pub fn get(&self, index: usize) -> bool {
        debug_assert!(index < self.len);
        match &self.words {
            None => true,
            Some(words) => {
                let bit = self.offset + index;
                (words[bit / 64] >> (bit % 64)) & 1 == 1
            }
        }
    }

    /// Logical word `w`: slots `64w..64w + 64` of this view, slot `64w + j`
    /// at bit `j`, with bits past `len` zero.
    fn word(&self, w: usize) -> u64 {
        let start = w * 64;
        debug_assert!(start < self.len);
        let n = (self.len - start).min(64);
        let bits = match &self.words {
            None => u64::MAX,
            Some(words) => {
                let bit = self.offset + start;
                let shift = bit % 64;
                let lo = words[bit / 64] >> shift;
                let hi = if shift == 0 {
                    0
                } else {
                    words.get(bit / 64 + 1).copied().unwrap_or(0) << (64 - shift)
                };
                lo | hi
            }
        };
        bits & low_bits(n)
    }

    /// The number of logical words, `len / 64` rounded up.
    fn num_words(&self) -> usize {
        self.len.div_ceil(64)
    }

    /// The bits of `start..end`, sharing this bitmap's words.
    pub fn slice(&self, start: usize, end: usize) -> Validity {
        assert!(start <= end && end <= self.len);
        let len = end - start;
        let Some(words) = &self.words else {
            return Validity::all_valid(len);
        };
        let mut out = Validity {
            words: Some(Arc::clone(words)),
            offset: self.offset + start,
            len,
            null_count: 0,
        };
        let ones: usize = (0..out.num_words())
            .map(|w| out.word(w).count_ones() as usize)
            .sum();
        out.null_count = len - ones;
        if out.null_count == 0 {
            out.words = None;
            out.offset = 0;
        }
        out
    }

    /// Build a bitmap from packed words (bit `i % 64` of word `i / 64` is
    /// slot `i`). Bits past `len` are ignored and the null count is
    /// computed from the bits.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        words.resize(len.div_ceil(64), 0);
        if len % 64 != 0 {
            if let Some(last) = words.last_mut() {
                *last &= low_bits(len % 64);
            }
        }
        let ones: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        let null_count = len - ones;
        Validity {
            words: (null_count > 0).then(|| words.into()),
            offset: 0,
            len,
            null_count,
        }
    }

    /// Word-wise intersection: valid where both inputs are valid. The null
    /// propagation step of every binary batch kernel.
    pub fn and(&self, other: &Validity) -> Validity {
        debug_assert_eq!(self.len, other.len);
        if self.null_count == 0 {
            return other.clone();
        }
        if other.null_count == 0 {
            return self.clone();
        }
        let words = (0..self.num_words())
            .map(|w| self.word(w) & other.word(w))
            .collect();
        Validity::from_words(words, self.len)
    }
}

fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

impl Default for Validity {
    fn default() -> Self {
        Validity::all_valid(0)
    }
}

impl PartialEq for Validity {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.null_count == other.null_count
            && (self.null_count == 0
                || (0..self.num_words()).all(|w| self.word(w) == other.word(w)))
    }
}

impl Eq for Validity {}

impl fmt::Debug for Validity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits: String = (0..self.len)
            .map(|i| if self.get(i) { '1' } else { '0' })
            .collect();
        f.debug_struct("Validity")
            .field("len", &self.len)
            .field("null_count", &self.null_count)
            .field("bits", &bits)
            .finish()
    }
}

impl FromIterator<bool> for Validity {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut b = ValidityBuilder::new();
        for valid in iter {
            b.push(valid);
        }
        b.finish()
    }
}

/// Appends bits into plain words, then freezes into a [`Validity`]. No
/// words are written until the first null, so an all-valid build costs a
/// counter.
#[derive(Debug, Default)]
pub struct ValidityBuilder {
    words: Vec<u64>,
    len: usize,
    null_count: usize,
}

impl ValidityBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn push(&mut self, valid: bool) {
        if self.null_count == 0 {
            if valid {
                self.len += 1;
                return;
            }
            self.materialize();
        }
        let bit = self.len % 64;
        if bit == 0 {
            self.words.push(0);
        }
        if let Some(last) = self.words.last_mut() {
            *last |= (valid as u64) << bit;
        }
        self.null_count += !valid as usize;
        self.len += 1;
    }

    /// Append `n` copies of `valid`.
    fn push_n(&mut self, valid: bool, mut n: usize) {
        let word = if valid { u64::MAX } else { 0 };
        while n > 0 {
            let k = n.min(64);
            self.append_bits(word, k);
            n -= k;
        }
    }

    /// Append every bit of `other`, a word at a time.
    pub fn extend_from(&mut self, other: &Validity) {
        if other.null_count() == 0 {
            self.push_n(true, other.len());
            return;
        }
        for w in 0..other.num_words() {
            let n = (other.len() - w * 64).min(64);
            self.append_bits(other.word(w), n);
        }
    }

    /// Append the low `n` (1..=64) bits of `bits`, slot order from bit 0.
    fn append_bits(&mut self, bits: u64, n: usize) {
        let bits = bits & low_bits(n);
        let ones = bits.count_ones() as usize;
        if self.null_count == 0 && ones == n {
            self.len += n;
            return;
        }
        if self.null_count == 0 {
            self.materialize();
        }
        let shift = self.len % 64;
        if shift == 0 {
            self.words.push(bits);
        } else {
            *self.words.last_mut().expect("partial word") |= bits << shift;
            if shift + n > 64 {
                self.words.push(bits >> (64 - shift));
            }
        }
        self.len += n;
        self.null_count += n - ones;
    }

    /// Write out the all-valid prefix as words, before the first null.
    fn materialize(&mut self) {
        self.words = vec![u64::MAX; self.len.div_ceil(64)];
        if self.len % 64 != 0 {
            *self.words.last_mut().expect("non-empty prefix") = low_bits(self.len % 64);
        }
    }

    pub fn finish(self) -> Validity {
        if self.null_count == 0 {
            return Validity::all_valid(self.len);
        }
        Validity {
            words: Some(self.words.into()),
            offset: 0,
            len: self.len,
            null_count: self.null_count,
        }
    }
}

/// A borrowed view of one column's lane: a plain slice for the
/// fixed-width types, the [`StrLane`] for text.
#[derive(Debug, Clone, Copy)]
pub enum LaneRef<'a> {
    Bool(&'a [bool]),
    Int(&'a [i64]),
    Float(&'a [f64]),
    Str(&'a StrLane),
    Timestamp(&'a [i64]),
}

/// A typed column of values with a validity bitmap.
///
/// The null slots of a fixed-width lane hold an arbitrary default (a
/// builder writes zeros, and a null text slot it writes is an empty
/// range); consumers must consult the bitmap
/// (or use [`Column::value`], which does). `==` compares lanes and
/// validity by content, with IEEE float equality.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    Bool {
        data: Buffer<bool>,
        validity: Validity,
    },
    Int {
        data: Buffer<i64>,
        validity: Validity,
    },
    Float {
        data: Buffer<f64>,
        validity: Validity,
    },
    Str {
        data: StrLane,
        validity: Validity,
    },
    Timestamp {
        data: Buffer<i64>,
        validity: Validity,
    },
}

impl Column {
    /// An empty column of the given type.
    pub fn empty(ty: DataType) -> Self {
        ColumnBuilder::new(ty).finish()
    }

    /// Build a column of type `ty` from values, coercing each one.
    pub fn from_values(ty: DataType, values: &[Value]) -> Result<Self> {
        let mut b = ColumnBuilder::with_capacity(ty, values.len());
        for v in values {
            b.push(v)?;
        }
        Ok(b.finish())
    }

    /// Convenience constructors from native vectors (all-valid).
    pub fn from_ints(data: Vec<i64>) -> Self {
        let validity = Validity::all_valid(data.len());
        Column::Int {
            data: data.into(),
            validity,
        }
    }

    pub fn from_floats(data: Vec<f64>) -> Self {
        let validity = Validity::all_valid(data.len());
        Column::Float {
            data: data.into(),
            validity,
        }
    }

    pub fn from_bools(data: Vec<bool>) -> Self {
        let validity = Validity::all_valid(data.len());
        Column::Bool {
            data: data.into(),
            validity,
        }
    }

    pub fn from_strs<S: AsRef<str>>(data: Vec<S>) -> Self {
        let validity = Validity::all_valid(data.len());
        Column::Str {
            data: data.iter().collect(),
            validity,
        }
    }

    pub fn data_type(&self) -> DataType {
        match self {
            Column::Bool { .. } => DataType::Bool,
            Column::Int { .. } => DataType::Int,
            Column::Float { .. } => DataType::Float,
            Column::Str { .. } => DataType::Str,
            Column::Timestamp { .. } => DataType::Timestamp,
        }
    }

    pub fn len(&self) -> usize {
        self.validity().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn null_count(&self) -> usize {
        self.validity().null_count()
    }

    pub fn validity(&self) -> &Validity {
        match self {
            Column::Bool { validity, .. }
            | Column::Int { validity, .. }
            | Column::Float { validity, .. }
            | Column::Str { validity, .. }
            | Column::Timestamp { validity, .. } => validity,
        }
    }

    /// Borrow the lane as a slice (or the text lane). Hot kernels match
    /// on this rather than on the column, so a loop indexes a plain slice.
    pub fn lane(&self) -> LaneRef<'_> {
        match self {
            Column::Bool { data, .. } => LaneRef::Bool(data),
            Column::Int { data, .. } => LaneRef::Int(data),
            Column::Float { data, .. } => LaneRef::Float(data),
            Column::Str { data, .. } => LaneRef::Str(data),
            Column::Timestamp { data, .. } => LaneRef::Timestamp(data),
        }
    }

    /// The value at `index` (checked).
    pub fn value(&self, index: usize) -> Result<Value> {
        if index >= self.len() {
            return Err(DataError::RowIndexOutOfBounds {
                index,
                len: self.len(),
            });
        }
        if !self.validity().get(index) {
            return Ok(Value::Null);
        }
        Ok(match self {
            Column::Bool { data, .. } => Value::Bool(data[index]),
            Column::Int { data, .. } => Value::Int(data[index]),
            Column::Float { data, .. } => Value::Float(data[index]),
            Column::Str { data, .. } => Value::Str(data[index].to_owned()),
            Column::Timestamp { data, .. } => Value::Timestamp(data[index]),
        })
    }

    /// Iterate the column as `Value`s (nulls included).
    pub fn iter_values(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i).expect("index in range"))
    }

    /// Gather the rows at `indices` into a new column (typed fast path, no
    /// per-row `Value` materialization).
    pub fn take(&self, indices: &[usize]) -> Result<Column> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.len()) {
            return Err(DataError::RowIndexOutOfBounds {
                index: bad,
                len: self.len(),
            });
        }
        Ok(self.gather(indices.iter().copied()))
    }

    /// Gather by a selection vector (bounds checked in debug builds only —
    /// callers produce selections from this column's own row range).
    pub fn take_sel(&self, sel: &[u32]) -> Column {
        debug_assert!(sel.iter().all(|&i| (i as usize) < self.len()));
        self.gather(sel.iter().map(|&i| i as usize))
    }

    /// Scatter rows `rows` of this column into per-target builders: row
    /// `rows.start + k` is appended to `out[routes[k]]`, or every row to
    /// `out[0]` when `routes` is `None`. A null slot lands as the builder's
    /// default (`false`, `0`, `0.0`, empty text) whatever payload sits
    /// under it here, exactly as [`ColumnBuilder::push_null`] writes it; a
    /// range with no nulls pays nothing for that. `out` holds one builder
    /// per target. Errors when a builder's type differs from this column's
    /// or the range is out of bounds.
    pub fn scatter(
        &self,
        rows: Range<usize>,
        routes: Option<&[u32]>,
        out: &mut [ColumnBuilder],
    ) -> Result<()> {
        if let Some(b) = out.iter().find(|b| b.data_type() != self.data_type()) {
            return Err(DataError::TypeMismatch {
                expected: b.data_type().name().to_owned(),
                found: self.data_type().name().to_owned(),
            });
        }
        debug_assert!(routes.map_or(true, |r| r.len() == rows.len()));
        let view = self.slice(rows.start, rows.end)?;
        let validity = view.validity();
        let dense = validity.null_count() == 0;
        if dense && routes.is_none() {
            return out[0].extend_from(&view);
        }
        let route = |k: usize| routes.map_or(0, |r| r[k] as usize);
        match &view {
            Column::Bool { data, .. } => scatter_lane(data, validity, route, out, |l| match l {
                LaneBuilder::Bool(v) => v,
                _ => unreachable!("type checked"),
            }),
            Column::Int { data, .. } | Column::Timestamp { data, .. } => {
                scatter_lane(data, validity, route, out, |l| match l {
                    LaneBuilder::Int(v) | LaneBuilder::Timestamp(v) => v,
                    _ => unreachable!("type checked"),
                })
            }
            Column::Float { data, .. } => scatter_lane(data, validity, route, out, |l| match l {
                LaneBuilder::Float(v) => v,
                _ => unreachable!("type checked"),
            }),
            Column::Str { data, .. } => {
                let mut dst: Vec<_> = out
                    .iter_mut()
                    .map(|b| match &mut b.lane {
                        LaneBuilder::Str { offsets, bytes } => (offsets, bytes, &mut b.validity),
                        _ => unreachable!("type checked"),
                    })
                    .collect();
                for k in 0..data.len() {
                    let (offsets, bytes, valid) = &mut dst[route(k)];
                    let ok = dense || validity.get(k);
                    if ok {
                        bytes.push_str(data.get(k));
                    }
                    offsets.push(bytes.len() as u64);
                    if !dense {
                        valid.push(ok);
                    }
                }
            }
        }
        if dense {
            for b in out {
                let n = b.lane.len() - b.validity.len();
                b.validity.push_n(true, n);
            }
        }
        Ok(())
    }

    /// Copy the rows at `indices` into fresh buffers: fixed-width lanes
    /// copy values, a text lane copies bytes into one new buffer.
    fn gather(&self, indices: impl ExactSizeIterator<Item = usize> + Clone) -> Column {
        let validity = self.validity();
        let out_validity = if validity.null_count() == 0 {
            Validity::all_valid(indices.len())
        } else {
            indices.clone().map(|i| validity.get(i)).collect()
        };
        fn pick<T: Copy>(data: &[T], indices: impl Iterator<Item = usize>) -> Buffer<T> {
            indices.map(|i| data[i]).collect()
        }
        match self {
            Column::Bool { data, .. } => Column::Bool {
                data: pick(data, indices),
                validity: out_validity,
            },
            Column::Int { data, .. } => Column::Int {
                data: pick(data, indices),
                validity: out_validity,
            },
            Column::Float { data, .. } => Column::Float {
                data: pick(data, indices),
                validity: out_validity,
            },
            Column::Timestamp { data, .. } => Column::Timestamp {
                data: pick(data, indices),
                validity: out_validity,
            },
            Column::Str { data, .. } => {
                let total: u64 = indices
                    .clone()
                    .map(|i| data.offsets[i + 1] - data.offsets[i])
                    .sum();
                let mut offsets = Vec::with_capacity(indices.len() + 1);
                let mut bytes = String::with_capacity(total as usize);
                offsets.push(0);
                for i in indices {
                    bytes.push_str(data.get(i));
                    offsets.push(bytes.len() as u64);
                }
                Column::Str {
                    data: StrLane {
                        offsets: offsets.into(),
                        bytes: bytes.into(),
                    },
                    validity: out_validity,
                }
            }
        }
    }

    /// Keep rows where `mask[i]` is true. `mask.len()` must equal `len()`.
    pub fn filter(&self, mask: &[bool]) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(DataError::LengthMismatch {
                expected: self.len(),
                found: mask.len(),
            });
        }
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| k.then_some(i))
            .collect();
        Ok(self.gather(indices.iter().copied()))
    }

    /// A view of rows `start..end` that shares this column's buffers:
    /// constant time, no bytes copied.
    pub fn slice(&self, start: usize, end: usize) -> Result<Column> {
        if end > self.len() || start > end {
            return Err(DataError::RowIndexOutOfBounds {
                index: end,
                len: self.len(),
            });
        }
        Ok(match self {
            Column::Bool { data, validity } => Column::Bool {
                data: data.slice(start, end),
                validity: validity.slice(start, end),
            },
            Column::Int { data, validity } => Column::Int {
                data: data.slice(start, end),
                validity: validity.slice(start, end),
            },
            Column::Float { data, validity } => Column::Float {
                data: data.slice(start, end),
                validity: validity.slice(start, end),
            },
            Column::Str { data, validity } => Column::Str {
                data: data.slice(start, end),
                validity: validity.slice(start, end),
            },
            Column::Timestamp { data, validity } => Column::Timestamp {
                data: data.slice(start, end),
                validity: validity.slice(start, end),
            },
        })
    }

    /// A copy of this view in fresh buffers of exactly its size, so a
    /// small result does not keep a large input's buffers alive.
    pub fn compact(&self) -> Column {
        let mut b = ColumnBuilder::with_capacity(self.data_type(), self.len());
        b.extend_from(self).expect("same type");
        b.finish()
    }

    /// True when this column's lane reads the same allocation as
    /// `other`'s (pointer identity, whatever the two windows are).
    pub fn shares_storage(&self, other: &Column) -> bool {
        match (self, other) {
            (Column::Bool { data: a, .. }, Column::Bool { data: b, .. }) => a.shares(b),
            (Column::Int { data: a, .. }, Column::Int { data: b, .. })
            | (Column::Timestamp { data: a, .. }, Column::Timestamp { data: b, .. }) => a.shares(b),
            (Column::Float { data: a, .. }, Column::Float { data: b, .. }) => a.shares(b),
            (Column::Str { data: a, .. }, Column::Str { data: b, .. }) => a.shares(b),
            _ => false,
        }
    }

    /// Sum of a numeric column, skipping nulls. Errors on non-numeric.
    pub fn sum_f64(&self) -> Result<f64> {
        match self {
            Column::Int { data, validity } => Ok(data
                .iter()
                .enumerate()
                .filter(|(i, _)| validity.get(*i))
                .map(|(_, &v)| v as f64)
                .sum()),
            Column::Float { data, validity } => Ok(data
                .iter()
                .enumerate()
                .filter(|(i, _)| validity.get(*i))
                .map(|(_, &v)| v)
                .sum()),
            other => Err(DataError::TypeMismatch {
                expected: "numeric".to_owned(),
                found: other.data_type().name().to_owned(),
            }),
        }
    }

    /// Minimum non-null value, or `Value::Null` on an all-null/empty column.
    pub fn min(&self) -> Value {
        self.iter_values()
            .filter(|v| !v.is_null())
            .min_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null)
    }

    /// Maximum non-null value, or `Value::Null` on an all-null/empty column.
    pub fn max(&self) -> Value {
        self.iter_values()
            .filter(|v| !v.is_null())
            .max_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null)
    }

    /// Borrow the raw float data (and validity) when this is a Float column.
    pub fn as_floats(&self) -> Result<(&[f64], &Validity)> {
        match self {
            Column::Float { data, validity } => Ok((data, validity)),
            other => Err(mismatch("Float", other)),
        }
    }

    /// Borrow the raw int data (and validity) when this is an Int column.
    pub fn as_ints(&self) -> Result<(&[i64], &Validity)> {
        match self {
            Column::Int { data, validity } => Ok((data, validity)),
            other => Err(mismatch("Int", other)),
        }
    }

    /// Borrow the text lane (and validity) when this is a Str column.
    pub fn as_strs(&self) -> Result<(&StrLane, &Validity)> {
        match self {
            Column::Str { data, validity } => Ok((data, validity)),
            other => Err(mismatch("Str", other)),
        }
    }

    /// Borrow the raw bool data (and validity) when this is a Bool column.
    pub fn as_bools(&self) -> Result<(&[bool], &Validity)> {
        match self {
            Column::Bool { data, validity } => Ok((data, validity)),
            other => Err(mismatch("Bool", other)),
        }
    }

    /// Borrow the raw timestamp data (and validity) when this is a
    /// Timestamp column.
    pub fn as_timestamps(&self) -> Result<(&[i64], &Validity)> {
        match self {
            Column::Timestamp { data, validity } => Ok((data, validity)),
            other => Err(mismatch("Timestamp", other)),
        }
    }
}

fn mismatch(expected: &str, found: &Column) -> DataError {
    DataError::TypeMismatch {
        expected: expected.to_owned(),
        found: found.data_type().name().to_owned(),
    }
}

/// The growable lanes behind a [`ColumnBuilder`].
#[derive(Debug)]
enum LaneBuilder {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str { offsets: Vec<u64>, bytes: String },
    Timestamp(Vec<i64>),
}

impl LaneBuilder {
    fn len(&self) -> usize {
        match self {
            LaneBuilder::Bool(v) => v.len(),
            LaneBuilder::Int(v) | LaneBuilder::Timestamp(v) => v.len(),
            LaneBuilder::Float(v) => v.len(),
            LaneBuilder::Str { offsets, .. } => offsets.len() - 1,
        }
    }
}

/// Builds one column in plain `Vec`s, then freezes it with
/// [`ColumnBuilder::finish`]. The only way to grow a column.
#[derive(Debug)]
pub struct ColumnBuilder {
    lane: LaneBuilder,
    validity: ValidityBuilder,
}

impl ColumnBuilder {
    pub fn new(ty: DataType) -> Self {
        Self::with_capacity(ty, 0)
    }

    /// A builder with room for `cap` rows (text bytes grow on demand).
    pub fn with_capacity(ty: DataType, cap: usize) -> Self {
        let lane = match ty {
            DataType::Bool => LaneBuilder::Bool(Vec::with_capacity(cap)),
            DataType::Int => LaneBuilder::Int(Vec::with_capacity(cap)),
            DataType::Float => LaneBuilder::Float(Vec::with_capacity(cap)),
            DataType::Str => {
                let mut offsets = Vec::with_capacity(cap + 1);
                offsets.push(0);
                LaneBuilder::Str {
                    offsets,
                    bytes: String::new(),
                }
            }
            DataType::Timestamp => LaneBuilder::Timestamp(Vec::with_capacity(cap)),
        };
        ColumnBuilder {
            lane,
            validity: ValidityBuilder::new(),
        }
    }

    pub fn data_type(&self) -> DataType {
        match self.lane {
            LaneBuilder::Bool(_) => DataType::Bool,
            LaneBuilder::Int(_) => DataType::Int,
            LaneBuilder::Float(_) => DataType::Float,
            LaneBuilder::Str { .. } => DataType::Str,
            LaneBuilder::Timestamp(_) => DataType::Timestamp,
        }
    }

    pub fn len(&self) -> usize {
        self.validity.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a value, coercing to the column type; `Null` appends a null.
    pub fn push(&mut self, value: &Value) -> Result<()> {
        if value.is_null() {
            self.push_null();
            return Ok(());
        }
        match &mut self.lane {
            LaneBuilder::Bool(data) => data.push(value.as_bool()?),
            LaneBuilder::Int(data) => data.push(value.as_int()?),
            LaneBuilder::Float(data) => data.push(value.as_float()?),
            LaneBuilder::Str { offsets, bytes } => {
                bytes.push_str(value.as_str()?);
                offsets.push(bytes.len() as u64);
            }
            LaneBuilder::Timestamp(data) => data.push(value.as_timestamp()?),
        }
        self.validity.push(true);
        Ok(())
    }

    /// Append a text cell to a `Str` column without an owned `String`.
    pub fn push_str(&mut self, s: &str) -> Result<()> {
        let LaneBuilder::Str { offsets, bytes } = &mut self.lane else {
            return Err(DataError::TypeMismatch {
                expected: self.data_type().name().to_owned(),
                found: DataType::Str.name().to_owned(),
            });
        };
        bytes.push_str(s);
        offsets.push(bytes.len() as u64);
        self.validity.push(true);
        Ok(())
    }

    /// Append a null slot.
    pub fn push_null(&mut self) {
        match &mut self.lane {
            LaneBuilder::Bool(data) => data.push(false),
            LaneBuilder::Int(data) | LaneBuilder::Timestamp(data) => data.push(0),
            LaneBuilder::Float(data) => data.push(0.0),
            LaneBuilder::Str { offsets, bytes } => offsets.push(bytes.len() as u64),
        }
        self.validity.push(false);
    }

    /// Append all rows of `other` (same type required): bulk lane copies,
    /// no per-row `Value` round trip.
    pub fn extend_from(&mut self, other: &Column) -> Result<()> {
        match (&mut self.lane, other) {
            (LaneBuilder::Bool(data), Column::Bool { data: od, .. }) => data.extend_from_slice(od),
            (LaneBuilder::Int(data), Column::Int { data: od, .. })
            | (LaneBuilder::Timestamp(data), Column::Timestamp { data: od, .. }) => {
                data.extend_from_slice(od)
            }
            (LaneBuilder::Float(data), Column::Float { data: od, .. }) => {
                data.extend_from_slice(od)
            }
            (LaneBuilder::Str { offsets, bytes }, Column::Str { data: od, .. }) => {
                let first = od.offsets[0];
                let base = bytes.len() as u64;
                bytes.push_str(&od.bytes[first as usize..od.offsets[od.len()] as usize]);
                offsets.extend(od.offsets[1..].iter().map(|&o| o - first + base));
            }
            _ => {
                return Err(DataError::TypeMismatch {
                    expected: self.data_type().name().to_owned(),
                    found: other.data_type().name().to_owned(),
                })
            }
        }
        self.validity.extend_from(other.validity());
        Ok(())
    }

    /// Freeze into an immutable column.
    pub fn finish(self) -> Column {
        let validity = self.validity.finish();
        match self.lane {
            LaneBuilder::Bool(data) => Column::Bool {
                data: data.into(),
                validity,
            },
            LaneBuilder::Int(data) => Column::Int {
                data: data.into(),
                validity,
            },
            LaneBuilder::Float(data) => Column::Float {
                data: data.into(),
                validity,
            },
            LaneBuilder::Str { offsets, bytes } => Column::Str {
                data: StrLane {
                    offsets: offsets.into(),
                    bytes: bytes.into(),
                },
                validity,
            },
            LaneBuilder::Timestamp(data) => Column::Timestamp {
                data: data.into(),
                validity,
            },
        }
    }
}

/// The fixed-width half of [`Column::scatter`]: push each row to its
/// route's lane, the default under a null. With no nulls the validity is
/// left for the caller to extend in bulk.
fn scatter_lane<T: Copy + Default>(
    data: &[T],
    validity: &Validity,
    route: impl Fn(usize) -> usize,
    out: &mut [ColumnBuilder],
    lane: fn(&mut LaneBuilder) -> &mut Vec<T>,
) {
    let mut dst: Vec<_> = out
        .iter_mut()
        .map(|b| (lane(&mut b.lane), &mut b.validity))
        .collect();
    if validity.null_count() == 0 {
        for (k, &x) in data.iter().enumerate() {
            dst[route(k)].0.push(x);
        }
        return;
    }
    for (k, &x) in data.iter().enumerate() {
        let ok = validity.get(k);
        let (lane, valid) = &mut dst[route(k)];
        lane.push(if ok { x } else { T::default() });
        valid.push(ok);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(pattern: impl Fn(usize) -> bool, n: usize) -> Validity {
        (0..n).map(pattern).collect()
    }

    #[test]
    fn validity_packs_bits() {
        let v = bits(|i| i % 3 != 0, 130);
        assert_eq!(v.len(), 130);
        assert!(!v.get(0));
        assert!(v.get(1));
        assert_eq!(!v.get(129), 129 % 3 == 0);
        assert_eq!(v.null_count(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn all_valid_masks_tail() {
        let v = Validity::all_valid(70);
        assert_eq!(v.len(), 70);
        assert_eq!(v.null_count(), 0);
        assert!(v.get(69));
        assert_eq!(v.word(1), (1u64 << 6) - 1);
        assert_eq!(v, bits(|_| true, 70));
    }

    #[test]
    fn push_and_read_with_nulls() {
        let mut b = ColumnBuilder::new(DataType::Int);
        b.push(&Value::Int(1)).unwrap();
        b.push(&Value::Null).unwrap();
        b.push(&Value::Int(3)).unwrap();
        let c = b.finish();
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(0).unwrap(), Value::Int(1));
        assert_eq!(c.value(1).unwrap(), Value::Null);
        assert!(c.value(3).is_err());
    }

    #[test]
    fn push_rejects_wrong_type() {
        let mut b = ColumnBuilder::new(DataType::Int);
        assert!(b.push(&Value::Str("x".into())).is_err());
        assert!(b.push_str("x").is_err());
        assert!(b.is_empty());
    }

    #[test]
    fn push_str_appends_text_like_push() {
        let mut b = ColumnBuilder::new(DataType::Str);
        b.push_str("Zürich").unwrap();
        b.push_null();
        b.push_str("").unwrap();
        assert_eq!(
            b.finish(),
            Column::from_values(
                DataType::Str,
                &[
                    Value::Str("Zürich".into()),
                    Value::Null,
                    Value::Str(String::new())
                ]
            )
            .unwrap()
        );
    }

    #[test]
    fn float_column_accepts_ints() {
        let c = Column::from_values(DataType::Float, &[Value::Int(2)]).unwrap();
        assert_eq!(c.value(0).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn take_filter_slice() {
        let c = Column::from_ints(vec![10, 20, 30, 40]);
        let t = c.take(&[3, 0]).unwrap();
        assert_eq!(t.value(0).unwrap(), Value::Int(40));
        assert_eq!(t.value(1).unwrap(), Value::Int(10));
        let f = c.filter(&[true, false, true, false]).unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!(f.value(1).unwrap(), Value::Int(30));
        let s = c.slice(1, 3).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.value(0).unwrap(), Value::Int(20));
        assert!(c.filter(&[true]).is_err());
        assert!(c.slice(2, 9).is_err());
    }

    #[test]
    fn aggregates_skip_nulls() {
        let c = Column::from_values(
            DataType::Float,
            &[Value::Float(1.0), Value::Null, Value::Float(3.0)],
        )
        .unwrap();
        assert_eq!(c.sum_f64().unwrap(), 4.0);
        assert_eq!(c.min(), Value::Float(1.0));
        assert_eq!(c.max(), Value::Float(3.0));
    }

    #[test]
    fn aggregates_on_empty_and_all_null() {
        let c = Column::empty(DataType::Int);
        assert_eq!(c.min(), Value::Null);
        let c = Column::from_values(DataType::Int, &[Value::Null, Value::Null]).unwrap();
        assert_eq!(c.max(), Value::Null);
        assert_eq!(c.sum_f64().unwrap(), 0.0);
    }

    #[test]
    fn sum_rejects_strings() {
        let c = Column::from_strs(vec!["a", "b"]);
        assert!(c.sum_f64().is_err());
    }

    #[test]
    fn extend_from_same_type_only() {
        let mut b = ColumnBuilder::new(DataType::Int);
        b.extend_from(&Column::from_ints(vec![1])).unwrap();
        b.extend_from(&Column::from_ints(vec![2, 3])).unwrap();
        assert_eq!(b.len(), 3);
        assert!(b.extend_from(&Column::from_strs(vec!["x"])).is_err());
        assert_eq!(b.finish(), Column::from_ints(vec![1, 2, 3]));
    }

    #[test]
    fn validity_word_views_round_trip() {
        let v = bits(|i| i % 7 != 0, 100);
        let words: Vec<u64> = (0..v.num_words()).map(|w| v.word(w)).collect();
        assert_eq!(Validity::from_words(words, v.len()), v);
        // from_words masks garbage tail bits and recounts nulls.
        let noisy = Validity::from_words(vec![u64::MAX, u64::MAX], 70);
        assert_eq!(noisy.len(), 70);
        assert_eq!(noisy.null_count(), 0);
        assert_eq!(noisy.word(1), (1u64 << 6) - 1);
    }

    #[test]
    fn validity_and_intersects() {
        let a = bits(|i| i % 2 == 0, 130);
        let b = bits(|i| i % 3 == 0, 130);
        let c = a.and(&b);
        for i in 0..130 {
            assert_eq!(c.get(i), i % 6 == 0, "slot {i}");
        }
        let all = Validity::all_valid(130);
        assert_eq!(a.and(&all), a);
        assert_eq!(all.and(&b), b);
        // Unaligned views intersect by logical slot.
        let (sa, sb) = (a.slice(3, 120), b.slice(3, 120));
        let sc = sa.and(&sb);
        for i in 0..117 {
            assert_eq!(sc.get(i), (i + 3) % 6 == 0, "slot {i}");
        }
    }

    #[test]
    fn validity_builder_splices_unaligned_views() {
        let src = bits(|i| i % 5 != 0, 300);
        for (start, end) in [(0, 300), (1, 299), (63, 200), (64, 128), (70, 71)] {
            let view = src.slice(start, end);
            for prefix in [0usize, 1, 63, 64, 65] {
                let mut b = ValidityBuilder::new();
                b.push_n(true, prefix);
                b.extend_from(&view);
                let got = b.finish();
                let want = bits(
                    |i| i < prefix || (i - prefix + start) % 5 != 0,
                    prefix + end - start,
                );
                assert_eq!(got, want, "{start}..{end} after {prefix}");
            }
        }
    }

    #[test]
    fn extend_from_preserves_values_and_nulls() {
        let vals = |range: std::ops::Range<i64>| -> Vec<Value> {
            range
                .map(|i| {
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    }
                })
                .collect()
        };
        // Word-aligned (64 rows) and unaligned (67 rows) destinations both
        // splice correctly.
        for first in [64usize, 67] {
            let mut b = ColumnBuilder::new(DataType::Int);
            b.extend_from(&Column::from_values(DataType::Int, &vals(0..first as i64)).unwrap())
                .unwrap();
            let tail = vals(1000..1100);
            b.extend_from(&Column::from_values(DataType::Int, &tail).unwrap())
                .unwrap();
            let c = b.finish();
            assert_eq!(c.len(), first + 100);
            for (i, v) in vals(0..first as i64).iter().chain(tail.iter()).enumerate() {
                assert_eq!(&c.value(i).unwrap(), v, "row {i} (first {first})");
            }
            assert_eq!(
                c.validity().null_count(),
                vals(0..first as i64)
                    .iter()
                    .chain(tail.iter())
                    .filter(|v| v.is_null())
                    .count()
            );
        }
    }

    #[test]
    fn slice_matches_gather_at_every_offset() {
        // Views cross word boundaries at every shift; each one must agree
        // bit-for-bit with the per-row gather.
        let values: Vec<Value> = (0..200)
            .map(|i| {
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i as i64)
                }
            })
            .collect();
        let c = Column::from_values(DataType::Int, &values).unwrap();
        for (start, end) in [
            (0, 200),
            (0, 0),
            (63, 64),
            (1, 199),
            (64, 128),
            (70, 135),
            (199, 200),
        ] {
            let fast = c.slice(start, end).unwrap();
            let indices: Vec<usize> = (start..end).collect();
            let slow = c.take(&indices).unwrap();
            assert_eq!(fast, slow, "range {start}..{end}");
            assert_eq!(fast.validity().null_count(), slow.validity().null_count());
            assert!(fast.shares_storage(&c));
            assert!(!slow.shares_storage(&c));
        }
        assert!(c.slice(100, 201).is_err());
        assert!(c.slice(5, 4).is_err());
    }

    #[test]
    fn str_lane_views_and_copies() {
        let values: Vec<Value> = ["", "Zürich", "ab", "", "日本"]
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == 3 {
                    Value::Null
                } else {
                    Value::Str(s.to_string())
                }
            })
            .collect();
        let c = Column::from_values(DataType::Str, &values).unwrap();
        let (lane, validity) = c.as_strs().unwrap();
        assert_eq!(
            lane.iter().collect::<Vec<_>>(),
            ["", "Zürich", "ab", "", "日本"]
        );
        assert_eq!(&lane[1], "Zürich");
        assert!(!validity.get(3));
        let view = c.slice(1, 5).unwrap();
        assert!(view.shares_storage(&c));
        let copy = view.compact();
        assert!(!copy.shares_storage(&c));
        assert_eq!(copy, view);
        assert_eq!(copy.as_strs().unwrap().0.bytes.len(), "Zürichab日本".len());
        assert_eq!(
            view.take(&[3, 0]).unwrap().value(0).unwrap(),
            Value::Str("日本".into())
        );
    }

    #[test]
    fn take_sel_gathers_with_nulls() {
        let c = Column::from_values(
            DataType::Int,
            &[Value::Int(10), Value::Null, Value::Int(30), Value::Int(40)],
        )
        .unwrap();
        let g = c.take_sel(&[3, 1, 0]);
        assert_eq!(g.value(0).unwrap(), Value::Int(40));
        assert_eq!(g.value(1).unwrap(), Value::Null);
        assert_eq!(g.value(2).unwrap(), Value::Int(10));
        // All-valid fast lane.
        let c = Column::from_strs(vec!["a", "b", "c"]);
        let g = c.take_sel(&[2, 2]);
        assert_eq!(g.value(0).unwrap(), Value::Str("c".into()));
        assert_eq!(g.null_count(), 0);
    }

    #[test]
    fn scatter_routes_rows_and_writes_defaults_under_nulls() {
        // Payloads sit under the null slots, as vectorized kernels leave them.
        let validity: Validity = [true, false, true, false].into_iter().collect();
        let ints = Column::Int {
            data: vec![1, 99, 3, 98].into(),
            validity: validity.clone(),
        };
        let strs = Column::Str {
            data: ["a", "é", "c", "zz"].into_iter().collect(),
            validity,
        };
        for col in [&ints, &strs] {
            let mut out: Vec<_> = (0..2)
                .map(|_| ColumnBuilder::new(col.data_type()))
                .collect();
            col.scatter(1..4, Some(&[1, 0, 1]), &mut out).unwrap();
            col.scatter(0..1, Some(&[1]), &mut out).unwrap();
            let [zero, one] = [0, 1].map(|t| {
                std::mem::replace(&mut out[t], ColumnBuilder::new(col.data_type())).finish()
            });
            let rebuilt = |rows: &[usize]| {
                let values: Vec<Value> = rows.iter().map(|&i| col.value(i).unwrap()).collect();
                Column::from_values(col.data_type(), &values).unwrap()
            };
            assert_eq!(zero, rebuilt(&[2]));
            assert_eq!(one, rebuilt(&[1, 3, 0]));
            // Without routes every row goes to the first builder.
            let mut gathered = [ColumnBuilder::new(col.data_type())];
            col.scatter(0..4, None, &mut gathered).unwrap();
            let [gathered] = gathered;
            assert_eq!(gathered.finish(), rebuilt(&[0, 1, 2, 3]));
        }
        let mut wrong = [ColumnBuilder::new(DataType::Float)];
        assert!(ints.scatter(0..1, None, &mut wrong).is_err());
        assert!(ints.scatter(3..5, None, &mut wrong[..0]).is_err());
    }

    #[test]
    fn raw_accessors() {
        let c = Column::from_floats(vec![1.5, 2.5]);
        let (d, v) = c.as_floats().unwrap();
        assert_eq!(d, &[1.5, 2.5]);
        assert_eq!(v.null_count(), 0);
        assert!(c.as_ints().is_err());
        let c = Column::from_strs(vec!["a"]);
        assert_eq!(c.as_strs().unwrap().0.get(0), "a");
    }
}
