//! Stream sources and the bounded in-flight buffer.
//!
//! A [`Source`] produces micro-batches in offset order; [`BoundedBuffer`]
//! sits between the producing thread and the consuming engine loop and
//! *blocks the producer* when the engine falls behind — backpressure, the
//! property that makes continuous ingestion survivable. Every push journals
//! the post-push buffer depth, so the bound (`depth <= cap`) is provable
//! from the trace rather than asserted on faith.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use toreador_data::table::Table;

use crate::error::{FlowError, Result};
use crate::trace::{TraceEventKind, TraceJournal};

/// One micro-batch with its dense, zero-based stream offset.
#[derive(Debug, Clone)]
pub struct SourceBatch {
    pub offset: u64,
    pub rows: Table,
}

/// A replayable producer of offset-ordered micro-batches.
///
/// `seek` is what makes end-to-end acknowledgement work: after a crash the
/// loop recovers the last acked offset from the WAL and repositions the
/// source so no acked batch is ever produced (or executed) again.
pub trait Source: Send {
    /// Position the source so the next batch returned has offset `next`.
    fn seek(&mut self, next: u64) -> Result<()>;
    /// The next micro-batch in offset order, or `None` when exhausted.
    fn next_batch(&mut self) -> Result<Option<SourceBatch>>;
}

/// A table replayed in *arrival order*. Event time and arrival order are
/// decoupled here — rows carry their own timestamps and may arrive out of
/// order — which is what exercises the watermark / late-data machinery.
///
/// Batches are cut either every fixed number of rows ([`ArrivalSource::new`])
/// or at event-window boundaries in row order ([`ArrivalSource::windows`]).
#[derive(Debug)]
pub struct ArrivalSource {
    table: Table,
    /// Half-open row ranges, one per batch, in arrival order.
    bounds: Vec<(usize, usize)>,
    cursor: u64,
}

impl ArrivalSource {
    pub fn new(table: Table, batch_rows: usize) -> Result<Self> {
        if batch_rows == 0 {
            return Err(FlowError::Stream("batch size must be positive".to_owned()));
        }
        let bounds = (0..table.num_rows())
            .step_by(batch_rows)
            .map(|start| (start, (start + batch_rows).min(table.num_rows())))
            .collect();
        Ok(ArrivalSource {
            table,
            bounds,
            cursor: 0,
        })
    }

    /// Cut arrival-ordered batches at event-time window boundaries: a new
    /// batch starts when a row's window index (`ts.div_euclid(window_ms)`)
    /// moves strictly *forward*; rows whose window index is at or behind
    /// the open batch's stay in it (they arrived now, however old their
    /// timestamps are). For a table whose timestamps are non-decreasing
    /// this is exactly event-time tumbling minus the empty windows — but on
    /// disordered input it preserves arrival order instead of quietly
    /// re-sorting the disorder away, which is what lets the watermark
    /// machinery see late rows at all.
    pub fn windows(table: &Table, ts_column: &str, window_ms: i64) -> Result<Self> {
        if window_ms <= 0 {
            return Err(FlowError::Stream("window must be positive".to_owned()));
        }
        let ts = table.column(ts_column)?;
        let mut bounds: Vec<(usize, usize)> = Vec::new();
        let mut current: Option<(usize, i64)> = None; // (batch start row, window)
        for (i, v) in ts.iter_values().enumerate() {
            let w = super::watermark::event_ts(v)?.div_euclid(window_ms);
            match current {
                None => current = Some((i, w)),
                Some((start, open)) if w > open => {
                    bounds.push((start, i));
                    current = Some((i, w));
                }
                Some(_) => {}
            }
        }
        if let Some((start, _)) = current {
            bounds.push((start, table.num_rows()));
        }
        Ok(ArrivalSource {
            table: table.clone(),
            bounds,
            cursor: 0,
        })
    }

    pub fn num_batches(&self) -> usize {
        self.bounds.len()
    }
}

impl Source for ArrivalSource {
    fn seek(&mut self, next: u64) -> Result<()> {
        if next > self.bounds.len() as u64 {
            return Err(FlowError::Stream(format!(
                "seek past the end: offset {next} of {}",
                self.bounds.len()
            )));
        }
        self.cursor = next;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<SourceBatch>> {
        let Some(&(start, end)) = self.bounds.get(self.cursor as usize) else {
            return Ok(None);
        };
        let rows = self.table.slice(start, end).map_err(FlowError::Data)?;
        let offset = self.cursor;
        self.cursor += 1;
        Ok(Some(SourceBatch { offset, rows }))
    }
}

/// The bounded in-flight buffer between producer and consumer.
pub(crate) struct BoundedBuffer {
    cap: usize,
    state: Mutex<BufferState>,
    not_full: Condvar,
    not_empty: Condvar,
}

struct BufferState {
    queue: VecDeque<SourceBatch>,
    /// Producer finished cleanly; the queue drains and then pop returns None.
    finished: bool,
    /// Consumer left (error or kill): the producer stops instead of
    /// blocking forever on a full queue.
    aborted: bool,
    /// Producer-side failure, surfaced to the consumer on the next pop.
    error: Option<FlowError>,
}

impl BoundedBuffer {
    pub(crate) fn new(cap: usize) -> Self {
        BoundedBuffer {
            cap: cap.max(1),
            state: Mutex::new(BufferState {
                queue: VecDeque::new(),
                finished: false,
                aborted: false,
                error: None,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Producer side: enqueue, blocking while the buffer is at capacity.
    /// Journals the post-push depth (always `<= cap`) and, when the push
    /// had to wait, a `BackpressureStall` with the time spent blocked.
    /// Returns false when the consumer is gone.
    pub(crate) fn push(&self, batch: SourceBatch, journal: &TraceJournal) -> bool {
        let offset = batch.offset;
        let rows = batch.rows.num_rows() as u64;
        let mut state = self.state.lock().expect("buffer mutex poisoned");
        let mut waited_us = 0u64;
        while state.queue.len() >= self.cap && !state.aborted {
            let t0 = Instant::now();
            state = self.not_full.wait(state).expect("buffer mutex poisoned");
            waited_us += t0.elapsed().as_micros() as u64;
        }
        if state.aborted {
            return false;
        }
        if waited_us > 0 {
            journal.record(TraceEventKind::BackpressureStall { offset, waited_us });
        }
        state.queue.push_back(batch);
        let depth = state.queue.len() as u64;
        journal.record(TraceEventKind::BatchIngested {
            offset,
            rows,
            depth,
        });
        drop(state);
        self.not_empty.notify_one();
        true
    }

    /// Producer side: no more batches are coming.
    pub(crate) fn finish(&self) {
        self.state.lock().expect("buffer mutex poisoned").finished = true;
        self.not_empty.notify_all();
    }

    /// Producer side: the source failed; the consumer sees the error.
    pub(crate) fn fail(&self, err: FlowError) {
        let mut state = self.state.lock().expect("buffer mutex poisoned");
        state.error = Some(err);
        state.finished = true;
        drop(state);
        self.not_empty.notify_all();
    }

    /// Consumer side: the loop is exiting early; wake a blocked producer.
    pub(crate) fn abort(&self) {
        self.state.lock().expect("buffer mutex poisoned").aborted = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Consumer side: dequeue the next batch, blocking until one arrives.
    /// `Ok(None)` means the producer finished and the queue drained.
    pub(crate) fn pop(&self) -> Result<Option<SourceBatch>> {
        let mut state = self.state.lock().expect("buffer mutex poisoned");
        loop {
            if let Some(batch) = state.queue.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Ok(Some(batch));
            }
            if let Some(err) = state.error.take() {
                return Err(err);
            }
            if state.finished {
                return Ok(None);
            }
            state = self.not_empty.wait(state).expect("buffer mutex poisoned");
        }
    }
}

/// Consumer-side guard: aborts the buffer when dropped, so a consumer that
/// leaves — by returning or by unwinding — always wakes a blocked producer.
pub(crate) struct AbortOnDrop<'a>(pub(crate) &'a BoundedBuffer);

impl Drop for AbortOnDrop<'_> {
    fn drop(&mut self) {
        self.0.abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toreador_data::schema::{Field, Schema};
    use toreador_data::value::{DataType, Value};

    fn ts_table(stamps: &[i64]) -> Table {
        let schema = Schema::new(vec![Field::new("ts", DataType::Timestamp)]).unwrap();
        Table::from_rows(schema, stamps.iter().map(|&t| vec![Value::Timestamp(t)])).unwrap()
    }

    #[test]
    fn arrival_source_cuts_fixed_batches() {
        let t = ts_table(&[5, 4, 3, 2, 1]);
        let mut s = ArrivalSource::new(t, 2).unwrap();
        assert_eq!(s.num_batches(), 3);
        let sizes: Vec<usize> = std::iter::from_fn(|| s.next_batch().unwrap())
            .map(|b| b.rows.num_rows())
            .collect();
        assert_eq!(sizes, vec![2, 2, 1]);
        s.seek(2).unwrap();
        assert_eq!(s.next_batch().unwrap().unwrap().offset, 2);
        assert!(ArrivalSource::new(ts_table(&[1]), 0).is_err());
    }

    #[test]
    fn arrival_windows_keep_late_rows_in_the_open_batch() {
        // Rows 0-1 in window 0, row 2 opens window 1, row 3 is a late
        // arrival (window 0) that stays in the open batch, row 4 opens
        // window 3.
        let t = ts_table(&[100, 900, 1_100, 150, 3_200]);
        let mut s = ArrivalSource::windows(&t, "ts", 1000).unwrap();
        assert_eq!(s.num_batches(), 3);
        let sizes: Vec<usize> = std::iter::from_fn(|| s.next_batch().unwrap())
            .map(|b| b.rows.num_rows())
            .collect();
        assert_eq!(sizes, vec![2, 2, 1]);
        assert!(ArrivalSource::windows(&t, "ts", 0).is_err());
    }

    #[test]
    fn arrival_batches_are_views_of_the_source_table() {
        let t = ts_table(&[100, 900, 1_100, 150, 3_200]);
        let mut s = ArrivalSource::windows(&t, "ts", 1000).unwrap();
        while let Some(batch) = s.next_batch().unwrap() {
            assert!(batch.rows.columns()[0].shares_storage(&t.columns()[0]));
        }
    }

    #[test]
    fn arrival_windows_match_tumbling_on_ordered_input() {
        // Non-decreasing timestamps: the cuts of event-time tumbling
        // windows 0, 1 and 5, with the empty windows 2-4 left out.
        let t = ts_table(&[0, 10, 1_000, 1_001, 5_000, 5_000]);
        let mut arrival = ArrivalSource::windows(&t, "ts", 1000).unwrap();
        let cut: Vec<Table> = std::iter::from_fn(|| arrival.next_batch().unwrap())
            .map(|b| b.rows)
            .collect();
        let expected = [
            ts_table(&[0, 10]),
            ts_table(&[1_000, 1_001]),
            ts_table(&[5_000, 5_000]),
        ];
        assert_eq!(cut, expected);
    }

    #[test]
    fn buffer_bounds_depth_and_journals_stalls() {
        let journal = TraceJournal::new();
        let buf = BoundedBuffer::new(2);
        let table = ts_table(&[1]);
        std::thread::scope(|s| {
            s.spawn(|| {
                for offset in 0..6u64 {
                    assert!(buf.push(
                        SourceBatch {
                            offset,
                            rows: table.clone(),
                        },
                        &journal,
                    ));
                }
                buf.finish();
            });
            // Slow consumer: the producer must stall at depth 2.
            let mut seen = 0;
            while let Some(b) = buf.pop().unwrap() {
                assert_eq!(b.offset, seen);
                seen += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            assert_eq!(seen, 6);
        });
        let totals = journal.snapshot().stream_totals();
        assert!(totals.max_in_flight <= 2, "bound broken: {totals:?}");
        assert!(
            totals.stalls > 0,
            "slow consumer never stalled the producer"
        );
    }

    #[test]
    fn abort_unblocks_a_stalled_producer() {
        let journal = TraceJournal::new();
        let buf = BoundedBuffer::new(1);
        let table = ts_table(&[1]);
        std::thread::scope(|s| {
            let pushed = s.spawn(|| {
                let mut n = 0;
                for offset in 0..10u64 {
                    if !buf.push(
                        SourceBatch {
                            offset,
                            rows: table.clone(),
                        },
                        &journal,
                    ) {
                        break;
                    }
                    n += 1;
                }
                n
            });
            // Take one batch, then walk away mid-stream.
            assert!(buf.pop().unwrap().is_some());
            buf.abort();
            assert!(pushed.join().unwrap() < 10, "abort must stop the producer");
        });
    }
}
