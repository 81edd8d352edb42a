//! Morsel-driven pipelining: row-range units on the stage coordinator.
//!
//! A partition-at-a-time task pins a skewed partition's whole wave on one
//! core while the rest of the pool idles. This module cuts a wave of
//! non-breaking work into small row-range **units** instead and hands them
//! to the stage coordinator ([`crate::scheduler`]) as ordinary tasks, so a
//! straggling partition's morsels spread across every free worker.
//! Materialisation still happens only at true pipeline breakers; the
//! columnar shuffle and the checkpoint codec are untouched.
//!
//! The jobs only this module does: cutting partitions into units, making
//! the [`PipelineBody`] calls and journalling the morsel events inside a
//! unit, and reassembling outputs per partition. [`WaveOrder::Independent`]
//! waves (pure filter/project chains) get one unit per morsel, task
//! coordinate = unit index; the per-partition outputs concatenate in
//! morsel order, which is bit-identical to whole-partition execution
//! because the operators are elementwise. [`WaveOrder::Serial`] waves
//! (sampling RNG draws, partial-aggregation accumulators) get one unit per
//! partition, task coordinate = partition, folded morsel by morsel in row
//! order.
//!
//! Everything else is the coordinator's: dispatch, the size rule (a wave of
//! at most one morsel runs on the calling thread), worker sizing, retries,
//! backoff, deadlines, speculation, cancellation and the deterministic
//! [`ChaosPlan`](crate::fault::ChaosPlan) draws — a morsel wave gets every
//! resilience policy a partition wave gets, unchanged. A unit checks its
//! [`Attempt`] between morsels, so one that timed out, lost a speculation
//! race or was cancelled stops at the next morsel boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use toreador_data::table::Table;

use crate::error::{FlowError, Result};
use crate::metrics::MetricsCollector;
use crate::resilience::RunControl;
use crate::scheduler::{run_tasks, Attempt, SchedulerConfig};
use crate::trace::TraceEventKind;

/// How a wave's partitions are cut into units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaveOrder {
    /// Elementwise chains: one unit per morsel; any worker may run any
    /// morsel of any partition concurrently.
    Independent,
    /// Order-carrying state (RNG draws, accumulators): one unit per
    /// partition, its morsels in ascending row order.
    Serial,
}

/// A per-partition pipeline body pushed through row-range morsels.
pub(crate) trait PipelineBody: Sync {
    /// Per-partition state threaded through that partition's morsels
    /// (sampling RNGs, aggregation accumulators, output chunks).
    type State: Send;

    /// Build the partition's state before its first morsel runs.
    fn init(&self, partition: usize, part: &Table) -> Result<Self::State>;

    /// Push rows `lo..hi` of `part` through the pipeline.
    fn process(
        &self,
        state: &mut Self::State,
        part: &Table,
        partition: usize,
        lo: usize,
        hi: usize,
    ) -> Result<()>;

    /// Materialise the partition's output after its last morsel.
    fn finish(&self, state: Self::State, part: &Table, partition: usize) -> Result<Table>;
}

/// One task of a wave: a single morsel for `Independent` waves, a whole
/// partition (chunked internally, in order) for `Serial` waves.
struct Unit {
    partition: usize,
    /// First morsel index covered (the chunk index; 0 for serial units).
    morsel: usize,
    lo: usize,
    hi: usize,
}

/// What every unit of one wave shares.
struct Wave<'a, B> {
    stage: usize,
    morsel_rows: usize,
    parts: &'a [Table],
    body: &'a B,
    metrics: &'a MetricsCollector,
    /// Busy time per pool worker, µs; its length is the pool's size.
    busy: Vec<AtomicU64>,
    dispatched: AtomicU64,
    stolen: AtomicU64,
}

impl<B: PipelineBody> Wave<'_, B> {
    /// One attempt at `unit`. A unit's home worker is `partition %
    /// workers`; running anywhere else is journalled as a steal.
    fn run_attempt(&self, unit: &Unit, attempt: &Attempt<'_>) -> Result<Table> {
        let home = unit.partition % self.busy.len();
        if attempt.worker != home {
            self.stolen.fetch_add(1, Ordering::Relaxed);
            self.metrics.trace().record(TraceEventKind::MorselStolen {
                stage: self.stage,
                partition: unit.partition,
                morsel: unit.morsel,
                home,
                worker: attempt.worker,
            });
        }
        let t0 = Instant::now();
        let out = self.push(unit, attempt);
        self.busy[attempt.worker].fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        out
    }

    /// Push the unit's rows through the body a morsel at a time, in row
    /// order, stopping at a morsel boundary once the attempt is cancelled.
    /// Every dispatched morsel gets a completion event — even a failing
    /// one — so journal pairing is an invariant, not a happy-path property.
    fn push(&self, unit: &Unit, attempt: &Attempt<'_>) -> Result<Table> {
        let part = &self.parts[unit.partition];
        let mut state = self.body.init(unit.partition, part)?;
        let (mut lo, mut morsel) = (unit.lo, unit.morsel);
        while lo < unit.hi {
            if attempt.cancelled() {
                return Err(FlowError::Cancelled("task attempt cancelled".to_owned()));
            }
            let hi = (lo + self.morsel_rows).min(unit.hi);
            self.metrics
                .trace()
                .record(TraceEventKind::MorselDispatched {
                    stage: self.stage,
                    partition: unit.partition,
                    morsel,
                    rows: (hi - lo) as u64,
                    worker: attempt.worker,
                });
            self.dispatched.fetch_add(1, Ordering::Relaxed);
            let r = self.body.process(&mut state, part, unit.partition, lo, hi);
            self.metrics
                .trace()
                .record(TraceEventKind::MorselCompleted {
                    stage: self.stage,
                    partition: unit.partition,
                    morsel,
                });
            r?;
            lo = hi;
            morsel += 1;
        }
        self.body.finish(state, part, unit.partition)
    }
}

/// Run one pipeline wave over `parts` on the stage coordinator, returning
/// one output table per partition (in partition order). The caller owns
/// wave numbering and checkpointing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_wave<B: PipelineBody>(
    config: &SchedulerConfig,
    metrics: &MetricsCollector,
    control: &RunControl,
    stage: usize,
    parts: &[Table],
    order: WaveOrder,
    morsel_rows: usize,
    body: &B,
) -> Result<Vec<Table>> {
    if parts.is_empty() {
        return Ok(Vec::new());
    }
    let morsel_rows = morsel_rows.max(1);
    let unit_rows = match order {
        WaveOrder::Independent => morsel_rows,
        WaveOrder::Serial => usize::MAX,
    };
    // Units are built partition-major with morsels ascending, so each
    // partition's output chunks occupy contiguous task slots in morsel
    // order. An empty partition still gets one (empty) unit, so the output
    // keeps its schema and partition count.
    let mut units: Vec<Unit> = Vec::new();
    let mut per_part: Vec<usize> = Vec::with_capacity(parts.len());
    for (partition, t) in parts.iter().enumerate() {
        let n = t.num_rows();
        let cut = (0..n.max(1)).step_by(unit_rows).enumerate();
        per_part.push(cut.len());
        units.extend(cut.map(|(morsel, lo)| Unit {
            partition,
            morsel,
            lo,
            hi: lo.saturating_add(unit_rows).min(n),
        }));
    }
    let input_rows = parts.iter().map(Table::num_rows).sum();
    let workers = config.workers(units.len(), input_rows, morsel_rows);
    let wave = Wave {
        stage,
        morsel_rows,
        parts,
        body,
        metrics,
        busy: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        dispatched: AtomicU64::new(0),
        stolen: AtomicU64::new(0),
    };
    let tasks: Vec<_> = units
        .iter()
        .map(|unit| {
            let wave = &wave;
            move |attempt: &Attempt<'_>| wave.run_attempt(unit, attempt)
        })
        .collect();
    let mut chunks = run_tasks(
        config,
        metrics,
        control,
        stage,
        &tasks,
        input_rows,
        morsel_rows,
    )?
    .into_iter();
    let mut out = Vec::with_capacity(parts.len());
    for count in per_part {
        let mut part: Vec<Table> = chunks.by_ref().take(count).collect();
        out.push(if part.len() == 1 {
            part.pop().expect("one chunk")
        } else {
            Table::concat(&part).map_err(FlowError::Data)?
        });
    }
    let busy = || wave.busy.iter().map(|b| b.load(Ordering::Relaxed));
    metrics.trace().record(TraceEventKind::PipelineCompleted {
        stage,
        partitions: parts.len(),
        morsels: wave.dispatched.load(Ordering::Relaxed),
        stolen: wave.stolen.load(Ordering::Relaxed),
        workers,
        slowest_worker_us: busy().max().unwrap_or(0),
        mean_worker_us: busy().sum::<u64>() as f64 / workers as f64,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::thread::ThreadId;
    use std::time::Duration;
    use toreador_data::generate::random_table;

    use crate::fault::{ChaosPlan, FaultKind, TargetedFault};
    use crate::resilience::{ResilienceConfig, RetryPolicy, TaskDeadline};

    /// Identity body: slices the claimed row range back out of the input.
    struct PassThrough;

    impl PipelineBody for PassThrough {
        type State = Vec<Table>;

        fn init(&self, _partition: usize, _part: &Table) -> Result<Self::State> {
            Ok(Vec::new())
        }

        fn process(
            &self,
            state: &mut Self::State,
            part: &Table,
            _partition: usize,
            lo: usize,
            hi: usize,
        ) -> Result<()> {
            state.push(part.slice(lo, hi).map_err(FlowError::Data)?);
            Ok(())
        }

        fn finish(&self, state: Self::State, part: &Table, _partition: usize) -> Result<Table> {
            if state.is_empty() {
                return Ok(Table::empty(part.schema().clone()));
            }
            Table::concat(&state).map_err(FlowError::Data)
        }
    }

    /// [`PassThrough`] that also notes which thread pushed each morsel.
    struct ThreadNoting(Mutex<HashSet<ThreadId>>);

    impl PipelineBody for ThreadNoting {
        type State = Vec<Table>;

        fn init(&self, partition: usize, part: &Table) -> Result<Self::State> {
            PassThrough.init(partition, part)
        }

        fn process(
            &self,
            state: &mut Self::State,
            part: &Table,
            partition: usize,
            lo: usize,
            hi: usize,
        ) -> Result<()> {
            self.0.lock().insert(std::thread::current().id());
            PassThrough.process(state, part, partition, lo, hi)
        }

        fn finish(&self, state: Self::State, part: &Table, partition: usize) -> Result<Table> {
            PassThrough.finish(state, part, partition)
        }
    }

    /// [`PassThrough`] whose first attempt at partition 0 sleeps in every
    /// `process`; counting `init` calls tells the attempts apart.
    struct FirstAttemptSleeps(AtomicUsize);

    impl PipelineBody for FirstAttemptSleeps {
        type State = (bool, Vec<Table>);

        fn init(&self, partition: usize, part: &Table) -> Result<Self::State> {
            let first = partition == 0 && self.0.fetch_add(1, Ordering::SeqCst) == 0;
            Ok((first, PassThrough.init(partition, part)?))
        }

        fn process(
            &self,
            state: &mut Self::State,
            part: &Table,
            partition: usize,
            lo: usize,
            hi: usize,
        ) -> Result<()> {
            if state.0 {
                std::thread::sleep(Duration::from_millis(150));
            }
            PassThrough.process(&mut state.1, part, partition, lo, hi)
        }

        fn finish(&self, state: Self::State, part: &Table, partition: usize) -> Result<Table> {
            PassThrough.finish(state.1, part, partition)
        }
    }

    #[test]
    fn a_timed_out_serial_unit_stops_at_the_next_morsel() {
        // Partition 0 is 20 rows, five 4-row morsels. Its first attempt
        // sleeps in morsel 0 past the deadline; the retry folds all five
        // while the written-off attempt is still asleep, and the written-off
        // attempt must stop at the next morsel boundary instead of folding
        // the rest of the partition on its worker.
        let config = SchedulerConfig::new(2).with_resilience(
            ResilienceConfig::none()
                .with_retry(RetryPolicy::immediate(2))
                .with_deadline(TaskDeadline::from_millis(30)),
        );
        let metrics = MetricsCollector::new();
        let input = parts(3, 20);
        let body = FirstAttemptSleeps(AtomicUsize::new(0));
        let out = run_wave(
            &config,
            &metrics,
            &RunControl::new(),
            0,
            &input,
            WaveOrder::Serial,
            4,
            &body,
        )
        .unwrap();
        assert_eq!(out, input);
        let journal = metrics.trace().snapshot();
        assert_eq!(journal.counters().count("dataflow.timeouts"), 1);
        let p0 = journal
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceEventKind::MorselDispatched { partition: 0, .. }
                )
            })
            .count();
        assert!(
            p0 < 2 * 5,
            "partition 0 dispatched {p0} morsels: two full passes"
        );
    }

    #[test]
    fn a_wave_of_at_most_one_morsel_runs_on_the_calling_thread() {
        let config = SchedulerConfig::new(4);
        let input = parts(3, 20); // 20 + 27 + 34 = 81 rows
        for order in [WaveOrder::Independent, WaveOrder::Serial] {
            // Exactly one morsel: every unit on this thread, same output.
            let metrics = MetricsCollector::new();
            let body = ThreadNoting(Mutex::new(HashSet::new()));
            let out = run_wave(
                &config,
                &metrics,
                &RunControl::new(),
                0,
                &input,
                order,
                81,
                &body,
            )
            .unwrap();
            assert_eq!(out, input);
            let here: HashSet<ThreadId> = [std::thread::current().id()].into();
            assert_eq!(*body.0.lock(), here, "{order:?}");
            // One row more than a morsel: the same wave takes the pool.
            let body = ThreadNoting(Mutex::new(HashSet::new()));
            let out = run_wave(
                &config,
                &metrics,
                &RunControl::new(),
                0,
                &input,
                order,
                80,
                &body,
            )
            .unwrap();
            assert_eq!(out, input);
            assert!(!body.0.lock().contains(&std::thread::current().id()));
        }
    }

    fn parts(n: usize, rows: usize) -> Vec<Table> {
        (0..n)
            .map(|i| random_table(rows + i * 7, 2, i as u64))
            .collect()
    }

    #[test]
    fn independent_morsels_reassemble_each_partition_exactly() {
        let config = SchedulerConfig::new(4);
        let metrics = MetricsCollector::new();
        let control = RunControl::new();
        let input = parts(3, 20);
        let out = run_wave(
            &config,
            &metrics,
            &control,
            0,
            &input,
            WaveOrder::Independent,
            5,
            &PassThrough,
        )
        .unwrap();
        assert_eq!(out.len(), input.len());
        for (o, i) in out.iter().zip(&input) {
            assert_eq!(o, i);
        }
        let totals = metrics.trace().snapshot().pipeline_totals();
        assert_eq!(totals.pipelines, 1);
        // 20, 27, 34 rows at 5 rows/morsel = 4 + 6 + 7 morsels.
        assert_eq!(totals.morsels, 17);
    }

    #[test]
    fn serial_units_chunk_in_row_order_and_reassemble() {
        let config = SchedulerConfig::new(3);
        let metrics = MetricsCollector::new();
        let control = RunControl::new();
        let input = parts(4, 11);
        let out = run_wave(
            &config,
            &metrics,
            &control,
            1,
            &input,
            WaveOrder::Serial,
            4,
            &PassThrough,
        )
        .unwrap();
        for (o, i) in out.iter().zip(&input) {
            assert_eq!(o, i);
        }
        // Serial morsel events per partition must be in ascending index
        // order (the chunk loop never reorders).
        let journal = metrics.trace().snapshot();
        for p in 0..input.len() {
            let seen: Vec<usize> = journal
                .events
                .iter()
                .filter_map(|e| match &e.kind {
                    TraceEventKind::MorselDispatched {
                        partition, morsel, ..
                    } if *partition == p => Some(*morsel),
                    _ => None,
                })
                .collect();
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            assert_eq!(seen, sorted, "partition {p} morsels out of order");
        }
    }

    #[test]
    fn empty_partitions_keep_schema_and_slot() {
        let config = SchedulerConfig::new(2);
        let metrics = MetricsCollector::new();
        let control = RunControl::new();
        let schema = random_table(1, 2, 0).schema().clone();
        let input = vec![Table::empty(schema.clone()), random_table(9, 2, 3)];
        for order in [WaveOrder::Independent, WaveOrder::Serial] {
            let out = run_wave(
                &config,
                &metrics,
                &control,
                0,
                &input,
                order,
                4,
                &PassThrough,
            )
            .unwrap();
            assert_eq!(out.len(), 2);
            assert_eq!(out[0].num_rows(), 0);
            assert_eq!(out[0].schema(), &schema);
            assert_eq!(&out[1], &input[1]);
        }
    }

    #[test]
    fn targeted_crash_is_retried_and_recorded() {
        let resilience = ResilienceConfig::none()
            .with_retry(RetryPolicy::immediate(3))
            .with_chaos(ChaosPlan::none().with_targeted(TargetedFault {
                stage: 0,
                partition: 1,
                attempt: 0,
                kind: FaultKind::Crash,
            }));
        let config = SchedulerConfig::new(2).with_resilience(resilience);
        let metrics = MetricsCollector::new();
        let control = RunControl::new();
        let input = parts(3, 10);
        let out = run_wave(
            &config,
            &metrics,
            &control,
            0,
            &input,
            WaveOrder::Serial,
            4,
            &PassThrough,
        )
        .unwrap();
        assert_eq!(&out[1], &input[1]);
        let m = metrics.finish(Duration::from_millis(1), 0, 0);
        assert_eq!(m.task_retries, 1);
        let journal = metrics.trace().snapshot();
        assert!(journal
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::FaultInjected { partition: 1, .. })));
    }

    #[test]
    fn exhausted_retries_fail_with_the_barrier_error() {
        let resilience = ResilienceConfig::none()
            .with_retry(RetryPolicy::immediate(2))
            .with_chaos(ChaosPlan::crashes(1.1, 9));
        let config = SchedulerConfig::new(2).with_resilience(resilience);
        let metrics = MetricsCollector::new();
        let control = RunControl::new();
        let input = parts(2, 6);
        let err = run_wave(
            &config,
            &metrics,
            &control,
            3,
            &input,
            WaveOrder::Serial,
            4,
            &PassThrough,
        )
        .unwrap_err();
        match err {
            FlowError::TaskFailed {
                stage,
                attempts,
                message,
                ..
            } => {
                assert_eq!(stage, 3);
                assert_eq!(attempts, 2);
                assert_eq!(message, "injected fault");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
        assert!(control.is_cancelled());
    }

    #[test]
    fn pre_cancelled_control_refuses_the_wave() {
        let config = SchedulerConfig::new(2);
        let metrics = MetricsCollector::new();
        let control = RunControl::new();
        control.cancel("operator abort");
        let err = run_wave(
            &config,
            &metrics,
            &control,
            0,
            &parts(2, 5),
            WaveOrder::Independent,
            4,
            &PassThrough,
        )
        .unwrap_err();
        assert_eq!(err, FlowError::Cancelled("operator abort".to_owned()));
        // Refused before dispatch: nothing beyond the journal's RunStarted.
        assert_eq!(metrics.trace().len(), 1);
    }
}
