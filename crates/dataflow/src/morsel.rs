//! Morsel-driven pipelined execution with work-stealing.
//!
//! The stage-barrier scheduler ([`crate::scheduler`]) hands each partition
//! to one worker as a single task, so a skewed partition pins the whole
//! wave on one core while the rest of the pool idles. This module is the
//! alternative execution path for chains of non-breaking operators: each
//! partition is cut into small row-range **morsels**, every worker owns a
//! deque of pre-assigned morsels (home worker = `partition % workers`),
//! and a worker that drains its own deque *steals* from the back of a
//! sibling's — stragglers on skewed partitions get helped instead of
//! stalling the wave. Materialisation still happens only at true pipeline
//! breakers; the columnar shuffle and the checkpoint codec are untouched.
//!
//! Two interleavings are supported. [`WaveOrder::Independent`] waves (pure
//! filter/project chains) let any worker run any morsel concurrently; the
//! per-partition outputs are concatenated in morsel order, which is
//! bit-identical to whole-partition execution because the operators are
//! elementwise. [`WaveOrder::Serial`] waves (sampling RNG draws,
//! partial-aggregation accumulators) keep each partition's morsels in
//! ascending row order on a single worker, and stealing moves whole
//! partitions between workers instead.
//!
//! Under a memory budget ([`ExecConfig::memory_budget_bytes`]
//! (crate::physical::ExecConfig)), partial-aggregation map output produced
//! by a serial wave may be spilled to paged files — but never from inside
//! this module: spilling happens on the orchestration thread *after* the
//! wave completes (see [`crate::physical`]), because a morsel task can be
//! retried or run speculatively, and a spill inside the task would leak
//! one page file per duplicate attempt.
//!
//! Resilience mirrors the barrier path attempt-for-attempt: retries run
//! inline on the claiming worker under the same
//! [`RetryPolicy`](crate::resilience::RetryPolicy), and every attempt goes
//! through the barrier scheduler's own
//! [`execute_attempt`](crate::scheduler::execute_attempt) — the same
//! deterministic [`ChaosPlan`] coordinates, the same `catch_unwind`
//! isolation, the same failure classification and final errors — so the
//! two paths are differential twins, which is exactly what
//! `tests/morsel_pipeline.rs` exercises. Task deadlines and speculation
//! need a coordinator watching wall clocks from outside the worker, so the
//! physical layer falls back to the barrier scheduler when either is
//! configured.
//!
//! A wave that needs one worker — its whole input
//! [fits one morsel](SchedulerConfig::runs_on_caller), or it has one unit —
//! spawns none: the caller runs the worker loop itself.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use toreador_data::table::Table;

use crate::error::{FlowError, Result};
use crate::fault::ChaosPlan;
use crate::metrics::MetricsCollector;
use crate::resilience::{RetryPolicy, RunControl};
use crate::scheduler::{cancellable_sleep, execute_attempt, Failure, SchedulerConfig};

/// How a wave's morsels may be interleaved across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaveOrder {
    /// Elementwise chains: any worker may run any morsel of any partition
    /// concurrently; outputs concatenate in morsel order.
    Independent,
    /// Order-carrying state (RNG draws, accumulators): each partition's
    /// morsels run in ascending row order on one worker.
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

/// One schedulable work unit: a single morsel for `Independent` waves, a
/// whole partition (chunked internally, in order) for `Serial` waves.
struct Unit {
    partition: usize,
    /// First morsel index covered (the chunk index; 0 for serial units).
    morsel: usize,
    lo: usize,
    hi: usize,
}

/// Everything the workers of one pipeline wave share.
struct WaveShared<'a, B: PipelineBody> {
    stage: usize,
    order: WaveOrder,
    morsel_rows: usize,
    parts: &'a [Table],
    units: &'a [Unit],
    body: &'a B,
    metrics: &'a MetricsCollector,
    control: &'a RunControl,
    policy: &'a RetryPolicy,
    chaos: &'a ChaosPlan,
    /// Per-worker steal deques of unit indices; a unit's home deque is
    /// `partition % workers`, so every recorded steal is a morsel the pool
    /// genuinely moved off a straggler.
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// One output slot per unit, written by whichever worker ran it.
    slots: Vec<Mutex<Option<Table>>>,
    halt: AtomicBool,
    /// First error wins, exactly like the barrier coordinator.
    error: Mutex<Option<FlowError>>,
    stage_retries: AtomicU32,
    dispatched: AtomicU64,
    stolen: AtomicU64,
}

impl<B: PipelineBody> WaveShared<'_, B> {
    /// The task coordinate used for chaos draws, retry-backoff seeding and
    /// journal spans: the partition for serial units (identical to the
    /// barrier path's per-partition tasks), the unit index for independent
    /// morsels.
    fn task_coord(&self, unit_idx: usize) -> usize {
        match self.order {
            WaveOrder::Serial => self.units[unit_idx].partition,
            WaveOrder::Independent => unit_idx,
        }
    }

    fn interrupted(&self) -> bool {
        self.halt.load(Ordering::SeqCst) || self.control.is_cancelled()
    }

    fn cancel_reason(&self) -> String {
        self.control
            .reason()
            .unwrap_or_else(|| "run cancelled".to_owned())
    }

    /// The wave is doomed: record it, trip run-wide cancellation, raise the
    /// halt flag. Mirrors the barrier coordinator's `fail_stage`.
    fn fail(&self, err: FlowError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            self.metrics.run_cancelled(self.stage, &err.to_string());
            self.control.cancel(err.to_string());
            *slot = Some(err);
        }
        self.halt.store(true, Ordering::SeqCst);
    }

    /// Reserve one retry against the stage and run budgets, mirroring the
    /// barrier coordinator's resolve_failure bookkeeping.
    fn reserve_retry(&self) -> bool {
        if let Some(budget) = self.policy.stage_retry_budget {
            if self
                .stage_retries
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |used| {
                    (used < budget).then_some(used + 1)
                })
                .is_err()
            {
                return false;
            }
        } else {
            self.stage_retries.fetch_add(1, Ordering::SeqCst);
        }
        if self.control.try_reserve_retry(self.policy.run_retry_budget) {
            true
        } else {
            self.stage_retries.fetch_sub(1, Ordering::SeqCst);
            false
        }
    }
}

/// Claim the next unit for worker `w`: own deque front first, then scan
/// siblings and steal from the *back* of the first non-empty one. Returns
/// the unit index and the deque it came from (its home worker).
fn claim(deques: &[Mutex<VecDeque<usize>>], w: usize) -> Option<(usize, usize)> {
    if let Some(u) = deques[w].lock().pop_front() {
        return Some((u, w));
    }
    let n = deques.len();
    for off in 1..n {
        let victim = (w + off) % n;
        if let Some(u) = deques[victim].lock().pop_back() {
            return Some((u, victim));
        }
    }
    None
}

/// Worker loop: claim units (own first, then steal) until every deque is
/// empty or the wave halts. Units are never re-queued — retries run inline
/// on the claiming worker — so an empty scan means this worker is done.
fn run_worker<B: PipelineBody>(shared: &WaveShared<'_, B>, w: usize, busy: &AtomicU64) {
    loop {
        if shared.halt.load(Ordering::SeqCst) {
            return;
        }
        if shared.control.is_cancelled() {
            // External cancel — mirror the barrier coordinator's on_tick:
            // re-raise with the canceller's reason (first reason wins).
            shared.fail(FlowError::Cancelled(shared.cancel_reason()));
            return;
        }
        let Some((unit_idx, home)) = claim(&shared.deques, w) else {
            return;
        };
        let unit = &shared.units[unit_idx];
        if home != w {
            shared.stolen.fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .morsel_stolen(shared.stage, unit.partition, unit.morsel, home, w);
        }
        let t0 = Instant::now();
        run_unit(shared, unit_idx, w);
        busy.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
    }
}

/// Run one unit to completion: attempt, and on transient failure retry
/// inline under the same policy/budget rules as the barrier coordinator.
fn run_unit<B: PipelineBody>(shared: &WaveShared<'_, B>, unit_idx: usize, w: usize) {
    let stage = shared.stage;
    let task = shared.task_coord(unit_idx);
    let mut attempt: u32 = 0;
    loop {
        shared.metrics.task_started(stage, task, attempt);
        let outcome = execute_attempt(
            shared.chaos,
            shared.metrics,
            (stage, task, attempt),
            || shared.interrupted(),
            || run_unit_body(shared, unit_idx, w),
        );
        shared
            .metrics
            .task_finished(stage, task, attempt, outcome.is_ok());
        let failure = match outcome {
            Ok(table) => {
                *shared.slots[unit_idx].lock() = Some(table);
                return;
            }
            Err(Failure::Aborted) => return,
            Err(failure) => failure,
        };
        let attempts_used = attempt + 1;
        if failure.is_transient()
            && attempts_used < shared.policy.max_attempts
            && shared.reserve_retry()
        {
            let next = attempts_used;
            let delay = shared.policy.delay_us(stage, task, next);
            if delay > 0 {
                shared.metrics.backoff_scheduled(stage, task, next, delay);
                if !cancellable_sleep(delay, &|| shared.interrupted()) {
                    return;
                }
            }
            shared.metrics.task_retried(stage, task, next);
            attempt = next;
            continue;
        }
        shared.fail(failure.into_error(stage, task, attempts_used, None));
        return;
    }
}

/// Push the unit's rows through the pipeline body: one morsel for
/// independent units, an in-order chunk loop for serial (whole-partition)
/// units. Every dispatched morsel gets a completion event — even a failing
/// one — so journal pairing is an invariant, not a happy-path property.
fn run_unit_body<B: PipelineBody>(
    shared: &WaveShared<'_, B>,
    unit_idx: usize,
    w: usize,
) -> Result<Table> {
    let unit = &shared.units[unit_idx];
    let part = &shared.parts[unit.partition];
    let mut state = shared.body.init(unit.partition, part)?;
    match shared.order {
        WaveOrder::Independent => {
            shared.metrics.morsel_dispatched(
                shared.stage,
                unit.partition,
                unit.morsel,
                (unit.hi - unit.lo) as u64,
                w,
            );
            shared.dispatched.fetch_add(1, Ordering::Relaxed);
            let r = shared
                .body
                .process(&mut state, part, unit.partition, unit.lo, unit.hi);
            shared
                .metrics
                .morsel_completed(shared.stage, unit.partition, unit.morsel);
            r?;
        }
        WaveOrder::Serial => {
            let mut lo = unit.lo;
            let mut morsel = unit.morsel;
            while lo < unit.hi {
                if shared.interrupted() {
                    // Cooperative mid-unit cancellation between morsels: the
                    // in-flight morsel always finishes (and pairs its
                    // events) before the unit aborts.
                    return Err(FlowError::Cancelled(shared.cancel_reason()));
                }
                let hi = (lo + shared.morsel_rows).min(unit.hi);
                shared.metrics.morsel_dispatched(
                    shared.stage,
                    unit.partition,
                    morsel,
                    (hi - lo) as u64,
                    w,
                );
                shared.dispatched.fetch_add(1, Ordering::Relaxed);
                let r = shared
                    .body
                    .process(&mut state, part, unit.partition, lo, hi);
                shared
                    .metrics
                    .morsel_completed(shared.stage, unit.partition, morsel);
                r?;
                lo = hi;
                morsel += 1;
            }
        }
    }
    shared.body.finish(state, part, unit.partition)
}

/// Run one pipeline wave over `parts`, returning one output table per
/// partition (in partition order). The caller owns wave numbering and
/// checkpointing; this function owns dispatch, stealing, retries and the
/// wave's journal events.
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
    if control.is_cancelled() {
        return Err(FlowError::Cancelled(
            control
                .reason()
                .unwrap_or_else(|| "run cancelled".to_owned()),
        ));
    }
    let morsel_rows = morsel_rows.max(1);
    // Units are built partition-major with morsels ascending, so each
    // partition's output chunks occupy contiguous slots in morsel order.
    let mut units: Vec<Unit> = Vec::new();
    let mut part_units: Vec<(usize, usize)> = Vec::with_capacity(parts.len());
    for (p, t) in parts.iter().enumerate() {
        let start = units.len();
        let n = t.num_rows();
        match order {
            WaveOrder::Serial => units.push(Unit {
                partition: p,
                morsel: 0,
                lo: 0,
                hi: n,
            }),
            WaveOrder::Independent => {
                if n == 0 {
                    // Empty partitions still contribute one zero-row morsel
                    // so the output keeps its schema and partition count.
                    units.push(Unit {
                        partition: p,
                        morsel: 0,
                        lo: 0,
                        hi: 0,
                    });
                } else {
                    let mut lo = 0;
                    let mut morsel = 0;
                    while lo < n {
                        let hi = (lo + morsel_rows).min(n);
                        units.push(Unit {
                            partition: p,
                            morsel,
                            lo,
                            hi,
                        });
                        lo = hi;
                        morsel += 1;
                    }
                }
            }
        }
        part_units.push((start, units.len()));
    }
    let input_rows = parts.iter().map(Table::num_rows).sum();
    let workers = if config.runs_on_caller(input_rows, morsel_rows) {
        1
    } else {
        config.threads.max(1).min(units.len())
    };
    let shared = WaveShared {
        stage,
        order,
        morsel_rows,
        parts,
        units: &units,
        body,
        metrics,
        control,
        policy: &config.resilience.retry,
        chaos: &config.resilience.chaos,
        deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        slots: units.iter().map(|_| Mutex::new(None)).collect(),
        halt: AtomicBool::new(false),
        error: Mutex::new(None),
        stage_retries: AtomicU32::new(0),
        dispatched: AtomicU64::new(0),
        stolen: AtomicU64::new(0),
    };
    for (i, u) in units.iter().enumerate() {
        shared.deques[u.partition % workers].lock().push_back(i);
    }
    let busy: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
    if workers == 1 {
        // One worker suffices: be it. No spawn, no join, and retries,
        // cancellation checks between units and journal pairing are the
        // worker loop's own, so they cannot differ from the pool's.
        run_worker(&shared, 0, &busy[0]);
    } else {
        crossbeam::thread::scope(|scope| {
            for w in 0..workers {
                let shared = &shared;
                let busy = &busy[w];
                scope.spawn(move |_| run_worker(shared, w, busy));
            }
        })
        .map_err(|_| FlowError::Cancelled("worker thread panicked".to_owned()))?;
    }
    if let Some(err) = shared.error.lock().take() {
        return Err(err);
    }
    let mut out = Vec::with_capacity(parts.len());
    for (start, end) in &part_units {
        let mut chunks = Vec::with_capacity(end - start);
        for slot in &shared.slots[*start..*end] {
            match slot.lock().take() {
                Some(t) => chunks.push(t),
                None => return Err(FlowError::Cancelled("task result missing".to_owned())),
            }
        }
        out.push(if chunks.len() == 1 {
            chunks.pop().expect("one chunk")
        } else {
            Table::concat(&chunks).map_err(FlowError::Data)?
        });
    }
    let slowest = busy
        .iter()
        .map(|b| b.load(Ordering::Relaxed))
        .max()
        .unwrap_or(0);
    let total: u64 = busy.iter().map(|b| b.load(Ordering::Relaxed)).sum();
    metrics.pipeline_completed(
        stage,
        parts.len(),
        shared.dispatched.load(Ordering::Relaxed),
        shared.stolen.load(Ordering::Relaxed),
        workers,
        slowest,
        total as f64 / workers as f64,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;
    use std::time::Duration;
    use toreador_data::generate::random_table;

    use crate::fault::{FaultKind, TargetedFault};
    use crate::resilience::ResilienceConfig;
    use crate::trace::TraceEventKind;

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
    fn stealing_claims_from_victim_backs() {
        let deques: Vec<Mutex<VecDeque<usize>>> =
            (0..3).map(|_| Mutex::new(VecDeque::new())).collect();
        deques[1].lock().extend([10, 11, 12]);
        // Worker 0's own deque is empty: it must steal from worker 1's
        // back, not its front.
        assert_eq!(claim(&deques, 0), Some((12, 1)));
        // Worker 1 pops its own front.
        assert_eq!(claim(&deques, 1), Some((10, 1)));
        assert_eq!(claim(&deques, 2), Some((11, 1)));
        assert_eq!(claim(&deques, 0), None);
    }

    #[test]
    fn targeted_crash_is_retried_inline_and_recorded() {
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
