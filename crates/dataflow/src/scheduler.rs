//! Task scheduling: a resilient scoped thread pool.
//!
//! The executor turns each wave into tasks — one per partition, or one per
//! row-range unit of a morsel wave ([`crate::morsel`]); the scheduler fans
//! them out over numbered `std::thread::scope` workers and a coordinator
//! thread drives the stage's resilience policy (see
//! [`crate::resilience`]). This is the only code that dispatches, retries,
//! backs off, times out, speculates on or cancels an attempt:
//!
//! - every attempt runs under `catch_unwind`, so a panicking task becomes a
//!   classified [`FlowError::TaskPanicked`] instead of collapsing the pool;
//! - the [`ChaosPlan`] may crash, delay, or panic an attempt before the body
//!   runs — deterministically, from the plan's seed;
//! - transient failures (crashes, panics, timeouts) are retried under the
//!   [`RetryPolicy`]'s attempt and budget limits, with deterministic
//!   backoff; permanent failures (plan bugs) trip cooperative cancellation
//!   so in-flight workers stop claiming tasks instead of finishing the
//!   doomed stage;
//! - a per-task deadline watchdog declares overdue attempts
//!   [`FlowError::TaskTimedOut`] and cancels them cooperatively;
//! - straggling tasks may get one speculative backup attempt — first
//!   completion wins, the loser is cancelled and recorded.
//!
//! Cancellation is cooperative: injected delays wake promptly, and a body
//! that reads its [`Attempt`] (a morsel unit, between morsels) stops at its
//! next check, but a body cannot be interrupted mid-flight (scoped threads
//! borrow the task closures, so workers must join before the stage
//! returns). A timed-out body therefore stops counting — its retry races
//! ahead — but still occupies a worker until it returns or checks.
//!
//! A wave whose whole input is at most one morsel gets no pool at all
//! ([`SchedulerConfig::runs_on_caller`]): the same coordinator and the same
//! attempt function run on the calling thread, one attempt at a time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use toreador_data::table::Table;

use crate::error::{FlowError, Result};
use crate::fault::{ChaosPlan, FaultKind};
use crate::metrics::MetricsCollector;
use crate::resilience::{
    classify, ErrorClass, ResilienceConfig, RetryPolicy, RunControl, SpeculationPolicy,
};
use crate::trace::TraceEventKind;

/// How many worker threads to use and how the stage behaves under faults.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    pub threads: usize,
    pub resilience: ResilienceConfig,
}

impl SchedulerConfig {
    /// `threads` workers, no retries, no chaos.
    pub fn new(threads: usize) -> Self {
        SchedulerConfig {
            threads,
            resilience: ResilienceConfig::none(),
        }
    }

    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// The size rule, read from the wave's input: a wave of at most one
    /// morsel — the unit the engine already calls "worth a worker" — runs
    /// on the calling thread, with no spawn and no hand-off. Spawning and
    /// joining a two-thread scope costs about 30 µs before any work moves,
    /// as much as a sub-morsel wave's rows cost to process. A deadline or
    /// speculation policy needs the coordinator free to watch the clock
    /// while a body runs, so either one keeps the wave on the pool.
    pub fn runs_on_caller(&self, input_rows: usize, morsel_rows: usize) -> bool {
        input_rows <= morsel_rows && self.resilience.spare_worker_hint() == 0
    }

    /// How many workers run a wave of `tasks`: one — the calling thread —
    /// if it [fits one morsel](Self::runs_on_caller), else `threads` capped
    /// at the task count. Deadlines and speculation add their spare workers
    /// on top of `threads` instead: a hung body cannot be interrupted, so
    /// its replacement must find a free thread even when every configured
    /// worker is pinned under a straggler.
    pub(crate) fn workers(&self, tasks: usize, input_rows: usize, morsel_rows: usize) -> usize {
        if self.runs_on_caller(input_rows, morsel_rows) {
            return 1;
        }
        let threads = self.threads.max(1);
        match self.resilience.spare_worker_hint() {
            0 => threads.min(tasks),
            spare => threads + spare,
        }
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig::new(default_threads())
    }
}

/// A sensible default: available parallelism, capped at 8 (the engine is
/// laptop-scale by design).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

/// Granularity of cancellable sleeps, µs: the longest a cancelled delay
/// keeps its worker occupied.
const TICK_US: u64 = 200;

/// How often the coordinator re-checks stragglers for speculation, µs.
const SPECULATION_TICK_US: u64 = 500;

/// One dispatched attempt, as seen by a worker.
struct AttemptSpec {
    task: usize,
    attempt: u32,
    cancel: Arc<AtomicBool>,
}

enum WorkerMsg {
    Started {
        task: usize,
        attempt: u32,
    },
    Finished {
        task: usize,
        attempt: u32,
        outcome: std::result::Result<Table, Failure>,
    },
}

/// Blocking MPMC work queue: std Mutex + Condvar (the vendored parking_lot
/// has no Condvar, and `std::sync::mpsc` receivers are single-consumer).
struct WorkQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
}

struct QueueInner {
    items: VecDeque<AttemptSpec>,
    closed: bool,
}

impl WorkQueue {
    fn new() -> Self {
        WorkQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, spec: AttemptSpec) {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(!q.closed, "dispatch after close");
        q.items.push_back(spec);
        drop(q);
        self.ready.notify_one();
    }

    /// Block until an item is available or the queue is closed.
    fn pop(&self) -> Option<AttemptSpec> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The next queued item, if any, without waiting: the caller-thread
    /// driver is its own only producer, so an empty queue stays empty.
    fn try_pop(&self) -> Option<AttemptSpec> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        q.items.pop_front()
    }

    /// Close the queue, waking all workers; returns the items that were
    /// never claimed.
    fn close(&self) -> Vec<AttemptSpec> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        let drained: Vec<AttemptSpec> = q.items.drain(..).collect();
        drop(q);
        self.ready.notify_all();
        drained
    }
}

/// State shared (by reference) with every worker.
struct Shared<'a, T> {
    stage: usize,
    tasks: &'a [T],
    queue: &'a WorkQueue,
    control: &'a RunControl,
    metrics: &'a MetricsCollector,
    chaos: &'a ChaosPlan,
}

/// The attempt a task body runs as.
pub(crate) struct Attempt<'a> {
    /// The pool worker running it, `0..workers`; 0 on the calling thread.
    pub(crate) worker: usize,
    cancel: &'a AtomicBool,
    control: &'a RunControl,
}

impl Attempt<'_> {
    /// The coordinator wrote this attempt off — the stage failed, its
    /// deadline expired, or it lost a speculation race — or the run was
    /// cancelled from outside, which a coordinator blocked in `recv` has not
    /// seen yet.
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst) || self.control.is_cancelled()
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_owned())
}

/// Sleep `micros` in [`TICK_US`] chunks; false if `running` was cancelled
/// before or during the sleep.
fn cancellable_sleep(micros: u64, running: &Attempt<'_>) -> bool {
    let mut remaining = micros;
    while remaining > 0 {
        if running.cancelled() {
            return false;
        }
        let chunk = remaining.min(TICK_US);
        std::thread::sleep(Duration::from_micros(chunk));
        remaining -= chunk;
    }
    !running.cancelled()
}

/// Worker loop: claim attempts until the queue closes.
fn run_worker<T>(shared: &Shared<'_, T>, worker: usize, tx: mpsc::Sender<WorkerMsg>)
where
    T: Fn(&Attempt<'_>) -> Result<Table> + Sync,
{
    while let Some(spec) = shared.queue.pop() {
        run_claimed(shared, &spec, worker, |msg| {
            let _ = tx.send(msg);
        });
    }
}

/// Run one claimed attempt on `worker` and `report` it to the coordinator —
/// over the channel from a pool worker, by a direct call on the
/// caller-thread path. In a cancelled run (a doomed stage cancels it too)
/// the attempt is aborted unexecuted — this is the cooperative-cancellation
/// fast path, and it does not wait for the coordinator to notice an
/// external cancel.
fn run_claimed<T>(
    shared: &Shared<'_, T>,
    spec: &AttemptSpec,
    worker: usize,
    mut report: impl FnMut(WorkerMsg),
) where
    T: Fn(&Attempt<'_>) -> Result<Table> + Sync,
{
    let (task, attempt) = (spec.task, spec.attempt);
    if shared.control.is_cancelled() {
        report(WorkerMsg::Finished {
            task,
            attempt,
            outcome: Err(Failure::Aborted),
        });
        return;
    }
    report(WorkerMsg::Started { task, attempt });
    let stage = shared.stage;
    shared.metrics.trace().record(TraceEventKind::TaskStarted {
        stage,
        partition: task,
        attempt,
    });
    let running = Attempt {
        worker,
        cancel: &spec.cancel,
        control: shared.control,
    };
    let outcome = execute_attempt(shared, task, attempt, &running);
    // Every started attempt finishes exactly once — timed-out,
    // panicked, and losing speculative attempts included.
    shared.metrics.trace().record(TraceEventKind::TaskFinished {
        stage,
        partition: task,
        attempt,
        ok: outcome.is_ok(),
    });
    report(WorkerMsg::Finished {
        task,
        attempt,
        outcome,
    });
}

/// Run one attempt: apply chaos, then the body under panic isolation. Pool
/// workers and the caller-thread path both come through here, so a chaos
/// decision is a pure function of `(seed, stage, task, attempt)` whichever
/// thread runs the attempt, and a panicking body never unwinds into it.
fn execute_attempt<T>(
    shared: &Shared<'_, T>,
    task: usize,
    attempt: u32,
    running: &Attempt<'_>,
) -> std::result::Result<Table, Failure>
where
    T: Fn(&Attempt<'_>) -> Result<Table> + Sync,
{
    let (stage, journal) = (shared.stage, shared.metrics.trace());
    let mut inject_panic = false;
    let fault = shared.chaos.fault_for(stage, task, attempt);
    if fault.is_some() {
        journal.record(TraceEventKind::FaultInjected {
            stage,
            partition: task,
            attempt,
        });
    }
    match fault {
        Some(FaultKind::Crash) => return Err(Failure::Crashed),
        Some(FaultKind::Panic) => inject_panic = true,
        Some(FaultKind::Delay { micros }) if !cancellable_sleep(micros, running) => {
            return Err(Failure::Aborted);
        }
        Some(FaultKind::Delay { .. }) | None => {}
    }
    if running.cancelled() {
        return Err(Failure::Aborted);
    }
    match catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            panic!("injected panic (chaos plan)");
        }
        (shared.tasks[task])(running)
    })) {
        Ok(Ok(table)) => Ok(table),
        Ok(Err(e)) => Err(Failure::Body(e)),
        Err(payload) => {
            let message = panic_message(payload);
            journal.record(TraceEventKind::TaskPanicked {
                stage,
                partition: task,
                attempt,
                message: message.clone(),
            });
            Err(Failure::Panicked(message))
        }
    }
}

/// Why an attempt did not produce a result.
enum Failure {
    /// Chaos crashed the attempt before the body ran.
    Crashed,
    /// The body (or an injected panic) panicked; isolated via catch_unwind.
    Panicked(String),
    /// The watchdog wrote the attempt off (never an attempt's own report).
    TimedOut,
    /// The body returned an error.
    Body(FlowError),
    /// The attempt was cancelled (or never started) and did no work.
    Aborted,
}

impl Failure {
    /// Worth another attempt: everything but a body error that
    /// [`classify`] calls permanent (a plan bug fails the same way twice).
    fn is_transient(&self) -> bool {
        match self {
            Failure::Body(e) => classify(e) == ErrorClass::Transient,
            _ => true,
        }
    }

    /// The error the run reports once `task` is out of attempts.
    fn into_error(
        self,
        stage: usize,
        task: usize,
        attempts: u32,
        deadline_us: Option<u64>,
    ) -> FlowError {
        match self {
            Failure::Crashed => FlowError::TaskFailed {
                stage,
                partition: task,
                attempts,
                message: "injected fault".to_owned(),
            },
            Failure::Panicked(message) => FlowError::TaskPanicked {
                stage,
                partition: task,
                attempts,
                message,
            },
            Failure::TimedOut => FlowError::TaskTimedOut {
                stage,
                partition: task,
                attempts,
                deadline_us: deadline_us.unwrap_or(0),
            },
            Failure::Body(e) => e,
            Failure::Aborted => FlowError::Cancelled("task attempt aborted".to_owned()),
        }
    }
}

struct RunningAttempt {
    attempt: u32,
    cancel: Arc<AtomicBool>,
    /// Set when the worker reports the attempt started.
    started_at: Option<Instant>,
    /// Timed out or lost a speculation race: its outcome is ignored (a late
    /// success is still accepted — same closure, same result).
    dead: bool,
    speculative: bool,
}

#[derive(Default)]
struct TaskState {
    /// Attempts dispatched so far (speculative included).
    attempts_used: u32,
    completed: bool,
    /// One backup per task.
    speculated: bool,
    /// A retry is queued or waiting out its backoff.
    retry_pending: bool,
    running: Vec<RunningAttempt>,
}

/// Coordinator: owns the stage's retry/deadline/speculation state machine.
/// Workers only execute; every decision lives here, on one thread.
struct Coordinator<'a> {
    stage: usize,
    policy: RetryPolicy,
    deadline_us: Option<u64>,
    speculation: Option<SpeculationPolicy>,
    metrics: &'a MetricsCollector,
    control: &'a RunControl,
    states: Vec<TaskState>,
    slots: Vec<Option<Table>>,
    /// Durations of completed attempts, for the speculation median.
    durations_us: Vec<u64>,
    /// Pending backoff releases: (due, task, attempt).
    backoff: BinaryHeap<Reverse<(Instant, usize, u32)>>,
    in_flight: usize,
    completed: usize,
    stage_retries_used: u32,
    error: Option<FlowError>,
}

impl<'a> Coordinator<'a> {
    fn new(
        stage: usize,
        resilience: &ResilienceConfig,
        n: usize,
        metrics: &'a MetricsCollector,
        control: &'a RunControl,
    ) -> Self {
        let mut states = Vec::with_capacity(n);
        states.resize_with(n, TaskState::default);
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        Coordinator {
            stage,
            policy: resilience.retry,
            deadline_us: resilience.deadline.map(|d| d.timeout_us),
            speculation: resilience.speculation,
            metrics,
            control,
            states,
            slots,
            durations_us: Vec::new(),
            backoff: BinaryHeap::new(),
            in_flight: 0,
            completed: 0,
            stage_retries_used: 0,
            error: None,
        }
    }

    /// Every task has its table or the stage has failed, and no dispatched
    /// attempt is still to report.
    fn finished(&self) -> bool {
        (self.completed == self.slots.len() || self.error.is_some()) && self.in_flight == 0
    }

    /// Dispatch the retries whose backoff has elapsed by `now`.
    fn release_due_retries(&mut self, queue: &WorkQueue, now: Instant) {
        while let Some(&Reverse((when, task, attempt))) = self.backoff.peek() {
            if when > now {
                break;
            }
            self.backoff.pop();
            self.release_retry(queue, task, attempt);
        }
    }

    /// Nothing running, nothing scheduled, not done: a logic bug must fail
    /// loudly rather than hang the run.
    fn fail_stalled(&mut self, queue: &WorkQueue) {
        self.fail_stage(
            FlowError::Cancelled("scheduler stalled with no work in flight".to_owned()),
            queue,
        );
    }

    fn dispatch(&mut self, queue: &WorkQueue, task: usize, attempt: u32, speculative: bool) {
        let cancel = Arc::new(AtomicBool::new(false));
        let st = &mut self.states[task];
        st.running.push(RunningAttempt {
            attempt,
            cancel: Arc::clone(&cancel),
            started_at: None,
            dead: false,
            speculative,
        });
        st.attempts_used = st.attempts_used.max(attempt + 1);
        self.in_flight += 1;
        queue.push(AttemptSpec {
            task,
            attempt,
            cancel,
        });
    }

    /// A backoff delay elapsed (or was zero): dispatch the retry now.
    fn release_retry(&mut self, queue: &WorkQueue, task: usize, attempt: u32) {
        self.states[task].retry_pending = false;
        if self.error.is_some() || self.states[task].completed {
            return;
        }
        self.metrics.trace().record(TraceEventKind::TaskRetried {
            stage: self.stage,
            partition: task,
            attempt,
        });
        self.dispatch(queue, task, attempt, false);
    }

    /// Latest possible instant to wake even if no worker reports anything.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        // Once the stage has failed we are only draining in-flight attempts;
        // overdue timers would otherwise busy-spin the coordinator.
        if self.error.is_some() {
            return None;
        }
        let mut next: Option<Instant> = None;
        if let Some(Reverse((when, _, _))) = self.backoff.peek() {
            next = Some(*when);
        }
        if let Some(dl) = self.deadline_us {
            for st in &self.states {
                if st.completed {
                    continue;
                }
                for r in &st.running {
                    if r.dead {
                        continue;
                    }
                    if let Some(started) = r.started_at {
                        let expiry = started + Duration::from_micros(dl);
                        next = Some(next.map_or(expiry, |n| n.min(expiry)));
                    }
                }
            }
        }
        if let Some(spec) = self.speculation {
            if self.in_flight > 0 && self.durations_us.len() >= spec.min_samples {
                let tick = now + Duration::from_micros(SPECULATION_TICK_US);
                next = Some(next.map_or(tick, |n| n.min(tick)));
            }
        }
        // Floor the wait so an already-due timer cannot busy-spin recv.
        next.map(|n| {
            n.saturating_duration_since(now)
                .max(Duration::from_micros(50))
        })
    }

    fn handle(&mut self, msg: WorkerMsg, queue: &WorkQueue) {
        match msg {
            WorkerMsg::Started { task, attempt } => {
                if let Some(r) = self.states[task]
                    .running
                    .iter_mut()
                    .find(|r| r.attempt == attempt)
                {
                    r.started_at = Some(Instant::now());
                }
            }
            WorkerMsg::Finished {
                task,
                attempt,
                outcome,
            } => {
                self.in_flight -= 1;
                let st = &mut self.states[task];
                let entry = match st.running.iter().position(|r| r.attempt == attempt) {
                    Some(pos) => st.running.remove(pos),
                    None => return,
                };
                match outcome {
                    Ok(table) => self.on_success(task, entry, table),
                    Err(failure) => self.on_failure(task, entry, failure, queue),
                }
            }
        }
    }

    /// First completion wins — even a late success from an attempt the
    /// watchdog had written off (same closure, same result).
    fn on_success(&mut self, task: usize, entry: RunningAttempt, table: Table) {
        let st = &mut self.states[task];
        if self.error.is_some() || st.completed {
            return;
        }
        st.completed = true;
        st.retry_pending = false;
        self.completed += 1;
        self.slots[task] = Some(table);
        if let Some(started) = entry.started_at {
            self.durations_us.push(started.elapsed().as_micros() as u64);
        }
        // Settle any speculation race and cancel the other attempts.
        let raced = entry.speculative || st.running.iter().any(|r| r.speculative);
        if raced {
            self.metrics.trace().record(TraceEventKind::SpeculativeWon {
                stage: self.stage,
                partition: task,
                attempt: entry.attempt,
            });
        }
        for r in &mut st.running {
            r.cancel.store(true, Ordering::SeqCst);
            if raced && !r.dead {
                self.metrics
                    .trace()
                    .record(TraceEventKind::SpeculativeLost {
                        stage: self.stage,
                        partition: task,
                        attempt: r.attempt,
                    });
            }
            r.dead = true;
        }
    }

    fn on_failure(
        &mut self,
        task: usize,
        entry: RunningAttempt,
        failure: Failure,
        queue: &WorkQueue,
    ) {
        if self.error.is_some() || self.states[task].completed || entry.dead {
            return;
        }
        if self.control.is_cancelled() {
            // No retries in a cancelled run: fail with the canceller's
            // reason, not this attempt's.
            self.on_tick(queue);
            return;
        }
        self.resolve_failure(task, failure, queue);
    }

    /// Decide whether a failed task gets another attempt or dooms the stage.
    fn resolve_failure(&mut self, task: usize, failure: Failure, queue: &WorkQueue) {
        if failure.is_transient() {
            let st = &self.states[task];
            if st.retry_pending || st.running.iter().any(|r| !r.dead) {
                // A recovery path (retry or surviving attempt) is already
                // in motion for this task.
                return;
            }
            let within_attempts = st.attempts_used < self.policy.max_attempts;
            let within_stage = self
                .policy
                .stage_retry_budget
                .map_or(true, |b| self.stage_retries_used < b);
            if within_attempts
                && within_stage
                && self.control.try_reserve_retry(self.policy.run_retry_budget)
            {
                self.stage_retries_used += 1;
                let attempt = st.attempts_used;
                let delay = self.policy.delay_us(self.stage, task, attempt);
                self.states[task].retry_pending = true;
                if delay == 0 {
                    self.release_retry(queue, task, attempt);
                } else {
                    self.metrics
                        .trace()
                        .record(TraceEventKind::BackoffScheduled {
                            stage: self.stage,
                            partition: task,
                            attempt,
                            delay_us: delay,
                        });
                    self.backoff.push(Reverse((
                        Instant::now() + Duration::from_micros(delay),
                        task,
                        attempt,
                    )));
                }
                return;
            }
        }
        let attempts = self.states[task].attempts_used;
        let err = failure.into_error(self.stage, task, attempts, self.deadline_us);
        self.fail_stage(err, queue);
    }

    /// The stage is doomed: record it, trip run-wide cancellation (which
    /// every worker checks before starting an attempt), cancel running
    /// attempts, and drop unclaimed work.
    fn fail_stage(&mut self, err: FlowError, queue: &WorkQueue) {
        if self.error.is_some() {
            return;
        }
        self.metrics.trace().record(TraceEventKind::RunCancelled {
            stage: self.stage,
            reason: err.to_string(),
        });
        self.control.cancel(err.to_string());
        self.error = Some(err);
        self.backoff.clear();
        for st in &self.states {
            for r in &st.running {
                r.cancel.store(true, Ordering::SeqCst);
            }
        }
        // Unclaimed attempts never ran and never will: uncount them.
        let dropped = queue.close();
        self.in_flight -= dropped.len();
    }

    /// Periodic duties: expire deadlines, launch speculation.
    fn on_tick(&mut self, queue: &WorkQueue) {
        if self.error.is_some() {
            return;
        }
        // An external cancel — operator interrupt, engine teardown, a
        // sibling stage's permanent failure — trips the shared RunControl
        // from outside this wave. Honour it cooperatively: stop claiming,
        // cancel running attempts, fail with the canceller's reason
        // (control.cancel is first-reason-wins, so re-raising keeps it).
        if self.control.is_cancelled() {
            let reason = self
                .control
                .reason()
                .unwrap_or_else(|| "run cancelled".to_owned());
            self.fail_stage(FlowError::Cancelled(reason), queue);
            return;
        }
        if let Some(dl) = self.deadline_us {
            let mut expired: Vec<(usize, u32)> = Vec::new();
            for (task, st) in self.states.iter_mut().enumerate() {
                if st.completed {
                    continue;
                }
                for r in st.running.iter_mut() {
                    if r.dead {
                        continue;
                    }
                    if let Some(started) = r.started_at {
                        if started.elapsed().as_micros() as u64 >= dl {
                            r.dead = true;
                            r.cancel.store(true, Ordering::SeqCst);
                            expired.push((task, r.attempt));
                        }
                    }
                }
            }
            for (task, attempt) in expired {
                self.metrics.trace().record(TraceEventKind::TaskTimedOut {
                    stage: self.stage,
                    partition: task,
                    attempt,
                    deadline_us: dl,
                });
                self.resolve_failure(task, Failure::TimedOut, queue);
                if self.error.is_some() {
                    return;
                }
            }
        }
        let Some(spec) = self.speculation else {
            return;
        };
        if self.durations_us.len() < spec.min_samples {
            return;
        }
        let mut sorted = self.durations_us.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let threshold = ((median as f64) * spec.factor).max(TICK_US as f64) as u64;
        let mut launches: Vec<(usize, u32)> = Vec::new();
        for (task, st) in self.states.iter_mut().enumerate() {
            if st.completed || st.speculated || st.retry_pending {
                continue;
            }
            let mut live = st.running.iter().filter(|r| !r.dead);
            let (Some(only), None) = (live.next(), live.next()) else {
                continue;
            };
            if only.speculative {
                continue;
            }
            if let Some(started) = only.started_at {
                if started.elapsed().as_micros() as u64 >= threshold {
                    st.speculated = true;
                    launches.push((task, st.attempts_used));
                }
            }
        }
        for (task, attempt) in launches {
            self.metrics
                .trace()
                .record(TraceEventKind::SpeculativeLaunched {
                    stage: self.stage,
                    partition: task,
                    attempt,
                });
            self.dispatch(queue, task, attempt, true);
        }
    }
}

/// Run `tasks` (one per partition of `stage`) across the pool, returning
/// outputs in task order. Standalone form: uses a run control local to this
/// stage and, knowing nothing of the tasks' input, always takes the pool.
/// The engine threads one [`RunControl`] and each wave's input size through
/// all stages of a run via [`run_stage_controlled`].
pub fn run_stage<F>(
    config: &SchedulerConfig,
    metrics: &MetricsCollector,
    stage: usize,
    tasks: Vec<F>,
) -> Result<Vec<Table>>
where
    F: Fn() -> Result<Table> + Send + Sync,
{
    let control = RunControl::new();
    run_stage_controlled(config, metrics, &control, stage, tasks, usize::MAX, 0)
}

/// [`run_stage`] with a shared, run-wide [`RunControl`]: a stage refuses to
/// start once the run is cancelled, and run-level retry budgets accumulate
/// across stages. `input_rows` is the total the tasks read and `morsel_rows`
/// the engine's morsel size: a wave that
/// [fits one morsel](SchedulerConfig::runs_on_caller) runs on the calling
/// thread, through the same coordinator and the same attempt function.
pub fn run_stage_controlled<F>(
    config: &SchedulerConfig,
    metrics: &MetricsCollector,
    control: &RunControl,
    stage: usize,
    tasks: Vec<F>,
    input_rows: usize,
    morsel_rows: usize,
) -> Result<Vec<Table>>
where
    F: Fn() -> Result<Table> + Send + Sync,
{
    let tasks: Vec<_> = tasks
        .iter()
        .map(|task| move |_: &Attempt<'_>| task())
        .collect();
    run_tasks(
        config,
        metrics,
        control,
        stage,
        &tasks,
        input_rows,
        morsel_rows,
    )
}

/// [`run_stage_controlled`] for bodies that read the [`Attempt`] they run
/// as — which worker runs it, and whether it was cancelled.
pub(crate) fn run_tasks<T>(
    config: &SchedulerConfig,
    metrics: &MetricsCollector,
    control: &RunControl,
    stage: usize,
    tasks: &[T],
    input_rows: usize,
    morsel_rows: usize,
) -> Result<Vec<Table>>
where
    T: Fn(&Attempt<'_>) -> Result<Table> + Sync,
{
    let n = tasks.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if control.is_cancelled() {
        return Err(FlowError::Cancelled(
            control
                .reason()
                .unwrap_or_else(|| "run cancelled".to_owned()),
        ));
    }
    let queue = WorkQueue::new();
    let shared = Shared {
        stage,
        tasks,
        queue: &queue,
        control,
        metrics,
        chaos: &config.resilience.chaos,
    };
    let mut co = Coordinator::new(stage, &config.resilience, n, metrics, control);
    for task in 0..n {
        co.dispatch(&queue, task, 0, false);
    }
    if config.runs_on_caller(input_rows, morsel_rows) {
        drive_on_caller(&shared, &mut co);
    } else {
        let workers = config.workers(n, input_rows, morsel_rows);
        drive_pool(workers, &shared, &mut co)?;
    }
    if let Some(err) = co.error {
        return Err(err);
    }
    let mut out = Vec::with_capacity(n);
    for slot in co.slots {
        match slot {
            Some(table) => out.push(table),
            None => return Err(FlowError::Cancelled("task result missing".to_owned())),
        }
    }
    Ok(out)
}

/// Drive the wave on the calling thread, worker 0: claim the next queued
/// attempt, run it here, hand its reports straight to the coordinator.
/// Between attempts the coordinator's tick honours external cancellation
/// exactly as it does between worker messages; a pending retry backoff is
/// waited out in cancellable ticks. No watchdog can fire — the size rule
/// admits no deadline or speculation policy — so nothing here needs a
/// second thread.
fn drive_on_caller<T>(shared: &Shared<'_, T>, co: &mut Coordinator<'_>)
where
    T: Fn(&Attempt<'_>) -> Result<Table> + Sync,
{
    let queue = shared.queue;
    loop {
        let now = Instant::now();
        co.release_due_retries(queue, now);
        if co.finished() {
            break;
        }
        if let Some(spec) = queue.try_pop() {
            run_claimed(shared, &spec, 0, |msg| co.handle(msg, queue));
        } else if let Some(wait) = co.next_timeout(now) {
            std::thread::sleep(wait.min(Duration::from_micros(TICK_US)));
        } else {
            co.fail_stalled(queue);
        }
        co.on_tick(queue);
    }
}

/// Drive the wave across `workers` scoped pool threads, numbered from 0:
/// they claim attempts from the queue and report over a channel; this
/// thread is the coordinator.
fn drive_pool<T>(workers: usize, shared: &Shared<'_, T>, co: &mut Coordinator<'_>) -> Result<()>
where
    T: Fn(&Attempt<'_>) -> Result<Table> + Sync,
{
    let queue = shared.queue;
    let (done_tx, done_rx) = mpsc::channel::<WorkerMsg>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let tx = done_tx.clone();
                scope.spawn(move || run_worker(shared, worker, tx))
            })
            .collect();
        drop(done_tx);
        loop {
            let now = Instant::now();
            co.release_due_retries(queue, now);
            if co.finished() {
                break;
            }
            if co.in_flight == 0 && co.backoff.is_empty() {
                co.fail_stalled(queue);
                continue;
            }
            let received = match co.next_timeout(now) {
                None => done_rx
                    .recv()
                    .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
                Some(wait) => done_rx.recv_timeout(wait),
            };
            match received {
                Ok(msg) => co.handle(msg, queue),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Every worker is gone, so no attempt in flight can
                    // report again: waiting for one would never end.
                    co.fail_stage(
                        FlowError::Cancelled("worker pool disconnected".to_owned()),
                        queue,
                    );
                    break;
                }
            }
            co.on_tick(queue);
        }
        queue.close();
        // Joining takes a worker's panic (one outside an attempt's
        // `catch_unwind`), so it fails the stage classified instead of
        // unwinding through the caller.
        let mut panicked = false;
        for handle in handles {
            panicked |= handle.join().is_err();
        }
        if panicked {
            Err(FlowError::Cancelled("worker thread panicked".to_owned()))
        } else {
            Ok(())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use toreador_data::generate::random_table;

    use crate::fault::TargetedFault;
    use crate::resilience::TaskDeadline;

    /// `(input_rows, morsel_rows)` no wave fits: always the pool.
    const POOL: (usize, usize) = (usize::MAX, 0);
    /// `(input_rows, morsel_rows)` of a wave that fits one morsel.
    const ONE_MORSEL: (usize, usize) = (64, 64);

    type BoxedTask<'a> = Box<dyn Fn() -> Result<Table> + Send + Sync + 'a>;

    /// Four tasks that note the thread they ran on.
    fn thread_noting_tasks(seen: &Mutex<Vec<std::thread::ThreadId>>) -> Vec<BoxedTask<'_>> {
        (0..4)
            .map(|i| -> BoxedTask<'_> {
                Box::new(move || {
                    seen.lock().unwrap().push(std::thread::current().id());
                    Ok(random_table(4, 1, i))
                })
            })
            .collect()
    }

    fn make_tasks(n: usize) -> Vec<impl Fn() -> Result<Table> + Send + Sync> {
        (0..n)
            .map(|i| move || Ok(random_table(10 + i, 2, i as u64)))
            .collect()
    }

    #[test]
    fn results_arrive_in_task_order() {
        let config = SchedulerConfig::new(4);
        let metrics = MetricsCollector::new();
        let out = run_stage(&config, &metrics, 0, make_tasks(9)).unwrap();
        assert_eq!(out.len(), 9);
        for (i, t) in out.iter().enumerate() {
            assert_eq!(t.num_rows(), 10 + i);
        }
    }

    #[test]
    fn empty_task_list_is_fine() {
        let config = SchedulerConfig::default();
        let metrics = MetricsCollector::new();
        let out = run_stage(&config, &metrics, 0, Vec::<fn() -> Result<Table>>::new()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_still_completes() {
        let config = SchedulerConfig::new(1);
        let metrics = MetricsCollector::new();
        let out = run_stage(&config, &metrics, 0, make_tasks(5)).unwrap();
        assert_eq!(out.len(), 5);
    }

    /// Crash faults at `rate`, retried immediately up to `max_attempts`.
    fn crashes(rate: f64, seed: u64, max_attempts: u32) -> ResilienceConfig {
        ResilienceConfig::none()
            .with_retry(RetryPolicy::immediate(max_attempts))
            .with_chaos(ChaosPlan::crashes(rate, seed))
    }

    #[test]
    fn injected_faults_are_retried_and_counted() {
        // 50% failure rate with a generous budget: all tasks eventually pass.
        let config = SchedulerConfig::new(4).with_resilience(crashes(0.5, 9, 20));
        let metrics = MetricsCollector::new();
        let out = run_stage(&config, &metrics, 3, make_tasks(16)).unwrap();
        assert_eq!(out.len(), 16);
        let m = metrics.finish(std::time::Duration::ZERO, 0, 0);
        assert!(m.task_retries > 0, "some retries expected at 50% rate");
        assert!(m.tasks_run >= 16 + m.task_retries);
    }

    #[test]
    fn exhausted_retry_budget_fails_the_stage() {
        let config = SchedulerConfig::new(2).with_resilience(crashes(1.0, 0, 3));
        let metrics = MetricsCollector::new();
        let err = run_stage(&config, &metrics, 1, make_tasks(4)).unwrap_err();
        match err {
            FlowError::TaskFailed {
                stage, attempts, ..
            } => {
                assert_eq!(stage, 1);
                assert_eq!(attempts, 3);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn task_errors_propagate_without_retry() {
        let config = SchedulerConfig::new(2).with_resilience(crashes(0.0, 0, 5));
        let metrics = MetricsCollector::new();
        let tasks: Vec<Box<dyn Fn() -> Result<Table> + Send + Sync>> = vec![
            Box::new(|| Ok(random_table(5, 2, 0))),
            Box::new(|| Err(FlowError::Plan("deliberate".to_owned()))),
        ];
        let err = run_stage(&config, &metrics, 0, tasks).unwrap_err();
        assert!(matches!(err, FlowError::Plan(_)));
        let m = metrics.finish(std::time::Duration::ZERO, 0, 0);
        assert_eq!(m.task_retries, 0);
    }

    #[test]
    fn more_threads_than_tasks_is_safe() {
        let config = SchedulerConfig::new(16);
        let metrics = MetricsCollector::new();
        let out = run_stage(&config, &metrics, 0, make_tasks(2)).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn permanent_failure_stops_workers_claiming_tasks() {
        // Task 0 fails permanently at once; the other 63 sleep 1ms each. If
        // cancellation is cooperative, workers stop claiming long before all
        // 63 sleepers execute.
        let config = SchedulerConfig::new(4);
        let metrics = MetricsCollector::new();
        let executed = AtomicUsize::new(0);
        let executed_ref = &executed;
        let tasks: Vec<Box<dyn Fn() -> Result<Table> + Send + Sync>> = (0..64)
            .map(|i| -> Box<dyn Fn() -> Result<Table> + Send + Sync> {
                if i == 0 {
                    Box::new(|| Err(FlowError::Plan("doomed".to_owned())))
                } else {
                    Box::new(move || {
                        executed_ref.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(1));
                        Ok(random_table(3, 1, i as u64))
                    })
                }
            })
            .collect();
        let err = run_stage(&config, &metrics, 0, tasks).unwrap_err();
        assert!(matches!(err, FlowError::Plan(_)));
        let ran = executed.load(Ordering::SeqCst);
        assert!(
            ran < 63,
            "cancellation must prevent the doomed stage from running all tasks (ran {ran})"
        );
        // The journal records the cancellation and stays well formed.
        let trace = metrics.trace().snapshot();
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::RunCancelled { .. })));
        let spans = trace.task_spans();
        let starts = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::TaskStarted { .. }))
            .count();
        assert_eq!(spans.len(), starts, "every started attempt finished");
    }

    #[test]
    fn panicking_task_fails_run_with_classified_error() {
        let config = SchedulerConfig::new(4);
        let metrics = MetricsCollector::new();
        let tasks: Vec<Box<dyn Fn() -> Result<Table> + Send + Sync>> = vec![
            Box::new(|| Ok(random_table(5, 1, 0))),
            Box::new(|| panic!("task bug")),
        ];
        let err = run_stage(&config, &metrics, 2, tasks).unwrap_err();
        match err {
            FlowError::TaskPanicked {
                stage,
                partition,
                message,
                ..
            } => {
                assert_eq!(stage, 2);
                assert_eq!(partition, 1);
                assert!(message.contains("task bug"));
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
        // The pool is not poisoned: the same scheduler config runs again.
        let out = run_stage(&config, &metrics, 3, make_tasks(4)).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn panicking_once_task_succeeds_on_retry() {
        let config = SchedulerConfig::new(2)
            .with_resilience(ResilienceConfig::none().with_retry(RetryPolicy::immediate(3)));
        let metrics = MetricsCollector::new();
        let calls = AtomicUsize::new(0);
        let calls_ref = &calls;
        let tasks: Vec<Box<dyn Fn() -> Result<Table> + Send + Sync>> = vec![Box::new(move || {
            if calls_ref.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("flaky once");
            }
            Ok(random_table(7, 1, 1))
        })];
        let out = run_stage(&config, &metrics, 0, tasks).unwrap();
        assert_eq!(out[0].num_rows(), 7);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let trace = metrics.trace().snapshot();
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::TaskPanicked { .. })));
        assert_eq!(trace.counters().count("dataflow.retries"), 1);
    }

    #[test]
    fn backoff_delays_retries_and_is_recorded() {
        let config = SchedulerConfig::new(1).with_resilience(
            ResilienceConfig::none()
                .with_retry(RetryPolicy::fixed(2, 30_000))
                .with_chaos(ChaosPlan::none().with_targeted(TargetedFault {
                    stage: 0,
                    partition: 0,
                    attempt: 0,
                    kind: FaultKind::Crash,
                })),
        );
        let metrics = MetricsCollector::new();
        let start = Instant::now();
        let out = run_stage(&config, &metrics, 0, make_tasks(1)).unwrap();
        assert_eq!(out.len(), 1);
        assert!(
            start.elapsed() >= Duration::from_millis(25),
            "the retry must wait out its backoff"
        );
        let trace = metrics.trace().snapshot();
        let scheduled: Vec<u64> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::BackoffScheduled { delay_us, .. } => Some(delay_us),
                _ => None,
            })
            .collect();
        assert_eq!(scheduled, vec![30_000]);
        assert_eq!(trace.counters().count("dataflow.backoff_us"), 30_000);
    }

    #[test]
    fn stage_retry_budget_caps_total_retries() {
        // Every attempt crashes; per-task budget allows 10 attempts but the
        // stage only funds 2 retries, so the stage fails after 3 attempts.
        let config = SchedulerConfig::new(1).with_resilience(
            ResilienceConfig::none()
                .with_retry(RetryPolicy::immediate(10).with_stage_budget(2))
                .with_chaos(ChaosPlan::crashes(1.0, 0)),
        );
        let metrics = MetricsCollector::new();
        let err = run_stage(&config, &metrics, 0, make_tasks(1)).unwrap_err();
        match err {
            FlowError::TaskFailed { attempts, .. } => assert_eq!(attempts, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn run_budget_accumulates_across_stages_and_cancellation_sticks() {
        let config = SchedulerConfig::new(2).with_resilience(
            ResilienceConfig::none()
                .with_retry(RetryPolicy::immediate(10).with_run_budget(2))
                .with_chaos(ChaosPlan::crashes(1.0, 0)),
        );
        let metrics = MetricsCollector::new();
        let control = RunControl::new();
        let err = run_stage_controlled(
            &config,
            &metrics,
            &control,
            0,
            make_tasks(1),
            POOL.0,
            POOL.1,
        )
        .unwrap_err();
        assert!(matches!(err, FlowError::TaskFailed { attempts: 3, .. }));
        assert_eq!(control.run_retries_used(), 2);
        assert!(control.is_cancelled());
        // A later stage on the same run refuses to start.
        let err = run_stage_controlled(
            &config,
            &metrics,
            &control,
            1,
            make_tasks(4),
            POOL.0,
            POOL.1,
        )
        .unwrap_err();
        assert!(matches!(err, FlowError::Cancelled(_)));
    }

    #[test]
    fn deadline_turns_hung_attempt_into_timeout_and_retry_succeeds() {
        // First invocation stalls well past the deadline; the retry is
        // instant. The stage completes and records exactly one timeout.
        let config = SchedulerConfig::new(2).with_resilience(
            ResilienceConfig::none()
                .with_retry(RetryPolicy::immediate(3))
                .with_deadline(TaskDeadline::from_millis(20)),
        );
        let metrics = MetricsCollector::new();
        let calls = AtomicUsize::new(0);
        let calls_ref = &calls;
        let tasks: Vec<Box<dyn Fn() -> Result<Table> + Send + Sync>> = vec![Box::new(move || {
            if calls_ref.fetch_add(1, Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(120));
            }
            Ok(random_table(4, 1, 9))
        })];
        let out = run_stage(&config, &metrics, 0, tasks).unwrap();
        assert_eq!(out.len(), 1);
        let trace = metrics.trace().snapshot();
        let counters = trace.counters();
        assert_eq!(
            counters.count("dataflow.timeouts"),
            1,
            "the stalled attempt timed out"
        );
        assert!(counters.count("dataflow.retries") >= 1);
        // The timed-out attempt still closed its span.
        let starts = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::TaskStarted { .. }))
            .count();
        assert_eq!(trace.task_spans().len(), starts);
    }

    /// Worker threads that die outside the body's `catch_unwind` — here
    /// on a panic payload whose own drop panics — fail the stage as the
    /// classified `Cancelled("worker thread panicked")` once the pool is
    /// joined: the panic never unwinds into the caller, and the
    /// coordinator stops waiting for attempts no worker is left to report.
    #[test]
    fn dead_worker_threads_are_a_classified_cancellation() {
        struct PanicOnDrop;
        impl Drop for PanicOnDrop {
            fn drop(&mut self) {
                panic!("payload dropped");
            }
        }
        let config = SchedulerConfig::new(2);
        let metrics = MetricsCollector::new();
        let tasks: Vec<Box<dyn Fn() -> Result<Table> + Send + Sync>> = (0..2)
            .map(|_| -> Box<dyn Fn() -> Result<Table> + Send + Sync> {
                Box::new(|| std::panic::panic_any(PanicOnDrop))
            })
            .collect();
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| run_stage(&config, &metrics, 0, tasks)));
        match outcome {
            Ok(Err(FlowError::Cancelled(reason))) => assert_eq!(reason, "worker thread panicked"),
            Ok(other) => panic!("expected a classified cancellation, got {other:?}"),
            Err(_) => panic!("a worker panic unwound through the caller"),
        }
    }

    #[test]
    fn deadline_exhaustion_fails_cleanly_with_timeout_error() {
        let config = SchedulerConfig::new(2).with_resilience(
            ResilienceConfig::none()
                .with_retry(RetryPolicy::immediate(2))
                .with_deadline(TaskDeadline::from_millis(10)),
        );
        let metrics = MetricsCollector::new();
        let tasks: Vec<Box<dyn Fn() -> Result<Table> + Send + Sync>> = vec![Box::new(move || {
            std::thread::sleep(Duration::from_millis(80));
            Ok(random_table(4, 1, 9))
        })];
        let err = run_stage(&config, &metrics, 5, tasks).unwrap_err();
        match err {
            FlowError::TaskTimedOut {
                stage, deadline_us, ..
            } => {
                assert_eq!(stage, 5);
                assert_eq!(deadline_us, 10_000);
            }
            other => panic!("expected TaskTimedOut, got {other:?}"),
        }
    }

    #[test]
    fn speculation_rescues_a_delayed_straggler() {
        // Chaos delays partition 7's first attempt by 400ms; everything
        // else is instant. Speculation launches a backup (attempt 1, which
        // the targeted fault does not hit) that wins, and the cancelled
        // original wakes promptly — the stage must finish far sooner than
        // the injected delay.
        let config = SchedulerConfig::new(4).with_resilience(
            ResilienceConfig::none()
                .with_retry(RetryPolicy::immediate(2))
                .with_speculation(SpeculationPolicy::new(3.0).with_min_samples(4))
                .with_chaos(ChaosPlan::none().with_targeted(TargetedFault {
                    stage: 0,
                    partition: 7,
                    attempt: 0,
                    kind: FaultKind::Delay { micros: 400_000 },
                })),
        );
        let metrics = MetricsCollector::new();
        let start = Instant::now();
        let out = run_stage(&config, &metrics, 0, make_tasks(16)).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(out.len(), 16);
        assert!(
            elapsed < Duration::from_millis(300),
            "speculation must beat the 400ms straggler (took {elapsed:?})"
        );
        // Partition 7's backup won. On a loaded host another task may also
        // cross the 3x-median line and get a backup; that changes no output.
        let trace = metrics.trace().snapshot();
        assert!(trace.events.iter().any(|e| matches!(
            e.kind,
            TraceEventKind::SpeculativeWon {
                stage: 0,
                partition: 7,
                ..
            }
        )));
    }

    #[test]
    fn spare_workers_survive_deadline_plus_speculation() {
        // Regression: with deadline AND speculation enabled and every
        // configured worker pinned under a hung first attempt (n == threads),
        // the coordinator used to drop the spare-worker sizing hint, so the
        // timeout-replacement attempts queued behind the very stragglers
        // they were meant to rescue. The fix adds the hint on top of the
        // pool; the retries must start long before the 300ms hangs clear.
        let config = SchedulerConfig::new(4).with_resilience(
            ResilienceConfig::none()
                .with_retry(RetryPolicy::immediate(3))
                .with_deadline(TaskDeadline::from_millis(25))
                // Enabled (that is the regression trigger) but effectively
                // inert: the median is never trusted with min_samples 100.
                .with_speculation(SpeculationPolicy::new(10.0).with_min_samples(100)),
        );
        let metrics = MetricsCollector::new();
        let tasks: Vec<Box<dyn Fn() -> Result<Table> + Send + Sync>> = (0..4)
            .map(|_| {
                let calls = AtomicUsize::new(0);
                Box::new(move || {
                    if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                        std::thread::sleep(Duration::from_millis(300));
                    }
                    Ok(random_table(4, 1, 9))
                }) as Box<dyn Fn() -> Result<Table> + Send + Sync>
            })
            .collect();
        let out = run_stage(&config, &metrics, 0, tasks).unwrap();
        assert_eq!(out.len(), 4);
        let trace = metrics.trace().snapshot();
        assert_eq!(trace.counters().count("dataflow.timeouts"), 4);
        // Elapsed time cannot show the fix (the scope join still waits out
        // the hung sleeps), so assert on journal timestamps: every retry
        // attempt must have STARTED while the first attempts were still
        // hung, which is only possible on the spare workers.
        for p in 0..4usize {
            let retry_start = trace
                .events
                .iter()
                .find_map(|e| match e.kind {
                    TraceEventKind::TaskStarted {
                        partition, attempt, ..
                    } if partition == p && attempt >= 1 => Some(e.at_us),
                    _ => None,
                })
                .expect("each timed-out task must get a replacement attempt");
            assert!(
                retry_start < 150_000,
                "partition {p} retry started at {retry_start}us — it queued behind the hung workers"
            );
        }
    }

    #[test]
    fn a_wave_of_at_most_one_morsel_runs_on_the_calling_thread() {
        let here = std::thread::current().id();
        let run = |config: &SchedulerConfig, (rows, morsel): (usize, usize)| {
            let seen = Mutex::new(Vec::new());
            let metrics = MetricsCollector::new();
            let out = run_stage_controlled(
                config,
                &metrics,
                &RunControl::new(),
                0,
                thread_noting_tasks(&seen),
                rows,
                morsel,
            )
            .unwrap();
            assert_eq!(out.len(), 4);
            seen.into_inner().unwrap()
        };
        let plain = SchedulerConfig::new(4);
        assert_eq!(run(&plain, ONE_MORSEL), vec![here; 4]);
        // One row over: the same tasks take the pool.
        assert!(!run(&plain, (65, 64)).contains(&here));
        // A watchdog needs this thread free to watch the clock, so either
        // policy keeps even a one-morsel wave on the pool.
        let deadline = SchedulerConfig::new(4).with_resilience(
            ResilienceConfig::none().with_deadline(TaskDeadline::from_millis(5_000)),
        );
        assert!(!run(&deadline, ONE_MORSEL).contains(&here));
        let speculation = SchedulerConfig::new(4).with_resilience(
            ResilienceConfig::none().with_speculation(SpeculationPolicy::new(3.0)),
        );
        assert!(!run(&speculation, ONE_MORSEL).contains(&here));
    }
}
