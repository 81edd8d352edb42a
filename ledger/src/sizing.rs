//! How much work each workload and probe does.
//!
//! Sizes are fixed per profile, never derived from how fast the commit
//! under test runs: a pass is the same work on every commit, so store
//! size, snapshot cycles and peak memory are comparable. `--seconds` only
//! decides how many passes (or ops over the same data) a run repeats.

/// Memory budget of `batch_spill`, and of the spill probe.
pub const SPILL_BUDGET_BYTES: u64 = 256 << 10;

/// Event-time window of `stream_durable`: the fraud generator emits a row
/// every 10 ms, so a window is 100 rows.
pub const STREAM_WINDOW_MS: i64 = 1_000;
pub const STREAM_ROWS_PER_WINDOW: usize = 100;

/// Rows per Labs attempt, in `serve_cohort` and the labs/serve probes.
pub const ATTEMPT_ROWS: usize = 200;
/// Attempts per simulated trainee.
pub const ATTEMPTS_PER_TRAINEE: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Ops (or passes) a run completes whatever `--seconds` says.
    pub min_ops: usize,
    pub narrow_rows: usize,
    pub wide_rows: usize,
    pub stream_rows: usize,
    /// Trainees of the closed-loop phase of `serve_cohort`.
    pub saturate_trainees: usize,
    /// Trainees and request rate of the open-loop phase.
    pub paced_trainees: usize,
    pub paced_rate_per_s: f64,
    /// Rows of the table the dataflow and core probes run on.
    pub probe_rows: usize,
    /// Rows of the stream the streaming probes run on.
    pub probe_stream_rows: usize,
    /// Calls per timed probe (the metric is their median).
    pub probe_reps: usize,
    /// How long each engine probe runs untimed before its timed calls, ms.
    pub probe_warmup_ms: f64,
    /// Calls per microsecond-scale probe.
    pub probe_fast_reps: usize,
    /// Synced appends (1 000 are needed to support a p99).
    pub probe_sync_appends: usize,
    pub probe_snapshot_bytes: usize,
    pub probe_recover_records: usize,
    /// Trainees of the serve probe's paced phase.
    pub probe_paced_trainees: usize,
}

impl Sizing {
    /// What `BENCHMARK.json` runs and the baseline was taken with.
    pub const FULL: Sizing = Sizing {
        setups: 3,
        min_ops: 5,
        narrow_rows: 1_000_000,
        wide_rows: 400_000,
        stream_rows: 400_000,
        saturate_trainees: 100,
        paced_trainees: 50,
        paced_rate_per_s: 140.0,
        probe_rows: 100_000,
        probe_stream_rows: 100_000,
        probe_reps: 5,
        probe_warmup_ms: 400.0,
        probe_fast_reps: 200,
        probe_sync_appends: 1_000,
        probe_snapshot_bytes: 8 << 20,
        probe_recover_records: 10_000,
        probe_paced_trainees: 50,
    };

    /// About a hundredth of the above: drives every code path, oracle and
    /// probe in a few seconds for the crate's own tests. Measures nothing.
    pub const SMOKE: Sizing = Sizing {
        setups: 1,
        min_ops: 2,
        narrow_rows: 10_000,
        wide_rows: 20_000,
        stream_rows: 4_000,
        saturate_trainees: 3,
        paced_trainees: 3,
        paced_rate_per_s: 400.0,
        probe_rows: 4_000,
        probe_stream_rows: 1_000,
        probe_reps: 2,
        probe_warmup_ms: 0.0,
        probe_fast_reps: 5,
        probe_sync_appends: 20,
        probe_snapshot_bytes: 64 << 10,
        probe_recover_records: 100,
        probe_paced_trainees: 2,
    };
}
