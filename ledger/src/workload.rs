//! The five workloads, their names, and the end-to-end numbers each run
//! reduces to.

use std::path::PathBuf;

use crate::batch::{self, BatchKind};
use crate::report::{Metric, Report};
use crate::sizing::Sizing;
use crate::span::Tracer;
use crate::{cohort, host, probes, stream};

/// Workload names are final: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchNarrow,
    BatchWide,
    BatchSpill,
    StreamDurable,
    ServeCohort,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::BatchNarrow,
        Workload::BatchWide,
        Workload::BatchSpill,
        Workload::StreamDurable,
        Workload::ServeCohort,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchNarrow => "batch_narrow",
            Workload::BatchWide => "batch_wide",
            Workload::BatchSpill => "batch_spill",
            Workload::StreamDurable => "stream_durable",
            Workload::ServeCohort => "serve_cohort",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How the process under test for `serve_cohort` is provided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Daemon {
    /// Spawn this `toreador` binary as `toreador serve` (the real thing).
    Child(PathBuf),
    /// An in-process hub behind an admission gate — no HTTP, no child;
    /// only for the smoke profile.
    InProcess,
}

/// One `ledger run`.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed part measures.
    pub seconds: f64,
    pub traced: bool,
    pub sizing: Sizing,
    pub daemon: Daemon,
    /// Where stores, spill files and checkpoints go. Emptied by the run.
    pub scratch: PathBuf,
}

/// What a workload's timed part reduces to. `ops_per_s`, `rows_per_s` and
/// `op_p50_ms` are defined on every workload; the optional ones only
/// where the table in the README says so.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub rows_per_s: f64,
    pub op_p50_ms: f64,
    /// Samples behind `op_p50_ms`.
    pub op_samples: usize,
    /// 99th percentile of the same sample, when 10 samples lie beyond it.
    pub op_p99_ms: Option<f64>,
    /// Median `history` + `compare` latency (`serve_cohort`).
    pub read_p50_ms: Option<f64>,
    /// Peak RSS of the process under test when that is not this process.
    pub child_peak_rss_mb: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Layer numbers the workload itself observed (from the journals the
    /// engine returned or the daemon's `/v1/status`), reported as extras.
    pub observed: Vec<Metric>,
}

fn run_workload(cfg: &RunConfig, tracer: &mut Tracer) -> Result<EndToEnd, String> {
    match cfg.workload {
        Workload::BatchNarrow => batch::run(BatchKind::Narrow, cfg, tracer),
        Workload::BatchWide => batch::run(BatchKind::Wide, cfg, tracer),
        Workload::BatchSpill => batch::run(BatchKind::Spill, cfg, tracer),
        Workload::StreamDurable => stream::run(cfg, tracer),
        Workload::ServeCohort => cohort::run(cfg, tracer),
    }
}

/// Run one workload in this process and reduce it to a [`Report`].
///
/// A plain run times each op with one timer and reports the end-to-end
/// metrics. A traced run repeats the workload twice at a quarter of the
/// time — once plain, once with ledger-side spans around every call into
/// a layer — then runs the layer probes under spans too, and reports the
/// layer metrics plus what tracing cost.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    host::fresh_dir(&cfg.scratch).map_err(|e| format!("scratch {:?}: {e}", cfg.scratch))?;
    let mut report = Report {
        workload: cfg.workload.name().to_owned(),
        seed: cfg.seed,
        traced: cfg.traced,
        ..Report::default()
    };
    let outcome = if cfg.traced {
        run_traced(cfg, &mut report)
    } else {
        run_plain(cfg, &mut report)
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    outcome.map(|()| report)
}

fn absorb(report: &mut Report, e2e: &EndToEnd) {
    report.attempted += e2e.attempted;
    report.failed += e2e.failed;
    report.problems.extend(e2e.problems.iter().cloned());
}

fn run_plain(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let e2e = run_workload(cfg, &mut Tracer::new(false))?;
    absorb(report, &e2e);
    let peak = e2e
        .child_peak_rss_mb
        .or_else(host::own_peak_rss_mb)
        .unwrap_or(0.0);
    report.metrics = vec![
        Metric::new("setup_s", e2e.setup_s, "s"),
        Metric::new("ops_per_s", e2e.ops_per_s, "1/s"),
        Metric::new("rows_per_s", e2e.rows_per_s, "rows/s"),
        Metric::new("op_p50_ms", e2e.op_p50_ms, "ms"),
        Metric::new("peak_rss_mb", peak, "MiB"),
    ];
    report
        .extra
        .push(Metric::new("op_samples", e2e.op_samples as f64, "count"));
    if let Some(p99) = e2e.op_p99_ms {
        report.extra.push(Metric::new("op_p99_ms", p99, "ms"));
    }
    if let Some(read) = e2e.read_p50_ms {
        report.extra.push(Metric::new("read_p50_ms", read, "ms"));
    }
    report.extra.extend(e2e.observed);
    Ok(())
}

fn run_traced(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let quarter = RunConfig {
        seconds: cfg.seconds / 4.0,
        sizing: Sizing {
            setups: 1,
            min_ops: cfg.sizing.min_ops.min(3),
            ..cfg.sizing
        },
        ..cfg.clone()
    };
    let plain = run_workload(&quarter, &mut Tracer::new(false))?;
    absorb(report, &plain);
    let mut tracer = Tracer::new(true);
    let traced = run_workload(&quarter, &mut tracer)?;
    absorb(report, &traced);

    let layers = probes::run(cfg, &mut tracer)?;
    report.problems.extend(layers.problems);
    report.metrics = layers.metrics;
    report.metrics.push(Metric::new(
        "trace_overhead_ratio",
        traced.op_p50_ms / plain.op_p50_ms,
        "ratio",
    ));
    report.extra = layers.extra;
    report
        .extra
        .push(Metric::new("plain_op_p50_ms", plain.op_p50_ms, "ms"));
    report
        .extra
        .push(Metric::new("traced_op_p50_ms", traced.op_p50_ms, "ms"));
    report.extra.extend(traced.observed);
    report.spans = tracer.spans().to_vec();
    Ok(())
}
