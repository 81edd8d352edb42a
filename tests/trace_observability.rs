//! Flight-recorder observability: integration tests for the trace journal.
//!
//! The journal is the single source of truth for run metrics, so these
//! tests pin down its guarantees end to end: spans pair up, retry events
//! agree with the metrics, operator row counts agree with results, and the
//! journal survives heavy concurrency without losing or duplicating
//! events.

use std::collections::HashSet;
use std::time::Duration;

use toreador_data::generate::clickstream;
use toreador_data::table::Table;
use toreador_dataflow::error::Result as FlowResult;
use toreador_dataflow::metrics::MetricsCollector;
use toreador_dataflow::prelude::*;
use toreador_dataflow::scheduler::{run_stage, SchedulerConfig};
use toreador_dataflow::trace::TraceEventKind;

/// Crash faults at `rate`, retried immediately up to `max_attempts`.
fn crashes(rate: f64, seed: u64, max_attempts: u32) -> ResilienceConfig {
    ResilienceConfig::none()
        .with_retry(RetryPolicy::immediate(max_attempts))
        .with_chaos(ChaosPlan::crashes(rate, seed))
}

/// The e-commerce revenue pipeline the Labs' first challenge runs.
fn ecommerce_run(resilience: ResilienceConfig) -> RunResult {
    let mut engine = Engine::new(
        EngineConfig::default()
            .with_threads(4)
            .with_resilience(resilience),
    );
    engine.register("clicks", clickstream(2_000, 11)).unwrap();
    let flow = engine
        .flow("clicks")
        .unwrap()
        .filter(col("action").eq(lit("purchase")))
        .unwrap()
        .aggregate(
            &["country"],
            vec![AggExpr::new(AggFunc::Sum, "price", "revenue")],
        )
        .unwrap()
        .sort(&["revenue"], true)
        .unwrap();
    engine.run(&flow).unwrap()
}

/// A (stage, partition, attempt) task-span key.
type SpanKey = (usize, usize, u32);

/// Collect (stage, partition, attempt) keys of started / finished spans.
fn span_keys(trace: &RunTrace) -> (Vec<SpanKey>, Vec<SpanKey>) {
    let mut started = Vec::new();
    let mut finished = Vec::new();
    for e in &trace.events {
        match e.kind {
            TraceEventKind::TaskStarted {
                stage,
                partition,
                attempt,
            } => started.push((stage, partition, attempt)),
            TraceEventKind::TaskFinished {
                stage,
                partition,
                attempt,
                ..
            } => finished.push((stage, partition, attempt)),
            _ => {}
        }
    }
    (started, finished)
}

#[test]
fn every_started_task_has_a_matching_end_event() {
    let r = ecommerce_run(ResilienceConfig::none());
    let (mut started, mut finished) = span_keys(&r.trace);
    assert!(!started.is_empty(), "the pipeline must run tasks");
    started.sort_unstable();
    finished.sort_unstable();
    assert_eq!(started, finished, "starts and finishes must pair up");
    // And the matcher agrees: one span per start.
    assert_eq!(r.trace.task_spans().len(), started.len());
}

#[test]
fn retry_events_equal_metrics_task_retries() {
    let r = ecommerce_run(crashes(0.4, 13, 15));
    let retries = r
        .trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::TaskRetried { .. }))
        .count() as u64;
    assert!(retries > 0, "a 40% fault rate must force retries");
    assert_eq!(retries, r.metrics.task_retries);
    // Every retry follows an injected fault.
    let faults = r
        .trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::FaultInjected { .. }))
        .count() as u64;
    assert!(faults >= retries);
}

#[test]
fn final_operator_rows_match_result_rows() {
    let r = ecommerce_run(ResilienceConfig::none());
    // The outermost operator (sort) records last; its output is the result.
    let last = r.metrics.nodes.last().expect("operators recorded");
    assert!(last.operator.starts_with("Sort"), "{:?}", last.operator);
    assert_eq!(last.rows_out, r.table.num_rows() as u64);
    // The journal tells the same story as the metrics, node for node.
    let from_trace: Vec<_> = r
        .trace
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceEventKind::OperatorFinished {
                operator, rows_out, ..
            } => Some((operator.clone(), *rows_out)),
            _ => None,
        })
        .collect();
    let from_metrics: Vec<_> = r
        .metrics
        .nodes
        .iter()
        .map(|n| (n.operator.clone(), n.rows_out))
        .collect();
    assert_eq!(from_trace, from_metrics);
}

#[test]
fn shuffle_waves_are_recorded_with_real_byte_counts() {
    let r = ecommerce_run(ResilienceConfig::none());
    let wave_bytes: u64 = r
        .trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::ShuffleWave { bytes, .. } => Some(bytes),
            _ => None,
        })
        .sum();
    assert!(wave_bytes > 0, "aggregate + sort must shuffle");
    assert_eq!(wave_bytes, r.metrics.total_shuffle_bytes());
}

#[test]
fn summary_reports_critical_path_and_skew_for_the_pipeline() {
    let r = ecommerce_run(ResilienceConfig::none());
    let summary = r.trace.summarize();
    assert!(!summary.stages.is_empty());
    assert_eq!(
        summary.critical_path_us,
        summary
            .stages
            .iter()
            .map(|s| s.slowest_task_us)
            .sum::<u64>()
    );
    for stage in summary.stages.iter().filter(|s| s.tasks > 0) {
        assert!(stage.skew_ratio >= 1.0, "skew is slowest/mean");
    }
    let rendered = summary.render();
    assert!(rendered.contains("critical path"));
    assert!(rendered.contains("skew"));
}

#[test]
fn stressed_journal_loses_nothing_and_duplicates_nothing() {
    // 16 workers, 64 tasks, 50% injected fault rate: heavy concurrent
    // recording from every worker thread.
    let config = SchedulerConfig::new(16).with_resilience(crashes(0.5, 21, 30));
    let metrics = MetricsCollector::new();
    let tasks: Vec<_> = (0..64)
        .map(|i| {
            move || -> FlowResult<Table> {
                Ok(toreador_data::generate::random_table(20 + i, 2, i as u64))
            }
        })
        .collect();
    let out = run_stage(&config, &metrics, 5, tasks).unwrap();
    assert_eq!(out.len(), 64);

    let trace = metrics.trace().snapshot();
    // Sequence numbers are dense: nothing was lost.
    for (i, e) in trace.events.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "dense sequence numbers");
    }
    // No (stage, partition, attempt) span starts or finishes twice.
    let (started, finished) = span_keys(&trace);
    let unique_started: HashSet<_> = started.iter().collect();
    let unique_finished: HashSet<_> = finished.iter().collect();
    assert_eq!(unique_started.len(), started.len(), "duplicate start span");
    assert_eq!(
        unique_finished.len(),
        finished.len(),
        "duplicate finish span"
    );
    // Every start has exactly one finish.
    let mut s = started.clone();
    let mut f = finished.clone();
    s.sort_unstable();
    f.sort_unstable();
    assert_eq!(s, f);
    // At 50% fault rate some attempts must have failed and retried.
    let m = metrics.finish(Duration::ZERO, 0, 0);
    assert!(m.task_retries > 0);
    assert_eq!(started.len() as u64, m.tasks_run);
}

#[test]
fn labs_provenance_carries_traces_and_compares_operators() {
    use toreador_core::compile::Bdaas;
    use toreador_labs::catalog::challenges;
    use toreador_labs::compare::RunComparison;
    use toreador_labs::run::execute_attempt;

    let bdaas = Bdaas::new();
    let all = challenges();
    let c = &all[0];
    let vectors = c.all_choice_vectors();
    assert!(vectors.len() >= 2, "need two distinct choice vectors");
    let a = execute_attempt(&bdaas, c, &vectors[0], 1, Some(600), 7).unwrap();
    let b = execute_attempt(&bdaas, c, &vectors[1], 2, Some(600), 7).unwrap();
    assert!(!a.traces.is_empty());
    assert!(!b.traces.is_empty());
    let d = RunComparison::diff(&a, &b).unwrap();
    assert!(
        !d.operator_deltas.is_empty(),
        "journal-backed records must yield operator deltas"
    );
    // Serialised provenance survives a round trip with traces attached.
    let json = serde_json::to_string(&a).unwrap();
    let back: toreador_labs::run::RunRecord = serde_json::from_str(&json).unwrap();
    assert_eq!(a, back);
}
