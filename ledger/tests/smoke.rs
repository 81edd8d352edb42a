//! The smoke profile: every workload, oracle and probe end to end at about
//! a hundredth of the benchmark's sizes, with an in-process hub instead of
//! the child daemon. It measures nothing; it proves the plumbing — and
//! that `BENCHMARK.json` names exactly the metrics the ledger emits.

use std::collections::BTreeSet;
use std::path::PathBuf;

use toreador_ledger::batch::{BatchKind, BatchSetup};
use toreador_ledger::catalog::{END_TO_END, PER_LAYER};
use toreador_ledger::report::Report;
use toreador_ledger::sizing::Sizing;
use toreador_ledger::span::{self_time_by_name, Tracer};
use toreador_ledger::stream::{self, StreamSetup};
use toreador_ledger::workload::{self, Daemon, RunConfig, Workload};

fn config(workload: Workload, traced: bool, tag: &str) -> RunConfig {
    RunConfig {
        workload,
        seed: 11,
        seconds: 0.2,
        traced,
        sizing: Sizing::SMOKE,
        daemon: Daemon::InProcess,
        scratch: std::env::temp_dir().join(format!("ledger-smoke-{tag}-{}", std::process::id())),
    }
}

fn names(report: &Report) -> Vec<&str> {
    report.metrics.iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn all_five_workloads_pass_their_oracles_and_emit_the_end_to_end_metrics() {
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    for w in Workload::ALL {
        let report = workload::run(&config(w, false, w.name()))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(report.correct(), "{}: {:?}", w.name(), report.problems);
        assert!(report.attempted >= 2, "{}", w.name());
        assert_eq!(names(&report), expected, "{}", w.name());
        for m in &report.metrics {
            assert!(
                m.value > 0.0 && m.value.is_finite(),
                "{} {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        // The contract line parses and carries exactly those metrics.
        let line: serde_json::Value = serde_json::from_str(&report.contract_line()).unwrap();
        let top = line.as_object().unwrap();
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(top.get("correct").unwrap().as_bool(), Some(true));
        let emitted: Vec<&str> = top
            .get("metrics")
            .unwrap()
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(emitted, expected);
    }
}

#[test]
fn serve_cohort_reports_its_own_metrics_as_extras() {
    let report = workload::run(&config(Workload::ServeCohort, false, "extras")).unwrap();
    assert!(report.correct(), "{:?}", report.problems);
    assert!(report.metric("read_p50_ms").unwrap() > 0.0);
    assert_eq!(report.metric("observed.serve.rejected"), Some(0.0));
    // Three choice vectors: a few compiles, then hits.
    let hit = report.metric("observed.serve.plan_hit_ratio").unwrap();
    assert!(
        hit > 0.0 && hit < 1.0,
        "plan cache saw hits and misses: {hit}"
    );
}

#[test]
fn a_traced_run_emits_every_layer_metric_and_a_span_per_layer_call() {
    let report = workload::run(&config(Workload::BatchNarrow, true, "traced")).unwrap();
    assert!(report.correct(), "{:?}", report.problems);
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names(&report), expected);
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let overhead = report.metric("trace_overhead_ratio").unwrap();
    assert!(
        overhead > 0.2 && overhead < 5.0,
        "traced / plain = {overhead}"
    );

    let by_name = self_time_by_name(&report.spans);
    for span in [
        "op",
        "core.parse",
        "core.compile",
        "core.execute",
        "dataflow.engine",
        "dataflow.scan",
        "streaming.durable",
        "store.append_sync",
        "labs.attempt",
        "serve.hub_attempt",
        "serve.attempt",
        "serve.drain",
    ] {
        assert!(
            by_name.contains_key(span),
            "no {span} span in {:?}",
            by_name.keys()
        );
    }
    // An op's children are the calls into core; an execute span's children
    // are the engines the outcome reported.
    let op = report.spans.iter().position(|s| s.name == "op").unwrap();
    let kids: BTreeSet<&str> = report
        .spans
        .iter()
        .filter(|s| s.parent == Some(op))
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        kids,
        BTreeSet::from(["core.parse", "core.compile", "core.execute"])
    );
    let (_, total_us, self_us) = by_name["core.execute"];
    assert!(
        self_us < total_us,
        "engine children take time out of core.execute"
    );
}

#[test]
fn a_wrong_batch_answer_fails_its_oracle() {
    for (kind, tag) in [
        (BatchKind::Narrow, "wrong-narrow"),
        (BatchKind::Spill, "wrong-spill"),
    ] {
        let cfg = config(Workload::BatchNarrow, false, tag);
        std::fs::create_dir_all(&cfg.scratch).unwrap();
        let setup = BatchSetup::build(kind, &cfg).unwrap();
        let (_, outcome) = setup.timed_op(&mut Tracer::new(false));
        let mut outcome = outcome.unwrap();
        assert_eq!(setup.check(&outcome), Vec::<String>::new());
        // Drop the last output row: fast, plausible, wrong.
        let rows = outcome.output.num_rows();
        outcome.output = outcome.output.slice(0, rows - 1).unwrap();
        assert!(
            !setup.check(&outcome).is_empty(),
            "{tag}: a short output passed"
        );
        std::fs::remove_dir_all(&cfg.scratch).unwrap();
    }
}

#[test]
fn a_wrong_stream_state_fails_its_oracle() {
    let scratch: PathBuf = config(Workload::StreamDurable, false, "wrong-stream").scratch;
    std::fs::create_dir_all(&scratch).unwrap();
    let rows = Sizing::SMOKE.stream_rows;
    let right = StreamSetup::build(rows, 5, &scratch).unwrap();
    let other = StreamSetup::build(rows, 6, &scratch).unwrap();
    let run = stream::run_pass(&right.table, None).unwrap();
    assert_eq!(stream::check(&right, &run), Vec::<String>::new());
    assert!(
        !stream::check(&other, &run).is_empty(),
        "another stream's state passed"
    );
    // Half the stream acks half the windows.
    let half = right.table.slice(0, rows / 2).unwrap();
    let short = stream::run_pass(&half, None).unwrap();
    assert!(stream::check(&right, &short)
        .iter()
        .any(|p| p.contains("batches acked")));
    std::fs::remove_dir_all(&scratch).unwrap();
}
