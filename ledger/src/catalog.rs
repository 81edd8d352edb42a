//! The names the ledger emits: every end-to-end and layer metric with its
//! unit and its direction. `BENCHMARK.json` must name exactly these (a
//! test checks it). Which end-to-end metric each layer metric should move,
//! on which workload, is the table in the README — written before anything
//! was measured.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    higher("rows_per_s", "rows/s"),
    lower("op_p50_ms", "ms"),
    lower("peak_rss_mb", "MiB"),
];

/// One number per layer boundary, from the probes of a traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // data
    higher("data.generate_rows_per_s", "rows/s"),
    // core
    lower("core.parse_us", "us"),
    lower("core.compile_us", "us"),
    lower("core.execute_ms", "ms"),
    lower("core.glue_ms", "ms"),
    // dataflow, isolating queries through Engine::run
    lower("dataflow.scan_ms", "ms"),
    lower("dataflow.narrow_ms", "ms"),
    lower("dataflow.agg_lowcard_ms", "ms"),
    lower("dataflow.agg_highcard_ms", "ms"),
    lower("dataflow.sort_ms", "ms"),
    lower("dataflow.shuffle_bytes", "bytes"),
    lower("dataflow.spill_tax_ratio", "ratio"),
    lower("dataflow.engine_setup_us", "us"),
    lower("dataflow.op_filter_ms", "ms"),
    lower("dataflow.op_project_ms", "ms"),
    lower("dataflow.op_aggregate_ms", "ms"),
    lower("dataflow.op_sort_ms", "ms"),
    lower("dataflow.morsels", "count"),
    higher("dataflow.morsels_stolen", "count"),
    lower("dataflow.worker_skew", "ratio"),
    lower("dataflow.spill_runs", "count"),
    lower("dataflow.spilled_rows", "count"),
    lower("dataflow.spilled_bytes", "bytes"),
    lower("dataflow.merged_runs", "count"),
    lower("dataflow.page_faults", "count"),
    lower("dataflow.page_evictions", "count"),
    lower("dataflow.peak_pool_bytes", "bytes"),
    lower("dataflow.checkpoint_premium_ratio", "ratio"),
    lower("dataflow.resume_ms", "ms"),
    // dataflow.streaming
    higher("streaming.plain_rows_per_s", "rows/s"),
    lower("streaming.durability_tax_ratio", "ratio"),
    higher("streaming.engine_busy_share", "ratio"),
    lower("streaming.stalls", "count"),
    lower("streaming.stall_ms", "ms"),
    lower("streaming.batches", "count"),
    lower("streaming.late_rows", "count"),
    lower("streaming.ack_log_bytes_per_batch", "bytes"),
    lower("streaming.ack_p99_us", "us"),
    lower("streaming.resume_replay_ms", "ms"),
    // store
    lower("store.append_us", "us"),
    lower("store.append_sync_p50_us", "us"),
    lower("store.append_sync_p99_us", "us"),
    lower("store.snapshot_ms", "ms"),
    lower("store.recover_ms", "ms"),
    lower("store.bytes_per_user_byte", "ratio"),
    lower("store.fsyncs_per_attempt", "count"),
    lower("store.write_bytes_per_attempt", "bytes"),
    lower("store.fsyncs_per_ack", "count"),
    lower("store.write_bytes_per_ack", "bytes"),
    // labs
    lower("labs.attempt_ms", "ms"),
    lower("labs.compare_us", "us"),
    lower("labs.open_ms", "ms"),
    // serve
    lower("serve.hub_attempt_ms", "ms"),
    lower("serve.gate_acquire_ns", "ns"),
    lower("serve.plan_hit_us", "us"),
    lower("serve.plan_miss_us", "us"),
    lower("serve.http_healthz_us", "us"),
    lower("serve.http_open_ms", "ms"),
    lower("serve.http_attempt_ms", "ms"),
    lower("serve.http_history_ms", "ms"),
    lower("serve.http_compare_ms", "ms"),
    lower("serve.http_overhead_us", "us"),
    higher("serve.plan_hit_ratio", "ratio"),
    lower("serve.rejected", "count"),
    lower("serve.sched_lag_p99_ms", "ms"),
    lower("serve.drain_ms", "ms"),
    lower("serve.reopen_ms", "ms"),
    lower("serve.store_bytes_per_attempt", "bytes"),
    lower("serve.attempt_p95_ms", "ms"),
    lower("serve.read_p50_ms", "ms"),
    // the ledger itself
    lower("trace_overhead_ratio", "ratio"),
];

/// Counts that a single-client, deterministic probe reproduces exactly,
/// repetition to repetition and run to run at one seed. Each probe behind
/// them runs at least twice and the run prints `repeats.<name>`, 1 or 0.
/// Three counts one would expect here are not, and the README records
/// them as findings: `dataflow.spilled_rows` and `dataflow.spilled_bytes`
/// differ by a fraction of a percent between repetitions although the
/// number of spilled runs does not, and `store.write_bytes_per_attempt`
/// differs because a run record embeds its own timings.
pub const EXACTLY_REPEATING: &[&str] = &[
    "dataflow.shuffle_bytes",
    "dataflow.morsels",
    "dataflow.spill_runs",
    "dataflow.merged_runs",
    "dataflow.page_faults",
    "dataflow.page_evictions",
    "dataflow.peak_pool_bytes",
    "streaming.batches",
    "streaming.late_rows",
    "store.fsyncs_per_attempt",
    "store.fsyncs_per_ack",
    "store.write_bytes_per_ack",
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        for name in EXACTLY_REPEATING {
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name}");
        }
    }
}
