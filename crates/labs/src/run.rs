//! Run execution and provenance records.
//!
//! Every Labs run leaves a [`RunRecord`]: the choices made, the plan that
//! was compiled, every measured indicator, objective outcomes, compliance
//! verdicts, and resource usage. Records are serialisable and are the raw
//! material of [`crate::compare`] — the paper's point that professional
//! platforms make "compar[ing] different runs of a composite BDA"
//! difficult, and the Labs make it a first-class operation.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use toreador_core::compile::{Bdaas, CampaignOutcome, CompiledCampaign};
use toreador_core::declarative::Indicator;
use toreador_dataflow::trace::{
    PipelineTotals, ResilienceTotals, RunTrace, SpillTotals, StreamTotals,
};

use crate::challenge::{Challenge, ChoiceVector};
use crate::error::{LabsError, Result};
use crate::scenario::scenario;

/// The version of the [`RunRecord`] on-disk schema this build writes.
/// Records persisted before versioning existed deserialize as version 0;
/// [`RunRecord::migrate`] upgrades them in place.
pub const RUN_RECORD_SCHEMA_VERSION: u32 = 1;

/// The provenance record of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// On-disk schema version (see [`RUN_RECORD_SCHEMA_VERSION`]). Absent
    /// in pre-versioning records, which therefore parse as 0.
    #[serde(default, deserialize_with = "de_schema_version")]
    pub schema_version: u32,
    /// Monotone per-session run number.
    pub run_id: u64,
    pub challenge_id: String,
    pub choices: ChoiceVector,
    /// Service ids, in composition order.
    pub plan_services: Vec<String>,
    pub platform: String,
    /// Indicator name -> measured value.
    pub indicators: BTreeMap<String, f64>,
    /// Objective rendered -> satisfied (None = unmeasured).
    pub objectives: Vec<(String, Option<bool>)>,
    /// Post-hoc compliance verdict, if a policy applied.
    pub compliant: Option<bool>,
    /// Consistency warnings surfaced at compile time.
    pub warnings: Vec<String>,
    /// Rows in / rows out.
    pub rows_in: usize,
    pub rows_out: usize,
    /// Total shuffle bytes across engine stages (a real resource signal).
    pub shuffle_bytes: u64,
    /// Text reports produced by the pipeline's services.
    pub reports: Vec<(String, String)>,
    /// Flight-recorder journals from every engine run the campaign made,
    /// in execution order. The raw material for per-operator and skew
    /// comparison across runs.
    pub traces: Vec<RunTrace>,
}

/// Missing `schema_version` (pre-versioning JSON) parses as 0, so old
/// records are distinguishable from current ones and can be migrated.
fn de_schema_version<'de, D: serde::Deserializer<'de>>(d: D) -> std::result::Result<u32, D::Error> {
    let v: Option<u32> = Deserialize::deserialize(d)?;
    Ok(v.unwrap_or(0))
}

impl RunRecord {
    /// Upgrade a record parsed from an older schema to the current one.
    /// Returns whether anything changed. Version 0 records carry every
    /// field the current schema needs (new fields default), so today the
    /// migration only stamps the version; future bumps hook their field
    /// rewrites here.
    pub fn migrate(&mut self) -> bool {
        let migrated = self.schema_version < RUN_RECORD_SCHEMA_VERSION;
        self.schema_version = RUN_RECORD_SCHEMA_VERSION;
        migrated
    }

    pub fn indicator(&self, indicator: Indicator) -> Option<f64> {
        self.indicators.get(indicator.name()).copied()
    }

    /// Fraction of objectives satisfied (unmeasured counts as unmet).
    pub fn objective_fraction(&self) -> f64 {
        if self.objectives.is_empty() {
            return 1.0;
        }
        let met = self
            .objectives
            .iter()
            .filter(|(_, s)| *s == Some(true))
            .count();
        met as f64 / self.objectives.len() as f64
    }

    /// Total operator-attributed time per operator name, summed across all
    /// engine runs this record's campaign made, in microseconds.
    pub fn operator_elapsed_us(&self) -> BTreeMap<String, u64> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for trace in &self.traces {
            for (op, us) in trace.operator_elapsed_us() {
                *totals.entry(op).or_insert(0) += us;
            }
        }
        totals
    }

    /// Vectorized batch counts per operator name, summed across all engine
    /// runs this record's campaign made, with whether any of the batches
    /// ran inside a fused narrow chain. Operators executed by the
    /// row-at-a-time engine report zero batches, so two records that differ
    /// only in engine mode diff cleanly here.
    pub fn operator_batches(&self) -> BTreeMap<String, (u64, bool)> {
        let mut totals: BTreeMap<String, (u64, bool)> = BTreeMap::new();
        for trace in &self.traces {
            for (op, (batches, fused)) in trace.operator_batches() {
                let entry = totals.entry(op).or_insert((0, false));
                entry.0 += batches;
                entry.1 |= fused;
            }
        }
        totals
    }

    /// The worst per-stage straggler factor observed across the record's
    /// engine runs, when any stage ran tasks.
    pub fn max_skew_ratio(&self) -> Option<f64> {
        self.traces
            .iter()
            .filter_map(|t| t.max_skew_ratio())
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }

    /// Aggregate resilience cost (retries, backoff, timeouts, panics,
    /// speculation, cancellations) across every engine run the campaign
    /// made. All-zero when the run was calm or recorded no traces.
    pub fn resilience_totals(&self) -> ResilienceTotals {
        self.traces
            .iter()
            .fold(ResilienceTotals::default(), |acc, t| {
                acc.merge(&t.resilience_totals())
            })
    }

    /// Aggregate morsel-pipeline activity (pipeline waves, morsels, steals,
    /// worker skew) across every engine run the campaign made. All-zero
    /// when every wave ran whole-partition tasks.
    pub fn pipeline_totals(&self) -> PipelineTotals {
        self.traces
            .iter()
            .fold(PipelineTotals::default(), |acc, t| {
                acc.merge(&t.pipeline_totals())
            })
    }

    /// Aggregate continuous-streaming activity (acked batches, backpressure
    /// stalls, watermark motion, late-data accounting) across every engine
    /// run the campaign made. All-zero for batch campaigns.
    pub fn stream_totals(&self) -> StreamTotals {
        self.traces.iter().fold(StreamTotals::default(), |acc, t| {
            acc.merge(&t.stream_totals())
        })
    }

    /// Aggregate out-of-core activity (spilled runs, merges, page faults,
    /// evictions, peak pool residency) across every engine run the campaign
    /// made. All-zero when no memory budget was set or it never bit.
    pub fn spill_totals(&self) -> SpillTotals {
        self.traces.iter().fold(SpillTotals::default(), |acc, t| {
            acc.merge(&t.spill_totals())
        })
    }
}

/// Execute one challenge attempt: instantiate the choices, compile through
/// the BDAaaS function, run on the scenario's data, and record everything.
///
/// `rows` overrides the scenario default (the session quota may cap it).
pub fn execute_attempt(
    bdaas: &Bdaas,
    challenge: &Challenge,
    choices: &ChoiceVector,
    run_id: u64,
    rows: Option<usize>,
    seed: u64,
) -> Result<RunRecord> {
    let spec = challenge.instantiate(choices)?;
    let scen = scenario(challenge.scenario_id)?;
    let rows = rows.unwrap_or(scen.default_rows);
    let data = scen.generate(rows, seed);
    let compiled = bdaas
        .compile(&spec, data.schema(), data.num_rows())
        .map_err(|e| LabsError::Campaign(e.to_string()))?;
    let aux = scen.auxiliary();
    let outcome = bdaas
        .run(&compiled, data, &aux)
        .map_err(|e| LabsError::Campaign(e.to_string()))?;
    Ok(record_outcome(
        run_id,
        challenge.id,
        choices,
        rows,
        &compiled,
        &outcome,
    ))
}

/// Execute one attempt against an **already compiled** campaign. This is
/// the hot half of [`execute_attempt`] with the compile step factored out,
/// so a serving daemon can coalesce identical concurrent compiles onto one
/// shared [`CompiledCampaign`] and still attach per-attempt engine state
/// (an external `RunControl`, a thread budget) to its own clone.
///
/// `compiled` must come from compiling `challenge.instantiate(choices)`
/// against the scenario's schema at `rows` rows — the caller owns that
/// contract (the plan cache keys on spec fingerprint + row count).
pub fn execute_prepared(
    bdaas: &Bdaas,
    challenge: &Challenge,
    choices: &ChoiceVector,
    run_id: u64,
    rows: usize,
    seed: u64,
    compiled: &CompiledCampaign,
) -> Result<RunRecord> {
    let scen = scenario(challenge.scenario_id)?;
    let data = scen.generate(rows, seed);
    let aux = scen.auxiliary();
    let outcome = bdaas
        .run(compiled, data, &aux)
        .map_err(|e| LabsError::Campaign(e.to_string()))?;
    Ok(record_outcome(
        run_id,
        challenge.id,
        choices,
        rows,
        compiled,
        &outcome,
    ))
}

/// Assemble the provenance record of a finished campaign run. Shared by
/// [`execute_attempt`] and ad-hoc runs (e.g. `toreador run --store`) that
/// persist outcomes without going through a challenge.
pub fn record_outcome(
    run_id: u64,
    label: &str,
    choices: &ChoiceVector,
    rows_in: usize,
    compiled: &CompiledCampaign,
    outcome: &CampaignOutcome,
) -> RunRecord {
    RunRecord {
        schema_version: RUN_RECORD_SCHEMA_VERSION,
        run_id,
        challenge_id: label.to_owned(),
        choices: choices.clone(),
        plan_services: compiled
            .procedural
            .composition
            .service_ids()
            .into_iter()
            .map(str::to_owned)
            .collect(),
        platform: compiled.deployment.platform.name.clone(),
        indicators: outcome.indicators.clone(),
        objectives: outcome
            .objectives
            .iter()
            .map(|o| (o.objective.to_string(), o.satisfied))
            .collect(),
        compliant: outcome.post_verdict.as_ref().map(|v| v.compliant),
        warnings: compiled.warnings.iter().map(|w| w.to_string()).collect(),
        rows_in,
        rows_out: outcome.output.num_rows(),
        shuffle_bytes: outcome
            .engine_metrics
            .iter()
            .map(|m| m.total_shuffle_bytes())
            .sum(),
        traces: outcome.engine_traces.clone(),
        reports: outcome.reports.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::challenges;

    #[test]
    fn attempt_produces_complete_record() {
        let bdaas = Bdaas::new();
        let all = challenges();
        let c = &all[0];
        let record = execute_attempt(&bdaas, c, &c.reference_vector(), 1, Some(800), 42).unwrap();
        assert_eq!(record.run_id, 1);
        assert_eq!(record.challenge_id, c.id);
        assert!(!record.plan_services.is_empty());
        assert!(record.indicators.contains_key("runtime_ms"));
        assert!(record.indicators.contains_key("cost"));
        assert_eq!(record.rows_in, 800);
        assert!(record.rows_out > 0);
        assert!((0.0..=1.0).contains(&record.objective_fraction()));
        // Provenance carries the engine's flight recordings.
        assert!(!record.traces.is_empty());
        assert!(!record.operator_elapsed_us().is_empty());
        if let Some(skew) = record.max_skew_ratio() {
            assert!(skew >= 1.0);
        }
    }

    #[test]
    fn records_are_deterministic_in_seed_modulo_timing() {
        let bdaas = Bdaas::new();
        let all = challenges();
        let c = &all[0];
        let a = execute_attempt(&bdaas, c, &c.reference_vector(), 1, Some(500), 7).unwrap();
        let b = execute_attempt(&bdaas, c, &c.reference_vector(), 2, Some(500), 7).unwrap();
        assert_eq!(a.plan_services, b.plan_services);
        assert_eq!(a.rows_out, b.rows_out);
        assert_eq!(a.shuffle_bytes, b.shuffle_bytes);
        // Timing-derived indicators may differ; data-derived ones must not.
        assert_eq!(
            a.indicator(Indicator::Coverage),
            b.indicator(Indicator::Coverage)
        );
    }

    #[test]
    fn bad_choice_vector_fails_cleanly() {
        let bdaas = Bdaas::new();
        let all = challenges();
        let c = &all[0];
        let err = execute_attempt(&bdaas, c, &vec!["no-such".into()], 1, Some(100), 1).unwrap_err();
        assert!(matches!(err, LabsError::BadChoice(_)));
    }

    #[test]
    fn records_serialize() {
        let bdaas = Bdaas::new();
        let all = challenges();
        let c = &all[0];
        let record = execute_attempt(&bdaas, c, &c.reference_vector(), 1, Some(300), 3).unwrap();
        assert_eq!(record.schema_version, RUN_RECORD_SCHEMA_VERSION);
        let j = serde_json::to_string(&record).unwrap();
        let back: RunRecord = serde_json::from_str(&j).unwrap();
        assert_eq!(record, back);
    }

    #[test]
    fn pre_versioning_records_parse_as_v0_and_migrate_forward() {
        let bdaas = Bdaas::new();
        let all = challenges();
        let c = &all[0];
        let record = execute_attempt(&bdaas, c, &c.reference_vector(), 1, Some(200), 5).unwrap();
        // Simulate a record written before the schema_version field existed
        // by dropping the field from its JSON.
        let mut v: serde_json::Value = serde_json::to_value(&record).unwrap();
        if let serde_json::Value::Object(map) = &mut v {
            map.remove("schema_version").expect("field is serialised");
        } else {
            panic!("record serialises to an object");
        }
        let old_json = serde_json::to_string(&v).unwrap();
        let mut back: RunRecord = serde_json::from_str(&old_json).unwrap();
        assert_eq!(back.schema_version, 0, "missing field reads as v0");
        assert!(back.migrate(), "v0 records need migration");
        assert_eq!(back.schema_version, RUN_RECORD_SCHEMA_VERSION);
        assert!(!back.migrate(), "migration is idempotent");
        // Nothing but the stamp changes for a v0 -> v1 upgrade.
        assert_eq!(back, record);
    }
}
