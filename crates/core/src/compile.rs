//! The BDAaaS function: declarative model in, executed campaign out.
//!
//! §2 of the paper: "BDAaaS can be seen as a function that takes as input
//! users' Big Data goals and preferences, and returns as output a
//! ready-to-be-executed Big Data pipeline." [`Bdaas::compile`] is that
//! function; [`Bdaas::run`] executes the result and measures every declared
//! indicator, so objectives become checkable facts.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

use toreador_catalog::builtin::standard_catalog;
use toreador_catalog::registry::Registry;
use toreador_data::schema::Schema;
use toreador_data::table::Table;
use toreador_privacy::audit::AuditEvent;
use toreador_privacy::checker::{check_manifest, check_output, PrivacyManifest, Verdict};
use toreador_privacy::policy::{DataClass, Policy};

use crate::consistency;
use crate::declarative::{CampaignSpec, Indicator, Objective, ProcessingMode};
use crate::deployment::{bind, builtin_platforms, DeploymentModel, PlatformDescriptor};
use crate::dsl::{parse_campaign, parse_column_list};
use crate::error::{CoreError, Result};
use crate::procedural::{plan, Composition, ProceduralModel};
use crate::service_impl::{execute_composition, PipelineState, ServiceContext};

/// The BDAaaS entry point: a catalogue, a platform menu, and named
/// policies.
pub struct Bdaas {
    registry: Registry,
    platforms: Vec<PlatformDescriptor>,
    policies: HashMap<String, Policy>,
}

impl Default for Bdaas {
    fn default() -> Self {
        Self::new()
    }
}

impl Bdaas {
    /// The standard configuration: built-in catalogue, built-in platforms,
    /// and the healthcare GDPR policy registered as "healthcare".
    pub fn new() -> Self {
        let mut policies = HashMap::new();
        policies.insert(
            "healthcare".to_owned(),
            toreador_privacy::policy::healthcare_default(),
        );
        Bdaas {
            registry: standard_catalog(),
            platforms: builtin_platforms(),
            policies,
        }
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn platforms(&self) -> &[PlatformDescriptor] {
        &self.platforms
    }

    /// Register a named policy for DSL `policy <name>` statements.
    pub fn add_policy(&mut self, name: impl Into<String>, policy: Policy) {
        self.policies.insert(name.into(), policy);
    }

    /// Parse DSL text into a declarative model (policies resolve against
    /// the registered names).
    pub fn parse(&self, text: &str) -> Result<CampaignSpec> {
        parse_campaign(text, &|name| self.policies.get(name).cloned())
    }

    /// The BDAaaS function: validate, plan, bind, and compliance-check.
    pub fn compile(
        &self,
        spec: &CampaignSpec,
        schema: &Schema,
        estimated_rows: usize,
    ) -> Result<CompiledCampaign> {
        let findings = consistency::check(spec, &self.registry, Some(schema));
        if !consistency::is_consistent(&findings) {
            return Err(CoreError::Inconsistent(consistency::render(&findings)));
        }
        let procedural = plan(spec, &self.registry)?;
        let deployment = bind(
            spec,
            &procedural,
            &self.registry,
            &self.platforms,
            estimated_rows,
        )?;
        let manifest = infer_manifest(spec, &procedural, schema);
        if let Some(policy) = &spec.policy {
            let verdict = check_manifest(policy, &manifest);
            if !verdict.compliant {
                let detail = verdict
                    .violations
                    .iter()
                    .map(|v| format!("{}: {}", v.requirement, v.detail))
                    .collect::<Vec<_>>()
                    .join("; ");
                return Err(CoreError::NonCompliant(detail));
            }
        }
        Ok(CompiledCampaign {
            spec: spec.clone(),
            warnings: findings,
            procedural,
            deployment,
            manifest,
        })
    }

    /// Execute a compiled campaign on the given input (plus any auxiliary
    /// datasets joins need).
    pub fn run(
        &self,
        compiled: &CompiledCampaign,
        input: Table,
        auxiliary: &HashMap<String, Table>,
    ) -> Result<CampaignOutcome> {
        match compiled.deployment.mode {
            ProcessingMode::Batch => self.run_batch(compiled, input, auxiliary, None),
            ProcessingMode::Stream { window_ms } => {
                self.run_stream(compiled, input, auxiliary, window_ms)
            }
        }
    }

    /// [`Self::run`] with stage-boundary checkpointing: every processing
    /// stage's shuffle waves are durably checkpointed under the spec's run
    /// id, and a resuming spec restores completed waves instead of
    /// recomputing them. Batch campaigns only — streaming windows carry
    /// cross-batch state that per-wave checkpoints cannot capture.
    pub fn run_with_recovery(
        &self,
        compiled: &CompiledCampaign,
        input: Table,
        auxiliary: &HashMap<String, Table>,
        recovery: &RecoverySpec,
    ) -> Result<CampaignOutcome> {
        match compiled.deployment.mode {
            ProcessingMode::Batch => self.run_batch(compiled, input, auxiliary, Some(recovery)),
            ProcessingMode::Stream { .. } => Err(CoreError::Execution(
                "checkpointed recovery supports batch campaigns only".to_owned(),
            )),
        }
    }

    fn run_batch(
        &self,
        compiled: &CompiledCampaign,
        input: Table,
        auxiliary: &HashMap<String, Table>,
        recovery: Option<&RecoverySpec>,
    ) -> Result<CampaignOutcome> {
        let started = Instant::now();
        let mut state = PipelineState::new(input);
        state.audit.record(AuditEvent::DatasetAccess {
            dataset: compiled.spec.dataset.clone(),
            pipeline: compiled.spec.name.clone(),
        });
        let ctx = ServiceContext {
            pipeline: &compiled.spec.name,
            engine_config: compiled.deployment.engine_config.clone(),
            auxiliary,
            seed: compiled.spec.seed,
            recovery,
        };
        execute_composition(&compiled.procedural.composition, &ctx, &mut state)?;
        let runtime_ms = started.elapsed().as_secs_f64() * 1e3;
        self.finish(compiled, state, runtime_ms, None)
    }

    fn run_stream(
        &self,
        compiled: &CompiledCampaign,
        input: Table,
        auxiliary: &HashMap<String, Table>,
        window_ms: i64,
    ) -> Result<CampaignOutcome> {
        use toreador_dataflow::error::FlowError;
        use toreador_dataflow::streaming::{
            run_continuous_with, ArrivalSource, BatchOutput, LatePolicy, StreamConfig,
        };
        let started = Instant::now();
        // Arrival-order cutting: batches break at event-window boundaries but
        // rows are never re-sorted, so out-of-order arrivals reach the
        // watermark as late data instead of being quietly absorbed into
        // earlier windows. For non-decreasing timestamps this produces the
        // same non-empty windows as event-time tumbling.
        let mut source = ArrivalSource::windows(&input, "ts", window_ms)
            .map_err(|e| CoreError::Execution(e.to_string()))?;
        let late_policy = match compiled.spec.stream.late_policy {
            crate::declarative::LateDataPolicy::Absorb => LatePolicy::Absorb,
            crate::declarative::LateDataPolicy::SideChannel => LatePolicy::SideChannel,
            crate::declarative::LateDataPolicy::Drop => LatePolicy::Drop,
        };
        let config = StreamConfig::default()
            .with_engine(compiled.deployment.engine_config.clone())
            .with_ts_column("ts")
            .with_allowed_lateness(compiled.spec.stream.allowed_lateness_ms)
            .with_late_policy(late_policy)
            .with_buffer(compiled.spec.stream.buffer)
            .with_pipeline_id(&compiled.spec.name);
        let mut merged: Option<PipelineState> = None;
        let mut batch_latencies = Vec::new();
        let run = run_continuous_with(&mut source, &config, None, &mut |_, batch| {
            let batch_started = Instant::now();
            let mut state = PipelineState::new(batch);
            let ctx = ServiceContext {
                pipeline: &compiled.spec.name,
                engine_config: compiled.deployment.engine_config.clone(),
                auxiliary,
                seed: compiled.spec.seed,
                recovery: None,
            };
            execute_composition(&compiled.procedural.composition, &ctx, &mut state)
                .map_err(|e| FlowError::Stream(e.to_string()))?;
            batch_latencies.push(batch_started.elapsed().as_secs_f64() * 1e3);
            // The loop keeps every batch's output (`run.batch_outputs`),
            // so it gets the table itself; the merged state's table is
            // rebuilt from those outputs once the stream ends.
            let table = state.take_table();
            merged = Some(match merged.take() {
                None => state,
                Some(mut acc) => {
                    acc.input_rows += state.input_rows;
                    acc.reports.extend(state.reports);
                    acc.measured.extend(state.measured);
                    acc.engine_metrics.extend(state.engine_metrics);
                    acc.engine_traces.extend(state.engine_traces);
                    acc.suppressed_rows += state.suppressed_rows;
                    acc.dp_spent += state.dp_spent;
                    acc.kanon_applied = acc.kanon_applied.or(state.kanon_applied);
                    acc.record_level &= state.record_level;
                    acc.ldiv_applied = acc.ldiv_applied.or(state.ldiv_applied);
                    for e in state.audit.entries() {
                        acc.audit.record(e.event.clone());
                    }
                    acc
                }
            });
            Ok(BatchOutput {
                table,
                metrics: None,
                trace: None,
            })
        })
        .map_err(|e| CoreError::Execution(e.to_string()))?;
        let mut state = merged.ok_or_else(|| {
            CoreError::Execution("stream produced no non-empty batches".to_owned())
        })?;
        // The continuous loop's own journal (backpressure, watermarks, late
        // data, acks) joins the campaign's trace set, so stream totals
        // surface in run records and comparisons.
        state.engine_traces.push(run.stream_trace);
        state.table =
            Table::concat(&run.batch_outputs).map_err(|e| CoreError::Data(e.to_string()))?;
        state.audit.record(AuditEvent::DatasetAccess {
            dataset: compiled.spec.dataset.clone(),
            pipeline: compiled.spec.name.clone(),
        });
        let runtime_ms = started.elapsed().as_secs_f64() * 1e3;
        let mean_latency = if batch_latencies.is_empty() {
            0.0
        } else {
            batch_latencies.iter().sum::<f64>() / batch_latencies.len() as f64
        };
        self.finish(compiled, state, runtime_ms, Some(mean_latency))
    }

    fn finish(
        &self,
        compiled: &CompiledCampaign,
        mut state: PipelineState,
        runtime_ms: f64,
        batch_latency_ms: Option<f64>,
    ) -> Result<CampaignOutcome> {
        let mut indicators: BTreeMap<String, f64> = BTreeMap::new();
        indicators.insert(Indicator::RuntimeMs.name().to_owned(), runtime_ms);
        let throughput = if runtime_ms > 0.0 {
            state.input_rows as f64 / (runtime_ms / 1e3)
        } else {
            0.0
        };
        indicators.insert(Indicator::Throughput.name().to_owned(), throughput);
        // Cost: the deployment estimate re-scaled to the actual input size.
        let cost = if compiled.deployment.estimated_rows > 0 {
            compiled.deployment.estimated_cost * state.input_rows as f64
                / compiled.deployment.estimated_rows as f64
        } else {
            compiled.deployment.estimated_cost
        };
        indicators.insert(Indicator::Cost.name().to_owned(), cost);
        // Accuracy: mean of the analytics services' held-out quality.
        let accs: Vec<f64> = state
            .measured
            .iter()
            .filter(|(i, _)| *i == Indicator::Accuracy)
            .map(|(_, v)| *v)
            .collect();
        if !accs.is_empty() {
            indicators.insert(
                Indicator::Accuracy.name().to_owned(),
                accs.iter().sum::<f64>() / accs.len() as f64,
            );
        }
        // Coverage: record-level rows that survive to the release. An
        // aggregate-only release (DP) covers zero individual records — that
        // is exactly its trade against anonymised record releases.
        let coverage = if !state.record_level {
            0.0
        } else if state.input_rows == 0 {
            1.0
        } else {
            1.0 - state.suppressed_rows as f64 / state.input_rows as f64
        };
        indicators.insert(Indicator::Coverage.name().to_owned(), coverage);
        // Privacy risk: 1/k for k-anonymous releases, ε-scaled for DP, 1
        // for raw record-level output.
        let risk = if state.dp_spent > 0.0 {
            (state.dp_spent / 10.0).min(1.0)
        } else if let Some(k) = state.kanon_applied {
            1.0 / k as f64
        } else {
            1.0
        };
        indicators.insert(Indicator::PrivacyRisk.name().to_owned(), risk);
        if let Some(lat) = batch_latency_ms {
            indicators.insert(Indicator::BatchLatencyMs.name().to_owned(), lat);
        }

        // Objective evaluation.
        let objectives: Vec<ObjectiveOutcome> = compiled
            .spec
            .all_objectives()
            .into_iter()
            .map(|objective| {
                let measured = indicators.get(objective.indicator.name()).copied();
                let satisfied = measured.map(|v| objective.target.satisfied_by(v));
                ObjectiveOutcome {
                    objective,
                    measured,
                    satisfied,
                }
            })
            .collect();

        // Post-hoc dynamic compliance check.
        let post_verdict = match &compiled.spec.policy {
            None => None,
            Some(policy) => {
                let qi: Vec<String> = policy
                    .columns_of(DataClass::QuasiIdentifier)
                    .into_iter()
                    .map(str::to_owned)
                    .collect();
                let sensitive = policy
                    .columns_of(DataClass::Sensitive)
                    .first()
                    .map(|s| s.to_string());
                let verdict = check_output(policy, &state.table, &qi, sensitive.as_deref())
                    .map_err(|e| CoreError::Privacy(e.to_string()))?;
                state.audit.record(AuditEvent::ComplianceCheck {
                    pipeline: compiled.spec.name.clone(),
                    policy: policy.name.clone(),
                    passed: verdict.compliant,
                });
                Some(verdict)
            }
        };

        Ok(CampaignOutcome {
            output: state.table,
            reports: state.reports,
            indicators,
            objectives,
            engine_metrics: state.engine_metrics,
            engine_traces: state.engine_traces,
            audit: state.audit,
            post_verdict,
        })
    }
}

/// Infer the privacy manifest of a composition statically by walking the
/// services' schema effects.
fn infer_manifest(
    spec: &CampaignSpec,
    procedural: &ProceduralModel,
    schema: &Schema,
) -> PrivacyManifest {
    let mut columns: Vec<String> = schema.names().iter().map(|s| s.to_string()).collect();
    let mut manifest = PrivacyManifest {
        columns_read: columns.clone(),
        ..Default::default()
    };
    fn walk(comp: &Composition, columns: &mut Vec<String>, manifest: &mut PrivacyManifest) {
        match comp {
            Composition::Sequence(parts) | Composition::Parallel(parts) => {
                for p in parts {
                    walk(p, columns, manifest);
                }
            }
            Composition::Invoke(inv) => match inv.service_id.as_str() {
                "processing.aggregate" => {
                    let mut next = inv
                        .param("group_by")
                        .map(parse_column_list)
                        .unwrap_or_default();
                    if let Some(aggs) = inv.param("agg") {
                        for part in aggs.split(',') {
                            if let Some(alias) = part.trim().split(':').nth(2) {
                                next.push(alias.to_owned());
                            }
                        }
                    }
                    *columns = next;
                }
                "privacy.dp.aggregate" => {
                    *columns = vec![
                        "group".to_owned(),
                        "noisy_count".to_owned(),
                        "noisy_sum".to_owned(),
                    ];
                    if let Some(eps) = inv.param("epsilon").and_then(|e| e.parse::<f64>().ok()) {
                        manifest.dp_epsilon = Some(manifest.dp_epsilon.unwrap_or(0.0) + eps);
                    }
                }
                "privacy.kanon" => {
                    if let Some(k) = inv.param("k").and_then(|k| k.parse().ok()) {
                        manifest.k_anonymity = Some(k);
                    }
                }
                "privacy.ldiv" => {
                    if let Some(l) = inv.param("l").and_then(|l| l.parse().ok()) {
                        manifest.l_diversity = Some(l);
                    }
                }
                "prep.encode.onehot" => {
                    if let Some(c) = inv.param("column") {
                        columns.retain(|x| x != c);
                    }
                }
                "analytics.kmeans" => columns.push("cluster".to_owned()),
                "analytics.anomaly.zscore" | "analytics.anomaly.rolling" => {
                    columns.push("is_anomaly".to_owned())
                }
                _ => {}
            },
        }
    }
    walk(&procedural.composition, &mut columns, &mut manifest);
    let _ = spec;
    manifest.columns_output = columns;
    manifest
}

/// How a campaign run interacts with the checkpoint store. A campaign may
/// run several dataflow engines in sequence (one per processing stage);
/// each gets its own checkpoint subdirectory `<run_id>/engine-NNN`, keyed
/// by its ordinal in execution order.
#[derive(Debug, Clone)]
pub struct RecoverySpec {
    /// Root checkpoint directory.
    pub root: PathBuf,
    /// Campaign-level run identity.
    pub run_id: String,
    /// When true, restore completed waves before executing.
    pub resume: bool,
    /// Deterministic process-kill point for the crash-recovery harness.
    pub kill: Option<BoundaryKillSpec>,
}

impl RecoverySpec {
    /// Checkpoint a fresh campaign run.
    pub fn new(root: impl Into<PathBuf>, run_id: impl Into<String>) -> Self {
        RecoverySpec {
            root: root.into(),
            run_id: run_id.into(),
            resume: false,
            kill: None,
        }
    }

    /// Resume a previously checkpointed campaign run. Kill-free by design:
    /// the kill point belongs to the run being killed, not its resume, so a
    /// single resume always completes.
    pub fn resume(root: impl Into<PathBuf>, run_id: impl Into<String>) -> Self {
        RecoverySpec {
            root: root.into(),
            run_id: run_id.into(),
            resume: true,
            kill: None,
        }
    }

    pub fn with_kill(mut self, kill: BoundaryKillSpec) -> Self {
        self.kill = Some(kill);
        self
    }
}

/// Kill the process (or halt the run) when shuffle wave `wave` of the
/// campaign's `engine`-th dataflow run completes — after that wave's
/// checkpoint is durable.
#[derive(Debug, Clone, Copy)]
pub struct BoundaryKillSpec {
    /// Zero-based ordinal of the engine run within the campaign.
    pub engine: usize,
    /// Zero-based shuffle-wave index within that engine run.
    pub wave: usize,
    pub mode: toreador_dataflow::fault::KillMode,
}

/// A compiled, ready-to-run campaign.
#[derive(Debug, Clone)]
pub struct CompiledCampaign {
    pub spec: CampaignSpec,
    /// Non-fatal consistency findings (warnings).
    pub warnings: Vec<consistency::Finding>,
    pub procedural: ProceduralModel,
    pub deployment: DeploymentModel,
    pub manifest: PrivacyManifest,
}

/// One objective with its measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveOutcome {
    pub objective: Objective,
    /// None when the run produced no value for the indicator.
    pub measured: Option<f64>,
    pub satisfied: Option<bool>,
}

/// Everything a campaign run produces.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    pub output: Table,
    pub reports: Vec<(String, String)>,
    /// Indicator name -> measured value.
    pub indicators: BTreeMap<String, f64>,
    pub objectives: Vec<ObjectiveOutcome>,
    pub engine_metrics: Vec<toreador_dataflow::metrics::RunMetrics>,
    /// Flight-recorder journals, aligned with `engine_metrics`.
    pub engine_traces: Vec<toreador_dataflow::trace::RunTrace>,
    pub audit: toreador_privacy::audit::AuditLog,
    /// Post-hoc compliance verdict (None when no policy attached).
    pub post_verdict: Option<Verdict>,
}

impl CampaignOutcome {
    pub fn indicator(&self, indicator: Indicator) -> Option<f64> {
        self.indicators.get(indicator.name()).copied()
    }

    /// All objectives satisfied (unmeasured objectives count as failures).
    pub fn all_objectives_met(&self) -> bool {
        self.objectives.iter().all(|o| o.satisfied == Some(true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toreador_data::generate::{clickstream, health_records, telemetry};

    fn aux() -> HashMap<String, Table> {
        HashMap::new()
    }

    #[test]
    fn dsl_to_outcome_end_to_end() {
        let bdaas = Bdaas::new();
        let spec = bdaas
            .parse(
                r#"
campaign revenue on clicks
prefer cost
seed 7
goal filtering predicate="action == 'purchase'"
goal aggregation group_by=country agg=sum:price:revenue,count:event_id:n
goal reporting using viz.report.table limit=5
objective runtime_ms <= 600000
"#,
            )
            .unwrap();
        let data = clickstream(2_000, 42);
        let compiled = bdaas
            .compile(&spec, data.schema(), data.num_rows())
            .unwrap();
        assert_eq!(compiled.procedural.composition.len(), 3);
        let outcome = bdaas.run(&compiled, data, &aux()).unwrap();
        assert_eq!(
            outcome.output.schema().names(),
            vec!["country", "revenue", "n"]
        );
        assert!(outcome.indicator(Indicator::RuntimeMs).unwrap() > 0.0);
        assert!(outcome.indicator(Indicator::Throughput).unwrap() > 0.0);
        assert!(outcome.indicator(Indicator::Cost).unwrap() > 0.0);
        assert!(outcome.all_objectives_met(), "{:?}", outcome.objectives);
        assert!(!outcome.reports.is_empty());
    }

    #[test]
    fn inconsistent_spec_refused_at_compile_time() {
        let bdaas = Bdaas::new();
        let spec = bdaas
            .parse(
                "campaign bad on clicks\ngoal aggregation group_by=galaxy agg=count:event_id:n\n",
            )
            .unwrap();
        let data = clickstream(100, 1);
        let err = bdaas.compile(&spec, data.schema(), 100).unwrap_err();
        assert!(matches!(err, CoreError::Inconsistent(_)));
        assert!(err.to_string().contains("galaxy"));
    }

    #[test]
    fn non_compliant_campaign_refused_at_compile_time() {
        let bdaas = Bdaas::new();
        // Outputs quasi-identifiers under the healthcare policy without
        // anonymisation: must be rejected before any data is touched.
        let spec = bdaas
            .parse(
                "campaign leak on health\npolicy healthcare\ngoal reporting using viz.report.table\n",
            )
            .unwrap();
        let data = health_records(200, 1);
        let err = bdaas.compile(&spec, data.schema(), 200).unwrap_err();
        assert!(matches!(err, CoreError::NonCompliant(_)), "{err}");
    }

    #[test]
    fn compliant_campaign_compiles_and_passes_posthoc() {
        let bdaas = Bdaas::new();
        let spec = bdaas
            .parse(
                r#"
campaign safe on health
policy healthcare
seed 3
goal anonymization using privacy.kanon k=5 quasi=age,zip,sex
goal anonymization using privacy.ldiv l=2 quasi=age,zip,sex sensitive=diagnosis
goal reporting using viz.report.summary
"#,
            )
            .unwrap();
        let data = health_records(500, 2);
        // The identifier column must not flow in: drop it first (as the
        // Labs scenario does).
        let data = data.without_column("patient_id").unwrap();
        let compiled = bdaas
            .compile(&spec, data.schema(), data.num_rows())
            .unwrap();
        assert_eq!(compiled.manifest.k_anonymity, Some(5));
        let outcome = bdaas.run(&compiled, data, &aux()).unwrap();
        let verdict = outcome.post_verdict.as_ref().unwrap();
        assert!(verdict.compliant, "{:?}", verdict.violations);
        assert!(outcome.indicator(Indicator::PrivacyRisk).unwrap() <= 0.2);
        assert!(outcome.indicator(Indicator::Coverage).unwrap() <= 1.0);
        assert!(outcome.audit.len() >= 2, "access + anonymisation + check");
    }

    #[test]
    fn dp_campaign_is_compliant_without_kanon() {
        let bdaas = Bdaas::new();
        let spec = bdaas
            .parse(
                r#"
campaign dp_stats on health
policy healthcare
goal private_aggregation epsilon=1.0 column=cost group_by=sex
"#,
            )
            .unwrap();
        let data = health_records(400, 3).without_column("patient_id").unwrap();
        let compiled = bdaas
            .compile(&spec, data.schema(), data.num_rows())
            .unwrap();
        assert_eq!(compiled.manifest.dp_epsilon, Some(1.0));
        let outcome = bdaas.run(&compiled, data, &aux()).unwrap();
        assert_eq!(
            outcome.output.schema().names(),
            vec!["group", "noisy_count", "noisy_sum"]
        );
        assert!(outcome.post_verdict.as_ref().unwrap().compliant);
        assert!(outcome.indicator(Indicator::PrivacyRisk).unwrap() <= 0.1 + 1e-9);
    }

    #[test]
    fn streaming_campaign_measures_batch_latency() {
        let bdaas = Bdaas::new();
        let spec = bdaas
            .parse(
                r#"
campaign stream_kwh on telemetry
mode stream window=7200000
goal aggregation group_by=region agg=sum:kwh:total
"#,
            )
            .unwrap();
        let data = telemetry(3_000, 10, 5);
        let compiled = bdaas
            .compile(&spec, data.schema(), data.num_rows())
            .unwrap();
        let outcome = bdaas.run(&compiled, data, &aux()).unwrap();
        assert!(outcome.indicator(Indicator::BatchLatencyMs).unwrap() > 0.0);
        // Concatenated per-window aggregates: more rows than one global agg.
        assert!(outcome.output.num_rows() > 4);
    }

    #[test]
    fn accuracy_objective_evaluated_against_heldout() {
        let bdaas = Bdaas::new();
        let spec = bdaas
            .parse(
                r#"
campaign classify on health
seed 11
goal classification target=sex features=age,visits,cost expect accuracy >= 0.1
"#,
            )
            .unwrap();
        let data = health_records(600, 4);
        let compiled = bdaas
            .compile(&spec, data.schema(), data.num_rows())
            .unwrap();
        let outcome = bdaas.run(&compiled, data, &aux()).unwrap();
        let acc = outcome.indicator(Indicator::Accuracy).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        assert_eq!(outcome.objectives.len(), 1);
        assert_eq!(outcome.objectives[0].satisfied, Some(true));
    }

    #[test]
    fn unmeasured_objective_is_not_satisfied() {
        let bdaas = Bdaas::new();
        let spec = bdaas
            .parse(
                "campaign t on clicks\ngoal filtering predicate=\"price > 1\"\nobjective accuracy >= 0.5\n",
            )
            .unwrap();
        let data = clickstream(200, 1);
        let compiled = bdaas.compile(&spec, data.schema(), 200).unwrap();
        let outcome = bdaas.run(&compiled, data, &aux()).unwrap();
        assert_eq!(outcome.objectives[0].satisfied, None);
        assert!(!outcome.all_objectives_met());
    }

    #[test]
    fn warnings_surface_on_compiled_campaign() {
        let bdaas = Bdaas::new();
        let spec = bdaas
            .parse(
                r#"
campaign tension on health
seed 2
goal anonymization using privacy.kanon k=10 quasi=age,zip,sex
goal classification target=sex features=cost,visits expect accuracy >= 0.95
"#,
            )
            .unwrap();
        let data = health_records(300, 9);
        let compiled = bdaas.compile(&spec, data.schema(), 300).unwrap();
        assert!(
            !compiled.warnings.is_empty(),
            "privacy/accuracy tension warning expected"
        );
    }

    fn revenue_campaign(bdaas: &Bdaas) -> CampaignSpec {
        bdaas
            .parse(
                r#"
campaign revenue on clicks
seed 7
goal filtering predicate="action == 'purchase'"
goal aggregation group_by=country agg=sum:price:revenue,count:event_id:n
goal reporting using viz.report.table limit=5
"#,
            )
            .unwrap()
    }

    fn recovery_root(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("toreador-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tasks_started(trace: &toreador_dataflow::trace::RunTrace) -> usize {
        use toreador_dataflow::trace::TraceEventKind;
        trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::TaskStarted { .. }))
            .count()
    }

    #[test]
    fn killed_campaign_resumes_to_an_identical_outcome() {
        use toreador_dataflow::fault::KillMode;
        use toreador_dataflow::trace::TraceEventKind;

        let bdaas = Bdaas::new();
        let spec = revenue_campaign(&bdaas);
        let data = clickstream(2_000, 42);
        let compiled = bdaas
            .compile(&spec, data.schema(), data.num_rows())
            .unwrap();
        let baseline = bdaas.run(&compiled, data.clone(), &aux()).unwrap();
        assert!(
            baseline.engine_metrics.len() >= 2,
            "filtering + aggregation should each drive an engine run"
        );

        // Kill the campaign at the second engine's first stage boundary:
        // engine 0 has fully completed and checkpointed by then.
        let root = recovery_root("kill");
        let rec = RecoverySpec::new(root.clone(), "camp").with_kill(BoundaryKillSpec {
            engine: 1,
            wave: 0,
            mode: KillMode::Halt,
        });
        let err = bdaas
            .run_with_recovery(&compiled, data.clone(), &aux(), &rec)
            .unwrap_err();
        assert!(
            err.to_string().contains("killed at stage boundary"),
            "{err}"
        );

        // One kill-free resume completes the whole campaign, byte-identical.
        let resumed = bdaas
            .run_with_recovery(
                &compiled,
                data,
                &aux(),
                &RecoverySpec::resume(root.clone(), "camp"),
            )
            .unwrap();
        assert_eq!(resumed.output, baseline.output);
        assert_eq!(resumed.engine_metrics.len(), baseline.engine_metrics.len());

        // Engine 0 was fully checkpointed before the kill: its resumed
        // trace restores every wave and starts zero tasks.
        let t0 = &resumed.engine_traces[0];
        assert_eq!(tasks_started(t0), 0, "engine 0 must be restored, not rerun");
        assert!(t0
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::StageRestored { .. })));
        // Engine 1 restored its killed-after wave 0 and recomputed the rest.
        let t1 = &resumed.engine_traces[1];
        assert!(t1
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::StageRestored { .. })));
        assert!(tasks_started(t1) < tasks_started(&baseline.engine_traces[1]) + 1);

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn campaign_resume_refuses_changed_inputs() {
        use toreador_dataflow::fault::KillMode;

        let bdaas = Bdaas::new();
        let spec = revenue_campaign(&bdaas);
        let data = clickstream(1_000, 5);
        let compiled = bdaas
            .compile(&spec, data.schema(), data.num_rows())
            .unwrap();
        let root = recovery_root("stale");
        let rec = RecoverySpec::new(root.clone(), "camp").with_kill(BoundaryKillSpec {
            engine: 0,
            wave: 0,
            mode: KillMode::Halt,
        });
        bdaas
            .run_with_recovery(&compiled, data, &aux(), &rec)
            .unwrap_err();

        // Resume against different input data: classified refusal, not a
        // silent wrong answer.
        let other = clickstream(1_000, 6);
        let err = bdaas
            .run_with_recovery(
                &compiled,
                other,
                &aux(),
                &RecoverySpec::resume(root.clone(), "camp"),
            )
            .unwrap_err();
        match err {
            CoreError::StaleCheckpoint { mismatch, .. } => assert_eq!(mismatch, "inputs"),
            other => panic!("expected StaleCheckpoint, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stream_campaigns_refuse_checkpointed_recovery() {
        let bdaas = Bdaas::new();
        let spec = bdaas
            .parse(
                "campaign live on clicks\nmode stream window=7200000\ngoal filtering predicate=\"action == 'purchase'\"\n",
            )
            .unwrap();
        let data = clickstream(400, 1);
        let compiled = bdaas
            .compile(&spec, data.schema(), data.num_rows())
            .unwrap();
        let root = recovery_root("stream");
        let err = bdaas
            .run_with_recovery(&compiled, data, &aux(), &RecoverySpec::new(root, "camp"))
            .unwrap_err();
        assert!(err.to_string().contains("batch campaigns only"), "{err}");
    }
}
