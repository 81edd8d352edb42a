//! The declarative model: goals, indicators, objectives, preferences.
//!
//! §2 of the paper: "Indicators present a way for measuring or assessing a
//! business goal, such as analytics tasks or regulatory constraints on
//! personal data protection, and are accompanied by Big Data objectives
//! representing the target to be achieved for fulfilling the goal."
//!
//! A [`CampaignSpec`] is the complete declarative model — the input of the
//! BDAaaS function. It is deliberately free of engine concepts: everything
//! here could be written by a business user (and the [`crate::dsl`] gives
//! them a textual syntax for it).

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use toreador_catalog::descriptor::Capability;
use toreador_catalog::matching::Preferences;
use toreador_privacy::policy::Policy;

/// The core set of standard indicators (§2's "core set of standard
/// indicators ... an important step towards increasing transparency").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Indicator {
    /// Wall-clock execution time in milliseconds.
    RuntimeMs,
    /// Rows processed per second.
    Throughput,
    /// Estimated abstract cost units of the campaign.
    Cost,
    /// Model quality in [0, 1] (accuracy, R², F1 — per the analytics goal).
    Accuracy,
    /// Re-identification exposure in [0, 1]: 1/k for k-anonymous releases,
    /// `min(1, ε)`-scaled for DP releases, 1 for raw record-level output.
    PrivacyRisk,
    /// Fraction of input rows surviving to the output (1 - suppression).
    Coverage,
    /// Mean per-batch latency in milliseconds (streaming campaigns).
    BatchLatencyMs,
}

impl Indicator {
    pub fn name(self) -> &'static str {
        match self {
            Indicator::RuntimeMs => "runtime_ms",
            Indicator::Throughput => "throughput",
            Indicator::Cost => "cost",
            Indicator::Accuracy => "accuracy",
            Indicator::PrivacyRisk => "privacy_risk",
            Indicator::Coverage => "coverage",
            Indicator::BatchLatencyMs => "batch_latency_ms",
        }
    }

    /// Parse the DSL spelling.
    pub fn parse(s: &str) -> Option<Indicator> {
        Some(match s {
            "runtime_ms" => Indicator::RuntimeMs,
            "throughput" => Indicator::Throughput,
            "cost" => Indicator::Cost,
            "accuracy" => Indicator::Accuracy,
            "privacy_risk" => Indicator::PrivacyRisk,
            "coverage" => Indicator::Coverage,
            "batch_latency_ms" => Indicator::BatchLatencyMs,
            _ => return None,
        })
    }

    /// Whether larger values are better (for objective satisfaction and the
    /// Labs' consequence matrices).
    pub fn higher_is_better(self) -> bool {
        matches!(
            self,
            Indicator::Throughput | Indicator::Accuracy | Indicator::Coverage
        )
    }
}

impl fmt::Display for Indicator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The target attached to an indicator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Target {
    AtLeast(f64),
    AtMost(f64),
}

impl Target {
    pub fn satisfied_by(self, value: f64) -> bool {
        match self {
            Target::AtLeast(t) => value >= t - 1e-12,
            Target::AtMost(t) => value <= t + 1e-12,
        }
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::AtLeast(v) => write!(f, ">= {v}"),
            Target::AtMost(v) => write!(f, "<= {v}"),
        }
    }
}

/// An objective: indicator + target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Objective {
    pub indicator: Indicator,
    pub target: Target,
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.indicator, self.target)
    }
}

/// One business goal: a capability request with parameters and objectives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Goal {
    pub capability: Capability,
    /// Service parameters (feature lists, thresholds, ...), name -> value.
    /// BTreeMap so goals serialise and compare deterministically.
    pub params: BTreeMap<String, String>,
    pub objectives: Vec<Objective>,
    /// Pin a specific catalogue service, bypassing preference ranking
    /// (how the Labs encode a trainee's explicit choice).
    pub pinned_service: Option<String>,
}

impl Goal {
    pub fn new(capability: Capability) -> Self {
        Goal {
            capability,
            params: BTreeMap::new(),
            objectives: Vec::new(),
            pinned_service: None,
        }
    }

    pub fn param(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.params.insert(name.into(), value.into());
        self
    }

    pub fn objective(mut self, indicator: Indicator, target: Target) -> Self {
        self.objectives.push(Objective { indicator, target });
        self
    }

    pub fn pin(mut self, service_id: impl Into<String>) -> Self {
        self.pinned_service = Some(service_id.into());
        self
    }

    pub fn get_param(&self, name: &str) -> Option<&str> {
        self.params.get(name).map(String::as_str)
    }
}

/// Batch or micro-batch streaming execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ProcessingMode {
    Batch,
    /// Tumbling event-time windows of this many milliseconds over the named
    /// timestamp column.
    Stream {
        window_ms: i64,
    },
}

/// What a streaming campaign does with rows that arrive behind the
/// event-time watermark. Mirrors the engine's late-data policy without
/// pulling the engine type into the declarative model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LateDataPolicy {
    /// Fold late rows into results anyway (counted and journalled).
    #[default]
    Absorb,
    /// Divert late rows to a side channel; results see only on-time rows.
    SideChannel,
    /// Discard late rows; results see only on-time rows.
    Drop,
}

impl LateDataPolicy {
    pub fn name(self) -> &'static str {
        match self {
            LateDataPolicy::Absorb => "absorb",
            LateDataPolicy::SideChannel => "side-channel",
            LateDataPolicy::Drop => "drop",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "absorb" => Some(LateDataPolicy::Absorb),
            "side-channel" | "side_channel" | "side" => Some(LateDataPolicy::SideChannel),
            "drop" => Some(LateDataPolicy::Drop),
            _ => None,
        }
    }
}

/// Continuous-streaming knobs for `ProcessingMode::Stream` campaigns.
/// Batch campaigns ignore them; they default so pre-existing serialised
/// specs parse unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamOptions {
    /// Watermark lag behind max observed event time, in milliseconds.
    pub allowed_lateness_ms: i64,
    /// What happens to rows behind the watermark.
    pub late_policy: LateDataPolicy,
    /// Bound on micro-batches in flight between source and engine.
    pub buffer: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            allowed_lateness_ms: 0,
            late_policy: LateDataPolicy::default(),
            buffer: 8,
        }
    }
}

/// The complete declarative model of a campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    pub name: String,
    /// The registered dataset the campaign runs on.
    pub dataset: String,
    pub goals: Vec<Goal>,
    pub preferences: Preferences,
    pub mode: ProcessingMode,
    /// Continuous-streaming knobs (meaningful only in `Stream` mode;
    /// defaults so pre-existing serialised specs parse unchanged).
    #[serde(default)]
    pub stream: StreamOptions,
    /// Requested worker parallelism (None = platform default).
    pub parallelism: Option<usize>,
    /// Task retry budget for fault tolerance (None = no retries).
    pub max_task_retries: Option<u32>,
    /// The data-protection policy the campaign must honour, if any.
    pub policy: Option<Policy>,
    /// Campaign-wide objectives (in addition to per-goal ones).
    pub objectives: Vec<Objective>,
    /// Seed for every stochastic component (splits, samples, DP noise).
    pub seed: u64,
}

impl CampaignSpec {
    /// A stable FNV-1a fingerprint of the serialised spec. Two specs that
    /// serialise identically — same goals, preferences, mode, policy,
    /// objectives, seed — fingerprint identically, which is what lets a
    /// serving daemon coalesce concurrent compiles of the same declarative
    /// model onto one compiled plan.
    pub fn fingerprint(&self) -> u64 {
        let json = serde_json::to_string(self).expect("campaign spec serialises");
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in json.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    pub fn new(name: impl Into<String>, dataset: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            dataset: dataset.into(),
            goals: Vec::new(),
            preferences: Preferences::default(),
            mode: ProcessingMode::Batch,
            stream: StreamOptions::default(),
            parallelism: None,
            max_task_retries: None,
            policy: None,
            objectives: Vec::new(),
            seed: 0,
        }
    }

    pub fn goal(mut self, goal: Goal) -> Self {
        self.goals.push(goal);
        self
    }

    pub fn prefer(mut self, preferences: Preferences) -> Self {
        self.preferences = preferences;
        self
    }

    pub fn mode(mut self, mode: ProcessingMode) -> Self {
        self.mode = mode;
        self
    }

    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = Some(policy);
        self
    }

    pub fn objective(mut self, indicator: Indicator, target: Target) -> Self {
        self.objectives.push(Objective { indicator, target });
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = Some(workers);
        self
    }

    pub fn with_retries(mut self, retries: u32) -> Self {
        self.max_task_retries = Some(retries);
        self
    }

    /// All objectives: campaign-wide plus per-goal, in declaration order.
    pub fn all_objectives(&self) -> Vec<Objective> {
        self.objectives
            .iter()
            .copied()
            .chain(self.goals.iter().flat_map(|g| g.objectives.iter().copied()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indicator_parse_round_trips() {
        for i in [
            Indicator::RuntimeMs,
            Indicator::Throughput,
            Indicator::Cost,
            Indicator::Accuracy,
            Indicator::PrivacyRisk,
            Indicator::Coverage,
            Indicator::BatchLatencyMs,
        ] {
            assert_eq!(Indicator::parse(i.name()), Some(i));
        }
        assert_eq!(Indicator::parse("nope"), None);
    }

    #[test]
    fn targets_evaluate() {
        assert!(Target::AtLeast(0.7).satisfied_by(0.7));
        assert!(Target::AtLeast(0.7).satisfied_by(0.9));
        assert!(!Target::AtLeast(0.7).satisfied_by(0.5));
        assert!(Target::AtMost(100.0).satisfied_by(50.0));
        assert!(!Target::AtMost(100.0).satisfied_by(101.0));
    }

    #[test]
    fn builders_compose() {
        let spec = CampaignSpec::new("churn", "clicks")
            .goal(
                Goal::new(Capability::Classification)
                    .param("target", "churned")
                    .param("features", "a,b")
                    .objective(Indicator::Accuracy, Target::AtLeast(0.7)),
            )
            .objective(Indicator::RuntimeMs, Target::AtMost(5000.0))
            .with_seed(9);
        assert_eq!(spec.goals.len(), 1);
        assert_eq!(spec.goals[0].get_param("target"), Some("churned"));
        assert_eq!(spec.all_objectives().len(), 2);
        assert_eq!(spec.seed, 9);
    }

    #[test]
    fn goal_pinning() {
        let g = Goal::new(Capability::Clustering).pin("analytics.kmeans");
        assert_eq!(g.pinned_service.as_deref(), Some("analytics.kmeans"));
    }

    #[test]
    fn spec_serializes() {
        let spec = CampaignSpec::new("t", "d")
            .goal(Goal::new(Capability::Filtering).param("predicate", "x > 1"))
            .mode(ProcessingMode::Stream { window_ms: 1000 });
        let j = serde_json::to_string(&spec).unwrap();
        let back: CampaignSpec = serde_json::from_str(&j).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn higher_is_better_orientation() {
        assert!(Indicator::Accuracy.higher_is_better());
        assert!(!Indicator::Cost.higher_is_better());
        assert!(!Indicator::PrivacyRisk.higher_is_better());
    }
}
