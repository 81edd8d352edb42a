//! The deployment model: binding a procedural composition to a platform.
//!
//! The last transformation before execution: pick a platform descriptor,
//! derive the engine configuration (threads, partitions, retries), and
//! estimate the campaign's cost from the catalogue annotations — the number
//! the "as-a-Service" customer sees before committing.

use serde::{Deserialize, Serialize};

use toreador_catalog::registry::Registry;
use toreador_dataflow::fault::ChaosPlan;
use toreador_dataflow::optimizer::OptimizerConfig;
use toreador_dataflow::resilience::{ResilienceConfig, RetryPolicy, TaskDeadline};
use toreador_dataflow::session::EngineConfig;

use crate::declarative::{CampaignSpec, ProcessingMode};
use crate::error::{CoreError, Result};
use crate::procedural::ProceduralModel;

/// A (simulated) execution platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformDescriptor {
    pub name: String,
    /// Worker threads available.
    pub workers: usize,
    /// Default data partitions.
    pub default_partitions: usize,
    pub supports_streaming: bool,
    /// Abstract cost units per worker per campaign run (platform rent).
    pub rent: f64,
    /// Per-run memory budget for wide operators. When set, the derived
    /// engine configuration spills the shuffle's staged runs to files
    /// beyond this many bytes instead of holding them resident —
    /// how a small rented tier runs campaigns bigger than its RAM.
    /// Absent (`None`) in older descriptors: unbounded, never spills.
    #[serde(default)]
    pub memory_budget_bytes: Option<u64>,
}

/// The built-in platform menu.
pub fn builtin_platforms() -> Vec<PlatformDescriptor> {
    vec![
        PlatformDescriptor {
            name: "lab-free-tier".to_owned(),
            workers: 2,
            default_partitions: 4,
            supports_streaming: true,
            rent: 0.0,
            // The free tier is the one platform small enough for its
            // budget to matter: campaigns beyond 256 MiB of working set
            // spill instead of failing.
            memory_budget_bytes: Some(256 << 20),
        },
        PlatformDescriptor {
            name: "batch-cluster".to_owned(),
            workers: 8,
            default_partitions: 16,
            supports_streaming: false,
            rent: 8.0,
            memory_budget_bytes: None,
        },
        PlatformDescriptor {
            name: "stream-cluster".to_owned(),
            workers: 4,
            default_partitions: 8,
            supports_streaming: true,
            rent: 6.0,
            memory_budget_bytes: None,
        },
    ]
}

/// The deployment model: platform + derived engine configuration + cost.
#[derive(Debug, Clone)]
pub struct DeploymentModel {
    pub platform: PlatformDescriptor,
    pub engine_config: EngineConfig,
    pub mode: ProcessingMode,
    /// Estimated abstract cost for `estimated_rows` input rows.
    pub estimated_cost: f64,
    pub estimated_rows: usize,
}

/// Pick the cheapest platform compatible with the campaign mode and
/// requested parallelism, then derive the engine configuration.
pub fn bind(
    spec: &CampaignSpec,
    procedural: &ProceduralModel,
    registry: &Registry,
    platforms: &[PlatformDescriptor],
    estimated_rows: usize,
) -> Result<DeploymentModel> {
    let needs_stream = matches!(spec.mode, ProcessingMode::Stream { .. });
    let wanted_workers = spec.parallelism.unwrap_or(1);
    let mut feasible: Vec<&PlatformDescriptor> = platforms
        .iter()
        .filter(|p| !needs_stream || p.supports_streaming)
        .filter(|p| p.workers >= wanted_workers)
        .collect();
    feasible.sort_by(|a, b| a.rent.total_cmp(&b.rent).then_with(|| a.name.cmp(&b.name)));
    let platform = feasible
        .first()
        .ok_or_else(|| {
            CoreError::Catalog(format!(
                "no platform supports mode {:?} with {wanted_workers} workers",
                spec.mode
            ))
        })?
        .to_owned()
        .clone();

    let threads = spec
        .parallelism
        .unwrap_or(platform.workers)
        .min(platform.workers);
    let resilience = match spec.max_task_retries {
        // The Labs platform injects a small background fault rate so the
        // retry budget is a real design decision, not dead configuration.
        // Retried attempts back off exponentially (seeded jitter keeps the
        // schedule reproducible per campaign) and a generous per-task
        // deadline turns hung tasks into retryable timeouts.
        Some(retries) if retries > 0 => ResilienceConfig::none()
            .with_retry(
                RetryPolicy::exponential(retries + 1, 500, 20_000).with_jitter(0.25, spec.seed),
            )
            .with_deadline(TaskDeadline::from_millis(30_000))
            .with_chaos(ChaosPlan::crashes(0.02, spec.seed)),
        _ => ResilienceConfig::none(),
    };
    // Resilience is not free: every budgeted retry reserves standby
    // capacity, so alternatives with deeper retry budgets price higher and
    // the Labs comparison surfaces the robustness/cost trade-off.
    let retry_budget = resilience.retry.max_attempts.saturating_sub(1);
    let mut engine_config = EngineConfig::default()
        .with_threads(threads)
        .with_partitions(platform.default_partitions)
        .with_optimizer(OptimizerConfig::default())
        .with_resilience(resilience);
    if let Some(budget) = platform.memory_budget_bytes {
        engine_config = engine_config.with_memory_budget(budget);
    }

    let service_cost: f64 = procedural
        .composition
        .service_ids()
        .iter()
        .map(|id| {
            registry
                .get(id)
                .map(|d| d.estimate_cost(estimated_rows))
                .unwrap_or(0.0)
        })
        .sum();
    let resilience_premium = platform.rent * 0.05 * retry_budget as f64;
    let estimated_cost = service_cost + platform.rent * threads as f64 + resilience_premium;

    Ok(DeploymentModel {
        platform,
        engine_config,
        mode: spec.mode,
        estimated_cost,
        estimated_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::declarative::Goal;
    use crate::procedural::plan;
    use toreador_catalog::builtin::standard_catalog;
    use toreador_catalog::descriptor::Capability;

    fn spec() -> CampaignSpec {
        CampaignSpec::new("t", "d")
            .goal(Goal::new(Capability::Filtering).param("predicate", "x > 1"))
    }

    #[test]
    fn picks_cheapest_feasible_platform() {
        let r = standard_catalog();
        let p = plan(&spec(), &r).unwrap();
        let d = bind(&spec(), &p, &r, &builtin_platforms(), 10_000).unwrap();
        assert_eq!(d.platform.name, "lab-free-tier", "free tier wins on rent");
        // Asking for 8 workers forces the batch cluster.
        let s8 = spec().with_parallelism(8);
        let d = bind(&s8, &p, &r, &builtin_platforms(), 10_000).unwrap();
        assert_eq!(d.platform.name, "batch-cluster");
        assert_eq!(d.engine_config.threads, 8);
    }

    #[test]
    fn stream_mode_excludes_batch_platforms() {
        let r = standard_catalog();
        let s = CampaignSpec::new("t", "d")
            .mode(ProcessingMode::Stream { window_ms: 1000 })
            .with_parallelism(8)
            .goal(Goal::new(Capability::Filtering).param("predicate", "x > 1"));
        let p = plan(&s, &r).unwrap();
        // batch-cluster has 8 workers but no streaming; nothing else has 8.
        assert!(bind(&s, &p, &r, &builtin_platforms(), 1000).is_err());
        let s4 = CampaignSpec::new("t", "d")
            .mode(ProcessingMode::Stream { window_ms: 1000 })
            .with_parallelism(4)
            .goal(Goal::new(Capability::Filtering).param("predicate", "x > 1"));
        let p = plan(&s4, &r).unwrap();
        let d = bind(&s4, &p, &r, &builtin_platforms(), 1000).unwrap();
        assert_eq!(d.platform.name, "stream-cluster");
    }

    #[test]
    fn cost_scales_with_rows_and_services() {
        let r = standard_catalog();
        let small_spec = spec();
        let p1 = plan(&small_spec, &r).unwrap();
        let cheap = bind(&small_spec, &p1, &r, &builtin_platforms(), 1_000).unwrap();
        let dear = bind(&small_spec, &p1, &r, &builtin_platforms(), 1_000_000).unwrap();
        assert!(dear.estimated_cost > cheap.estimated_cost);
        // More services, more cost.
        let big_spec = spec().goal(Goal::new(Capability::Clustering).param("features", "x"));
        let p2 = plan(&big_spec, &r).unwrap();
        let more = bind(&big_spec, &p2, &r, &builtin_platforms(), 1_000).unwrap();
        assert!(more.estimated_cost > cheap.estimated_cost);
    }

    #[test]
    fn retries_enable_resilience_policy() {
        let r = standard_catalog();
        let s = spec().with_retries(3);
        let p = plan(&s, &r).unwrap();
        let d = bind(&s, &p, &r, &builtin_platforms(), 1000).unwrap();
        let res = &d.engine_config.resilience;
        assert!(res.chaos.crash_rate > 0.0, "background faults are on");
        assert_eq!(res.retry.max_attempts, 4);
        assert!(res.retry.jitter > 0.0);
        assert!(res.deadline.is_some(), "hung tasks get a deadline");
        let s0 = spec();
        let d0 = bind(&s0, &plan(&s0, &r).unwrap(), &r, &builtin_platforms(), 1000).unwrap();
        let calm = &d0.engine_config.resilience;
        assert!(calm.chaos.is_none());
        assert_eq!(calm.retry.max_attempts, 1);
    }

    #[test]
    fn platform_memory_budget_reaches_the_engine_config() {
        let r = standard_catalog();
        let p = plan(&spec(), &r).unwrap();
        let d = bind(&spec(), &p, &r, &builtin_platforms(), 1000).unwrap();
        assert_eq!(d.platform.name, "lab-free-tier");
        assert_eq!(d.engine_config.memory_budget_bytes, Some(256 << 20));
        // Unbudgeted platforms leave the engine unbounded.
        let s8 = spec().with_parallelism(8);
        let d8 = bind(&s8, &p, &r, &builtin_platforms(), 1000).unwrap();
        assert_eq!(d8.platform.name, "batch-cluster");
        assert_eq!(d8.engine_config.memory_budget_bytes, None);
        // Older serialized descriptors (no budget field) still parse.
        let legacy = r#"{"name":"old","workers":2,"default_partitions":4,
            "supports_streaming":true,"rent":1.0}"#;
        let old: PlatformDescriptor = serde_json::from_str(legacy).unwrap();
        assert_eq!(old.memory_budget_bytes, None);
    }

    #[test]
    fn deeper_retry_budgets_cost_more() {
        let r = standard_catalog();
        // lab-free-tier has zero rent, so force a rented platform where the
        // premium is visible.
        let s0 = spec().with_parallelism(8);
        let s3 = spec().with_parallelism(8).with_retries(3);
        let s6 = spec().with_parallelism(8).with_retries(6);
        let p = plan(&s0, &r).unwrap();
        let d0 = bind(&s0, &p, &r, &builtin_platforms(), 1000).unwrap();
        let d3 = bind(&s3, &p, &r, &builtin_platforms(), 1000).unwrap();
        let d6 = bind(&s6, &p, &r, &builtin_platforms(), 1000).unwrap();
        assert!(d3.estimated_cost > d0.estimated_cost);
        assert!(d6.estimated_cost > d3.estimated_cost);
    }
}
