//! # toreador-dataflow
//!
//! A parallel dataflow execution engine — the reproduction's substitute for
//! the Spark/Hadoop backend the TOREADOR platform deployed onto (DESIGN.md
//! §2). The layering mirrors DataFusion/Spark:
//!
//! 1. [`expr`] — typed scalar expressions and their row-at-a-time
//!    reference evaluation; [`vexpr`] — the same expressions bound against
//!    a schema at plan time and evaluated in batches over columns with
//!    selection vectors, which is how the engine runs them;
//! 2. [`logical`] — the `Dataflow` builder and `LogicalPlan` tree;
//! 3. [`optimizer`] — rule-based rewrites (constant folding, filter merging,
//!    predicate pushdown, projection pruning), individually toggleable for
//!    the ablation benchmarks;
//! 4. [`physical`] — stage-cut execution with per-partition tasks; a chain
//!    of narrow operators compiles once into bound steps, and chains of two
//!    or more and aggregation map sides run through [`morsel`] as row-range
//!    units on the same coordinator; every hash operator (aggregate,
//!    distinct, join) runs on one columnar group table over key lanes;
//! 5. [`shuffle`] — hash shuffles through a binary row codec ([`codec`],
//!    shared with checkpointing and the pager), so shuffle byte counts are
//!    real; [`pager`] — paged on-disk columnar files that shuffle and
//!    aggregation spill to under a memory budget;
//! 6. [`scheduler`] — a resilient scoped thread pool, the one place an
//!    attempt is dispatched and the only retry loop: deterministic chaos
//!    injection ([`fault`]), retry backoff, task deadlines, speculative
//!    attempts, panic isolation, and cooperative cancellation
//!    ([`resilience`]);
//! 7. [`session`] — the `Engine` facade (register datasets, run flows);
//! 8. [`streaming`] — continuous micro-batch streaming with carried state:
//!    one engine per batch, bounded in-flight buffers with backpressure,
//!    event-time watermarks with a late-data policy, and durable
//!    end-to-end acks with crash-resume;
//! 9. [`metrics`] — per-operator and per-run metrics, the raw material for
//!    the Labs' run comparison;
//! 10. [`trace`] — the flight-recorder journal: structured span events for
//!     every task attempt, operator and shuffle wave, from which the run's
//!     [`metrics`] are derived, and which folds into one map of named
//!     counters ([`trace::Counters`]: `dataflow.retries`,
//!     `dataflow.spill_runs`, `streaming.stalls`, …).
//!
//! ## Example
//!
//! ```
//! use toreador_dataflow::prelude::*;
//!
//! let mut engine = Engine::new(EngineConfig::default().with_threads(2));
//! engine.register("clicks", toreador_data::generate::clickstream(500, 7)).unwrap();
//! let flow = engine
//!     .flow("clicks").unwrap()
//!     .filter(col("action").eq(lit("purchase"))).unwrap()
//!     .aggregate(&["country"], vec![AggExpr::new(AggFunc::Sum, "price", "revenue")]).unwrap()
//!     .sort(&["revenue"], true).unwrap()
//!     .limit(3);
//! let result = engine.run(&flow).unwrap();
//! assert!(result.table.num_rows() <= 3);
//! assert!(result.metrics.total_shuffle_bytes() > 0);
//! ```

pub mod checkpoint;
pub mod codec;
pub mod error;
pub mod expr;
pub mod fault;
pub mod fsck;
pub(crate) mod group;
pub mod logical;
pub mod metrics;
pub mod morsel;
pub mod optimizer;
pub mod pager;
pub mod physical;
pub mod resilience;
pub mod scheduler;
pub mod session;
pub mod shuffle;
pub mod streaming;
pub mod trace;
pub mod vexpr;

/// Convenient glob import of the engine's public surface.
pub mod prelude {
    pub use crate::checkpoint::{CheckpointManifest, CheckpointSpec};
    pub use crate::error::{FlowError, Result as FlowResult};
    pub use crate::expr::{col, lit, Expr, Func};
    pub use crate::fault::{BoundaryKill, ChaosPlan, FaultKind, KillMode, TargetedFault};
    pub use crate::logical::{AggExpr, AggFunc, Dataflow, JoinType, LogicalPlan};
    pub use crate::metrics::{NodeMetrics, RunMetrics};
    pub use crate::optimizer::OptimizerConfig;
    pub use crate::resilience::{
        Backoff, ResilienceConfig, RetryPolicy, RunControl, SpeculationPolicy, TaskDeadline,
    };
    pub use crate::session::{Engine, EngineConfig, RunResult};
    pub use crate::streaming::{
        canonical_state_json, run_continuous, run_continuous_with, AckRecord, AckSummary,
        ArrivalSource, BatchOutput, ContinuousRun, DurableSpec, LatePolicy, Source, SourceBatch,
        StateColumns, StateDelta, StreamConfig, StreamRecovery, StreamState,
    };
    pub use crate::trace::{
        Counter, CounterKind, Counters, PipelineTotals, RunTrace, SpillTotals, StreamTotals,
        TraceEvent, TraceEventKind, TraceSummary,
    };
    pub use crate::vexpr::BoundExpr;
}
