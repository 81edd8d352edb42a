//! The three batch workloads: one op is one campaign run,
//! `Bdaas::parse → compile → run`, on the platform `compile` binds
//! (`lab-free-tier`: 2 workers, 4 partitions).
//!
//! * `batch_narrow` — filter + 8-group aggregation over 1 M rows: scan,
//!   narrow kernels and the morsel scheduler do nearly all the work.
//! * `batch_wide` — one group per row, then a full ranking: shuffle,
//!   reduce-side hash tables and sort dominate.
//! * `batch_spill` — the same campaign and data under a 256 KiB budget:
//!   the same layers through the pager instead of RAM.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

use toreador_core::compile::{Bdaas, CampaignOutcome};
use toreador_data::generate::clickstream;
use toreador_data::table::Table;
use toreador_data::value::Value;

use crate::sizing::{Sizing, SPILL_BUDGET_BYTES};
use crate::span::Tracer;
use crate::stats::median_or_zero;
use crate::workload::{EndToEnd, RunConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchKind {
    Narrow,
    Wide,
    Spill,
}

impl BatchKind {
    fn rows(self, sizing: &Sizing) -> usize {
        match self {
            BatchKind::Narrow => sizing.narrow_rows,
            BatchKind::Wide | BatchKind::Spill => sizing.wide_rows,
        }
    }

    /// Whether this kind's ops run under the memory budget.
    fn budgeted(self) -> bool {
        self == BatchKind::Spill
    }
}

/// The narrow campaign: a selective filter feeding a low-cardinality sum.
pub fn narrow_dsl(seed: u64) -> String {
    format!(
        "campaign ledger_narrow on clicks\nseed {seed}\n\
         goal filtering predicate=\"price > 20\"\n\
         goal aggregation group_by=country agg=sum:price:revenue\n"
    )
}

/// The wide campaign: `event_id` is unique per row, so the aggregation
/// keeps one group per input row and the ranking sorts all of them.
pub fn wide_dsl(seed: u64, rows: usize) -> String {
    format!(
        "campaign ledger_wide on clicks\nseed {seed}\n\
         goal aggregation group_by=event_id agg=count:user_id:events,sum:price:revenue\n\
         goal ranking by=event_id n={rows} order=asc\n"
    )
}

/// What a correct output looks like.
enum Oracle {
    /// `country → Σ price` over rows with `price > 20`, folded in plain
    /// Rust over the generated table.
    NarrowSums(BTreeMap<String, f64>),
    /// The output of the same campaign run the *other* way (budgeted for
    /// `batch_wide`, in memory for `batch_spill`): the two must be equal
    /// value for value, float fold order included.
    SameAs(Table),
}

/// The campaign and the data it runs on.
struct Campaign {
    bdaas: Bdaas,
    dsl: String,
    table: Table,
    spill_dir: PathBuf,
}

impl Campaign {
    /// One campaign run: `parse → compile → run`, in memory or under the
    /// budget.
    fn run(
        &self,
        input: Table,
        budgeted: bool,
        tracer: &mut Tracer,
    ) -> Result<CampaignOutcome, String> {
        let spec = tracer
            .span("core.parse", || self.bdaas.parse(&self.dsl))
            .map_err(|e| format!("parse: {e}"))?;
        let mut compiled = tracer
            .span("core.compile", || {
                self.bdaas
                    .compile(&spec, self.table.schema(), self.table.num_rows())
            })
            .map_err(|e| format!("compile: {e}"))?;
        if budgeted {
            compiled.deployment.engine_config = compiled
                .deployment
                .engine_config
                .with_memory_budget(SPILL_BUDGET_BYTES)
                .with_spill_dir(&self.spill_dir);
        }
        let exec = tracer.enter("core.execute");
        let outcome = self.bdaas.run(&compiled, input, &HashMap::new());
        if let Ok(o) = &outcome {
            let engines: Vec<u64> = o
                .engine_metrics
                .iter()
                .map(|m| m.total_elapsed_us)
                .collect();
            tracer.synthesize_children(exec, "dataflow.engine", &engines);
        }
        tracer.exit(exec);
        outcome.map_err(|e| format!("run: {e}"))
    }

    fn run_untraced(&self, budgeted: bool) -> Result<CampaignOutcome, String> {
        self.run(self.table.clone(), budgeted, &mut Tracer::new(false))
    }
}

/// Everything an op needs, built once per set-up.
pub struct BatchSetup {
    kind: BatchKind,
    campaign: Campaign,
    oracle: Oracle,
}

fn narrow_reference(table: &Table) -> Result<BTreeMap<String, f64>, String> {
    let price = table.column("price").map_err(|e| e.to_string())?;
    let country = table.column("country").map_err(|e| e.to_string())?;
    let mut sums = BTreeMap::new();
    for (p, c) in price.iter_values().zip(country.iter_values()) {
        if let (Value::Float(p), Value::Str(c)) = (p, c) {
            if p > 20.0 {
                *sums.entry(c).or_insert(0.0) += p;
            }
        }
    }
    Ok(sums)
}

impl BatchSetup {
    pub fn build(kind: BatchKind, cfg: &RunConfig) -> Result<BatchSetup, String> {
        let rows = kind.rows(&cfg.sizing);
        let campaign = Campaign {
            bdaas: Bdaas::new(),
            dsl: match kind {
                BatchKind::Narrow => narrow_dsl(cfg.seed),
                BatchKind::Wide | BatchKind::Spill => wide_dsl(cfg.seed, rows),
            },
            table: clickstream(rows, cfg.seed),
            spill_dir: cfg.scratch.join("spill"),
        };
        let oracle = match kind {
            BatchKind::Narrow => Oracle::NarrowSums(narrow_reference(&campaign.table)?),
            BatchKind::Wide | BatchKind::Spill => {
                Oracle::SameAs(campaign.run_untraced(!kind.budgeted())?.output)
            }
        };
        let setup = BatchSetup {
            kind,
            campaign,
            oracle,
        };
        // One untimed warm-up op: allocator arenas, lazily built catalogue
        // state and the page cache settle before anything is timed.
        let warm = setup.campaign.run_untraced(kind.budgeted())?;
        let problems = setup.check(&warm);
        if !problems.is_empty() {
            return Err(format!("warm-up op is wrong: {}", problems.join("; ")));
        }
        Ok(setup)
    }

    pub fn rows(&self) -> usize {
        self.campaign.table.num_rows()
    }

    /// One timed op: its latency in ms and its outcome. Cloning the input
    /// is the caller's hand-over of a table to `Bdaas::run`; it happens
    /// before the timer starts.
    pub fn timed_op(&self, tracer: &mut Tracer) -> (f64, Result<CampaignOutcome, String>) {
        let input = self.campaign.table.clone();
        let started = Instant::now();
        let op = tracer.enter("op");
        let outcome = self.campaign.run(input, self.kind.budgeted(), tracer);
        tracer.exit(op);
        (started.elapsed().as_secs_f64() * 1e3, outcome)
    }

    /// Every way `outcome` differs from the oracle; empty when correct.
    pub fn check(&self, outcome: &CampaignOutcome) -> Vec<String> {
        let mut problems = Vec::new();
        match &self.oracle {
            Oracle::NarrowSums(expected) => match narrow_output(&outcome.output) {
                Ok(got) => {
                    if got.len() != expected.len() {
                        problems.push(format!("{} groups, expected {}", got.len(), expected.len()));
                    }
                    for (country, want) in expected {
                        let have = got.get(country).copied().unwrap_or(f64::NAN);
                        if ((have - want) / want).abs() > 1e-9 || have.is_nan() {
                            problems.push(format!("sum for {country}: {have}, expected {want}"));
                        }
                    }
                }
                Err(e) => problems.push(e),
            },
            Oracle::SameAs(reference) => {
                if outcome.output.num_rows() != self.rows() {
                    problems.push(format!(
                        "{} output rows, expected one per input row ({})",
                        outcome.output.num_rows(),
                        self.rows()
                    ));
                }
                if &outcome.output != reference {
                    problems.push("budgeted and in-memory outputs differ".to_owned());
                }
            }
        }
        if self.kind.budgeted() {
            let spill = outcome.engine_traces.iter().map(|t| t.spill_totals()).fold(
                Default::default(),
                |a: toreador_dataflow::trace::SpillTotals, b| a.merge(&b),
            );
            if spill.spills == 0 {
                problems.push("budgeted run never spilled".to_owned());
            }
            if spill.peak_pool_bytes > SPILL_BUDGET_BYTES {
                problems.push(format!(
                    "peak pool {} B exceeds the {} B budget",
                    spill.peak_pool_bytes, SPILL_BUDGET_BYTES
                ));
            }
        }
        problems
    }
}

fn narrow_output(output: &Table) -> Result<BTreeMap<String, f64>, String> {
    let country = output.column("country").map_err(|e| e.to_string())?;
    let revenue = output.column("revenue").map_err(|e| e.to_string())?;
    country
        .iter_values()
        .zip(revenue.iter_values())
        .map(|(c, r)| match (c, r) {
            (Value::Str(c), Value::Float(r)) => Ok((c, r)),
            other => Err(format!("unexpected output row {other:?}")),
        })
        .collect()
}

/// Run one batch workload: `setups` set-ups (the last one is kept), then
/// ops over the same data until `seconds` have been measured.
pub fn run(kind: BatchKind, cfg: &RunConfig, tracer: &mut Tracer) -> Result<EndToEnd, String> {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..cfg.sizing.setups.max(1) {
        // Drop the previous set-up first: two resident tables would double
        // the peak the run reports.
        drop(setup.take());
        let started = Instant::now();
        setup = Some(BatchSetup::build(kind, cfg)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up ran");

    let mut out = EndToEnd::default();
    let mut op_ms = Vec::new();
    let mut timed_s = 0.0;
    let mut done = 0u64;
    while out.attempted < cfg.sizing.min_ops as u64 || timed_s < cfg.seconds {
        tracer.set_op(out.attempted);
        out.attempted += 1;
        let (ms, outcome) = setup.timed_op(tracer);
        timed_s += ms / 1e3;
        let problems = match &outcome {
            Ok(o) => setup.check(o),
            Err(e) => vec![e.clone()],
        };
        if problems.is_empty() {
            done += 1;
            op_ms.push(ms);
        } else {
            out.failed += 1;
            out.problems.extend(
                problems
                    .into_iter()
                    .map(|p| format!("op {}: {p}", out.attempted)),
            );
        }
    }
    out.setup_s = median_or_zero(&setup_s);
    out.ops_per_s = done as f64 / timed_s;
    out.rows_per_s = (done * setup.rows() as u64) as f64 / timed_s;
    out.op_p50_ms = median_or_zero(&op_ms);
    out.op_samples = op_ms.len();
    Ok(out)
}
