//! E9 — what resilience costs and what it buys (DESIGN.md §8). Three
//! series on the scheduler directly, where the effects are measurable in
//! isolation: (1) retry-backoff overhead under a deterministic crash rate,
//! immediate vs exponential; (2) speculation win-rate and latency on a
//! stage with a deterministic straggler; (3) cancellation latency — how
//! fast a permanent failure stops a stage that still has queued work.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use toreador_bench::table_header;
use toreador_data::generate::random_table;
use toreador_data::table::Table;
use toreador_dataflow::error::{FlowError, Result as FlowResult};
use toreador_dataflow::fault::{ChaosPlan, FaultKind, TargetedFault};
use toreador_dataflow::metrics::MetricsCollector;
use toreador_dataflow::resilience::{ResilienceConfig, RetryPolicy, SpeculationPolicy};
use toreador_dataflow::scheduler::{run_stage, SchedulerConfig};

const THREADS: usize = 8;
const TASKS: usize = 32;

fn workload() -> Vec<impl Fn() -> FlowResult<Table> + Send + Sync> {
    (0..TASKS)
        .map(|i| move || -> FlowResult<Table> { Ok(random_table(400, 4, i as u64)) })
        .collect()
}

/// One straggler partition sleeping `straggle_us`; everyone else is quick.
fn skewed_workload(straggle_us: u64) -> Vec<impl Fn() -> FlowResult<Table> + Send + Sync> {
    (0..TASKS)
        .map(move |i| {
            move || -> FlowResult<Table> {
                if i == TASKS - 1 {
                    std::thread::sleep(Duration::from_micros(straggle_us));
                }
                Ok(random_table(50, 2, i as u64))
            }
        })
        .collect()
}

fn timed_run(config: &SchedulerConfig) -> (Duration, MetricsCollector) {
    let metrics = MetricsCollector::new();
    let started = Instant::now();
    run_stage(config, &metrics, 0, workload()).unwrap();
    (started.elapsed(), metrics)
}

fn print_series() {
    table_header(
        "E9",
        "resilience cost: backoff overhead, speculation win-rate, cancellation latency",
    );

    // (1) Backoff overhead at a 20% crash rate, averaged over seeds.
    eprintln!(
        "{:>22} {:>12} {:>10} {:>12}",
        "policy", "elapsed us", "retries", "backoff us"
    );
    let policies: [(&str, Option<RetryPolicy>); 4] = [
        ("fault-free", None),
        ("immediate", Some(RetryPolicy::immediate(8))),
        ("fixed 500us", Some(RetryPolicy::fixed(8, 500))),
        (
            "expo 250..4000us",
            Some(RetryPolicy::exponential(8, 250, 4_000)),
        ),
    ];
    for (label, retry) in policies {
        let mut elapsed_us = 0u128;
        let mut retries = 0u64;
        let mut backoff_us = 0u64;
        const SEEDS: u64 = 5;
        for seed in 0..SEEDS {
            let resilience = match retry {
                None => ResilienceConfig::none(),
                Some(r) => ResilienceConfig::none()
                    .with_retry(r)
                    .with_chaos(ChaosPlan::crashes(0.2, seed)),
            };
            let config = SchedulerConfig::new(THREADS).with_resilience(resilience);
            let (elapsed, metrics) = timed_run(&config);
            let counters = metrics.trace().snapshot().counters();
            elapsed_us += elapsed.as_micros();
            retries += counters.count("dataflow.retries");
            backoff_us += counters.count("dataflow.backoff_us");
        }
        eprintln!(
            "{label:>22} {:>12} {:>10.1} {:>12.0}",
            elapsed_us / SEEDS as u128,
            retries as f64 / SEEDS as f64,
            backoff_us as f64 / SEEDS as f64,
        );
    }

    // (2) Speculation on a skewed stage: a deterministic 20 ms straggler.
    eprintln!(
        "\n{:>22} {:>12} {:>10} {:>8}",
        "speculation", "elapsed us", "launched", "won"
    );
    for (label, speculation) in [
        ("off", None),
        ("1.5x median", Some(SpeculationPolicy::new(1.5))),
        ("3x median", Some(SpeculationPolicy::new(3.0))),
    ] {
        let mut resilience = ResilienceConfig::none().with_chaos(
            // The straggle is injected via a targeted delay so the retried
            // (speculative) attempt of the same partition runs clean.
            ChaosPlan::none().with_targeted(TargetedFault {
                stage: 0,
                partition: TASKS - 1,
                attempt: 0,
                kind: FaultKind::Delay { micros: 20_000 },
            }),
        );
        if let Some(s) = speculation {
            resilience = resilience.with_speculation(s.with_min_samples(8));
        }
        let config = SchedulerConfig::new(THREADS).with_resilience(resilience);
        let metrics = MetricsCollector::new();
        let started = Instant::now();
        run_stage(&config, &metrics, 0, skewed_workload(0)).unwrap();
        let elapsed = started.elapsed();
        let counters = metrics.trace().snapshot().counters();
        eprintln!(
            "{label:>22} {:>12} {:>10} {:>8}",
            elapsed.as_micros(),
            counters.count("dataflow.speculative_launched"),
            counters.count("dataflow.speculative_won"),
        );
    }

    // (3) Cancellation latency: task 0 fails permanently at once while 31
    // siblings each hold a worker for 5 ms. Without cooperative
    // cancellation the stage would drain all of them (~20 ms on 8
    // workers); with it, only the in-flight wave finishes.
    let cancel_tasks = || {
        (0..TASKS)
            .map(|i| {
                move || -> FlowResult<Table> {
                    if i == 0 {
                        return Err(FlowError::Plan("poisoned partition".to_owned()));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                    Ok(random_table(10, 2, i as u64))
                }
            })
            .collect::<Vec<_>>()
    };
    let config = SchedulerConfig::new(THREADS);
    let metrics = MetricsCollector::new();
    let started = Instant::now();
    let err = run_stage(&config, &metrics, 0, cancel_tasks()).unwrap_err();
    let elapsed = started.elapsed();
    let full_drain = Duration::from_millis(5) * (TASKS as u32 - 1) / THREADS as u32;
    eprintln!(
        "\ncancellation: permanent failure stopped the stage in {} us \
         (full drain would be ~{} us): {err}",
        elapsed.as_micros(),
        full_drain.as_micros(),
    );
}

fn bench_resilience(c: &mut Criterion) {
    print_series();
    let mut group = c.benchmark_group("e9_resilience");
    group.sample_size(10);
    group.bench_function("stage_fault_free", |b| {
        let config = SchedulerConfig::new(THREADS);
        b.iter(|| {
            let metrics = MetricsCollector::new();
            run_stage(&config, &metrics, 0, workload()).unwrap()
        });
    });
    group.bench_function("stage_crash20_immediate_retry", |b| {
        let config = SchedulerConfig::new(THREADS).with_resilience(
            ResilienceConfig::none()
                .with_retry(RetryPolicy::immediate(8))
                .with_chaos(ChaosPlan::crashes(0.2, 1)),
        );
        b.iter(|| {
            let metrics = MetricsCollector::new();
            run_stage(&config, &metrics, 0, workload()).unwrap()
        });
    });
    group.bench_function("stage_crash20_expo_backoff", |b| {
        let config = SchedulerConfig::new(THREADS).with_resilience(
            ResilienceConfig::none()
                .with_retry(RetryPolicy::exponential(8, 250, 4_000).with_jitter(0.25, 1))
                .with_chaos(ChaosPlan::crashes(0.2, 1)),
        );
        b.iter(|| {
            let metrics = MetricsCollector::new();
            run_stage(&config, &metrics, 0, workload()).unwrap()
        });
    });
    group.bench_function("skewed_stage_speculation", |b| {
        let config = SchedulerConfig::new(THREADS).with_resilience(
            ResilienceConfig::none()
                .with_speculation(SpeculationPolicy::new(1.5).with_min_samples(8))
                .with_chaos(ChaosPlan::none().with_targeted(TargetedFault {
                    stage: 0,
                    partition: TASKS - 1,
                    attempt: 0,
                    kind: FaultKind::Delay { micros: 10_000 },
                })),
        );
        b.iter(|| {
            let metrics = MetricsCollector::new();
            run_stage(&config, &metrics, 0, skewed_workload(0)).unwrap()
        });
    });
    group.bench_function("cancellation_latency", |b| {
        let config = SchedulerConfig::new(THREADS);
        b.iter(|| {
            let metrics = MetricsCollector::new();
            let tasks: Vec<_> = (0..TASKS)
                .map(|i| {
                    move || -> FlowResult<Table> {
                        if i == 0 {
                            return Err(FlowError::Plan("poisoned partition".to_owned()));
                        }
                        std::thread::sleep(Duration::from_millis(2));
                        Ok(random_table(10, 2, i as u64))
                    }
                })
                .collect();
            run_stage(&config, &metrics, 0, tasks).unwrap_err()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_resilience);
criterion_main!(benches);
