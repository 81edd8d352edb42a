//! `ledger` — the campaign ledger's command line.
//!
//! ```text
//! ledger run --workload <name> [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!            [--smoke] [--out FILE] [--out-dir DIR]
//! ledger run --all [--traced] [--seed N] [--seconds S] [--smoke] [--out FILE]
//! ledger repeat <n> [--traced] [--seed N] [--seconds S] [--smoke] [--out FILE]
//! ledger compare <a.json> <b.json> [--benchmark BENCHMARK.json]
//! ```
//!
//! `run --workload` runs one workload in this process, checks its output
//! against an oracle, prints every metric by name with its unit, and ends
//! with the one-line JSON result the benchmark contract asks for. It exits
//! non-zero when any op failed or any oracle disagreed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use toreador_ledger::host::Host;
use toreador_ledger::sizing::Sizing;
use toreador_ledger::span::self_time_by_name;
use toreador_ledger::suite::{self, Bounds, Suite, SuiteConfig};
use toreador_ledger::workload::{self, Daemon, RunConfig, Workload};

/// Matches `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;
const DEFAULT_SEED: u64 = 42;
const DEFAULT_OUT_DIR: &str = "ledger/out";

const USAGE: &str = "usage:
  ledger run --workload <name> [--seed N] [--seconds S] [--trace 0|1 | --traced] [--smoke] [--out FILE] [--out-dir DIR]
  ledger run --all [--traced] [--seed N] [--seconds S] [--smoke] [--out FILE] [--out-dir DIR]
  ledger repeat <n> [--traced] [--seed N] [--seconds S] [--smoke] [--out FILE] [--out-dir DIR]
  ledger compare <a.json> <b.json> [--benchmark BENCHMARK.json]
workloads: batch_narrow batch_wide batch_spill stream_durable serve_cohort";

/// `--key value` pairs, bare `--flag`s and positionals.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

const FLAGS: [&str; 3] = ["all", "traced", "smoke"];

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) if FLAGS.contains(&key) => args.options.push((key.to_owned(), None)),
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    args.options.push((key.to_owned(), Some(value.clone())));
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    fn flag(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{key}: {v:?}")),
            None => Ok(default),
        }
    }
}

fn write_json(path: &Path, value: &serde_json::Value) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe.with_file_name(name))
}

fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    let smoke = args.flag("smoke");
    let traced = args.flag("traced")
        || match args.value("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        };
    let out_dir = PathBuf::from(args.value("out-dir").unwrap_or(DEFAULT_OUT_DIR));
    let cfg = RunConfig {
        workload,
        seed: args.parsed("seed", DEFAULT_SEED)?,
        seconds: args.parsed("seconds", DEFAULT_SECONDS)?,
        traced,
        sizing: if smoke { Sizing::SMOKE } else { Sizing::FULL },
        daemon: if smoke {
            Daemon::InProcess
        } else {
            Daemon::Child(sibling_binary("toreador")?)
        },
        scratch: out_dir.join(format!("scratch-{}", std::process::id())),
    };
    let report = workload::run(&cfg)?;
    print!("{}", report.render());
    if traced {
        println!(
            "{:<36} {:>8} {:>14} {:>14}",
            "span", "count", "total ms", "self ms"
        );
        for (name, (count, total_us, self_us)) in self_time_by_name(&report.spans) {
            println!(
                "{name:<36} {count:>8} {:>14.3} {:>14.3}",
                total_us as f64 / 1e3,
                self_us as f64 / 1e3
            );
        }
        let trace_path = out_dir.join(format!("trace_{}.json", workload.name()));
        let spans = serde_json::to_value(&report.spans).map_err(|e| e.to_string())?;
        write_json(&trace_path, &spans)?;
        println!("spans written to {}", trace_path.display());
    }
    if let Some(out) = args.value("out") {
        write_json(Path::new(out), &report.to_json())?;
    }
    println!("{}", report.contract_line());
    Ok(report.correct())
}

fn suite_config(args: &Args) -> Result<SuiteConfig, String> {
    Ok(SuiteConfig {
        exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
        seed: args.parsed("seed", DEFAULT_SEED)?,
        seconds: args.parsed("seconds", DEFAULT_SECONDS)?,
        traced: args.flag("traced"),
        smoke: args.flag("smoke"),
        out_dir: PathBuf::from(args.value("out-dir").unwrap_or(DEFAULT_OUT_DIR)),
    })
}

fn finish_suite(
    args: &Args,
    cfg: &SuiteConfig,
    suite: &Suite,
    runs: usize,
    default_name: &str,
) -> Result<bool, String> {
    let out = args
        .value("out")
        .map_or_else(|| cfg.out_dir.join(default_name), PathBuf::from);
    write_json(&out, &suite.to_json(&Host::describe(), cfg, runs))?;
    println!("suite written to {}", out.display());
    for (workload, failed) in &suite.failed {
        if *failed > 0 {
            println!("FAILED: {workload}: {failed} op(s)");
        }
    }
    Ok(suite.total_failed() == 0)
}

fn dispatch(raw: &[String]) -> Result<bool, String> {
    let args = Args::parse(raw.get(1..).unwrap_or_default())?;
    match raw.first().map(String::as_str) {
        Some("run") if args.flag("all") => {
            let cfg = suite_config(&args)?;
            let suite = suite::run_all(&cfg)?;
            finish_suite(&args, &cfg, &suite, 1, "ledger.json")
        }
        Some("run") => {
            let name = args
                .value("workload")
                .ok_or("run needs --workload <name> or --all")?;
            let workload =
                Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            run_one(&args, workload)
        }
        Some("repeat") => {
            let n: usize = args
                .positional
                .first()
                .and_then(|n| n.parse().ok())
                .filter(|n| *n >= 2)
                .ok_or("repeat needs a count of at least 2")?;
            let cfg = suite_config(&args)?;
            let suite = suite::repeat(&cfg, n)?;
            print!("{}", suite::render_spreads(&suite));
            finish_suite(&args, &cfg, &suite, n, "repeat.json")
        }
        Some("compare") => {
            let [a, b] = args.positional.as_slice() else {
                return Err("compare needs two suite files".to_owned());
            };
            let bounds = Bounds::load(Path::new(
                args.value("benchmark").unwrap_or("BENCHMARK.json"),
            ))?;
            let (table, worse) = suite::render_compare(
                &Suite::load(Path::new(a))?,
                &Suite::load(Path::new(b))?,
                &bounds,
            );
            print!("{table}");
            println!("{worse} metric(s) worse than their bound");
            Ok(worse == 0)
        }
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}
