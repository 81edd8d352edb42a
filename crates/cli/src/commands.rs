//! CLI command implementations.
//!
//! Each command returns its output as a `String` (so tests assert on it)
//! and `main` prints it. Data sources are CSV files, JSONL files, or the
//! built-in scenario generators (`generated:<scenario-id>`).

use std::collections::HashMap;

use toreador_core::prelude::*;
use toreador_data::column::LaneRef;
use toreador_data::table::Table;
use toreador_dataflow::fault::{ChaosPlan, FaultKind, KillMode, TargetedFault};
use toreador_dataflow::resilience::{
    ResilienceConfig, RetryPolicy, SpeculationPolicy, TaskDeadline,
};
use toreador_dataflow::trace::Counters;
use toreador_labs::prelude::*;

use crate::args::Args;

/// Top-level dispatch.
pub fn dispatch(args: &Args) -> Result<String, String> {
    match args.command.as_str() {
        "catalog" => Ok(catalog()),
        "scenarios" => Ok(scenarios_cmd()),
        "challenges" => challenges_cmd(args),
        "explain" => explain(args),
        "run" => run(args),
        "stream" => stream_cmd(args),
        "resume" => resume_cmd(args),
        "trace" => trace_cmd(args),
        "chaos" => chaos_cmd(args),
        "fsck" => fsck_cmd(args),
        "attempt" => attempt(args),
        "serve" => serve_cmd(args),
        "fleet" => fleet_cmd(args),
        "sessions" => sessions_cmd(args),
        "history" => history_cmd(args),
        "compare" => compare_cmd(args),
        "" | "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

pub fn usage() -> String {
    "toreador — model-driven Big Data campaigns (TOREADOR reproduction)\n\
     \n\
     USAGE:\n\
     \x20 toreador catalog                       list the service catalogue\n\
     \x20 toreador scenarios                     list the vertical scenarios\n\
     \x20 toreador challenges [id]               list challenges / show one\n\
     \x20 toreador explain <campaign.tdl> --data <source> [--rows N]\n\
     \x20                                        compile and show the plan\n\
     \x20 toreador run <campaign.tdl> --data <source> [--rows N] [--seed N]\n\
     \x20                [--store <dir>]         compile, run, report; --store\n\
     \x20                                        persists the run record\n\
     \x20                [--memory-budget B]     cap wide-operator memory at B\n\
     \x20                                        bytes (suffixes k/m/g); runs\n\
     \x20                                        beyond it spill to paged files,\n\
     \x20                                        output unchanged\n\
     \x20                [--checkpoint-dir <dir> --run-id <id>]\n\
     \x20                                        checkpoint every stage boundary\n\
     \x20                                        so the run survives process death\n\
     \x20                [--kill-at E:W] [--kill-mode exit|halt]\n\
     \x20                                        chaos: die at engine E's stage\n\
     \x20                                        boundary W (exit code 42) after\n\
     \x20                                        the wave is durable\n\
     \x20 toreador stream --data <source> --key <col> [--sum <col>]\n\
     \x20                [--rows N] [--seed N] [--window-ms N] [--ts-column C]\n\
     \x20                [--allowed-lateness N] [--late-policy absorb|side-channel|drop]\n\
     \x20                [--buffer N] [--json]   continuous keyed aggregation over\n\
     \x20                                        arrival-order event windows:\n\
     \x20                                        backpressure, watermarks, late\n\
     \x20                                        data; --json emits one ack\n\
     \x20                                        record per batch\n\
     \x20                [--memory-budget B]     spill over-budget batch state\n\
     \x20                [--store <dir>]         durable acked offsets (WAL)\n\
     \x20                [--kill-at-ack N] [--kill-mode exit|halt]\n\
     \x20                                        die right after offset N's ack\n\
     \x20                                        is durable (exit 42)\n\
     \x20                [--resume]              replay the WAL and finish the\n\
     \x20                                        stream; acked batches never\n\
     \x20                                        re-execute\n\
     \x20 toreador resume <run-id> --checkpoint-dir <dir> [--store <dir>]\n\
     \x20                                        resume a killed checkpointed run\n\
     \x20                                        at the first incomplete stage;\n\
     \x20                                        restored stages never recompute\n\
     \x20 toreador trace <campaign.tdl> --data <source> [--rows N] [--seed N]\n\
     \x20                [--format text|json]    run and show the flight\n\
     \x20                [--store <dir>]         recorder: per-stage timings,\n\
     \x20                [--memory-budget B]     critical path, skew, retries,\n\
     \x20                                        spill totals when budgeted\n\
     \x20 toreador chaos <campaign.tdl> --data <source> [--rows N] [--seed N]\n\
     \x20                [--profile P] [--retries N] [--deadline-ms N]\n\
     \x20                [--speculate F]            run once fault-free, once\n\
     \x20                                           under a deterministic chaos\n\
     \x20                                           plan; report resilience cost\n\
     \x20                                           and whether outputs match\n\
     \x20 toreador fsck <dir> [--repair]         offline integrity scrub of\n\
     \x20                                        store / checkpoint / spill\n\
     \x20                                        dirs: CRC-verify every frame,\n\
     \x20                                        page and segment; --repair\n\
     \x20                                        applies only proven-safe\n\
     \x20                                        actions (truncate torn tails,\n\
     \x20                                        sweep orphans) and exits\n\
     \x20                                        non-zero iff unrepairable\n\
     \x20                                        corruption remains\n\
     \x20 toreador attempt <challenge-id> <choice>... [--rows N] [--seed N]\n\
     \x20                  [--session <file>]    one Labs attempt with scoring;\n\
     \x20                  [--store <dir>]       --session persists to a JSON\n\
     \x20                                        file, --store to the crash-safe\n\
     \x20                                        campaign store (WAL + snapshots)\n\
     \x20 toreador serve --store <dir>           run the multi-tenant Labs\n\
     \x20                [--addr host:port]      daemon (HTTP/JSON) over the\n\
     \x20                [--max-inflight N] [--queue N] [--queue-wait-ms N]\n\
     \x20                [--tenant-inflight N] [--threads-per-attempt N]\n\
     \x20                [--quota-runs N] [--quota-rows N] [--quota-cost F]\n\
     \x20                                        store; SIGINT/SIGTERM drains\n\
     \x20                                        in-flight attempts and exits 0\n\
     \x20 toreador fleet [--addr host:port]      drive a trainee fleet against\n\
     \x20                [--trainees N] [--attempts N] [--workers N] [--rows N]\n\
     \x20                [--challenge id] [--quick] [--ramp 4,8,16]\n\
     \x20                [--max-p99-ms N] [--timeout-s N]\n\
     \x20                                        a live daemon: latency\n\
     \x20                                        percentiles, rejection classes,\n\
     \x20                                        lost-record verification\n\
     \x20 toreador sessions --store <dir> [--json]\n\
     \x20                                        list trainees in the store\n\
     \x20                                        with quota headroom\n\
     \x20 toreador history <trainee> --store <dir> [--json]\n\
     \x20                                        one trainee's persisted runs\n\
     \x20 toreador compare <run-a> <run-b> --store <dir> [--trainee <name>]\n\
     \x20                                        diff two persisted runs:\n\
     \x20                                        choices, indicators, operator\n\
     \x20                                        timings, skew\n\
     \n\
     Commands taking --store also accept --trainee <name> (default \"cli\").\n\
     \n\
     CHAOS PROFILES for --profile (default hostile):\n\
     \x20 calm | flaky | lossy | slow | panicky | hostile | diskful\n\
     \x20 targeted:<stage>:<partition>:<attempt>:<crash|panic|delay[:micros]>\n\
     \x20 (diskful injects storage faults — EIO, torn writes — under a\n\
     \x20  spilling run instead of task faults; same oracle: identical\n\
     \x20  output or a classified failure, never silent divergence)\n\
     \n\
     DATA SOURCES for --data:\n\
     \x20 generated:<scenario-id>                a built-in scenario generator\n\
     \x20 <path>.csv | <path>.jsonl              a file on disk\n"
        .to_owned()
}

fn catalog() -> String {
    let registry = toreador_catalog::builtin::standard_catalog();
    let mut out = format!("{} services\n\n", registry.len());
    for area in toreador_catalog::descriptor::Area::all() {
        out.push_str(&format!("[{area}]\n"));
        for s in registry.by_area(area) {
            out.push_str(&format!(
                "  {:<30} {:<22} cost {:>5.1}/k  quality {:.2}{}\n",
                s.id,
                format!("{:?}", s.capability),
                s.cost_per_k_rows,
                s.quality,
                s.privacy.map(|p| format!("  [{p:?}]")).unwrap_or_default(),
            ));
        }
    }
    out
}

fn scenarios_cmd() -> String {
    let mut out = String::new();
    for s in toreador_labs::scenario::scenarios() {
        out.push_str(&format!(
            "{:<22} {:<18} default {} rows\n  {}\n\n",
            s.id,
            s.vertical.name(),
            s.default_rows,
            s.brief
        ));
    }
    out
}

fn challenges_cmd(args: &Args) -> Result<String, String> {
    match args.positionals.first() {
        None => {
            let mut out = String::new();
            for c in challenges() {
                out.push_str(&format!("{:<20} [{}] {}\n", c.id, c.scenario_id, c.title));
            }
            Ok(out)
        }
        Some(id) => {
            let c = challenge(id).map_err(|e| e.to_string())?;
            let mut out = format!("{} — {}\n\n{}\n\n", c.id, c.title, c.brief);
            for (i, p) in c.choice_points.iter().enumerate() {
                out.push_str(&format!("choice {i} [{}]: {}\n", p.id, p.prompt));
                for o in &p.options {
                    out.push_str(&format!("    {:<10} {}\n", o.id, o.label));
                }
            }
            out.push_str(&format!(
                "\nreference solution: {}\n",
                c.reference_vector().join(" ")
            ));
            Ok(out)
        }
    }
}

/// Load a `--data` source.
fn load_data(
    args: &Args,
    rows: usize,
    seed: u64,
) -> Result<(Table, HashMap<String, Table>), String> {
    let source = args
        .flag("data")
        .ok_or_else(|| "missing --data <source> (see `toreador help`)".to_owned())?;
    load_source(source, rows, seed)
}

/// Load a data source by name — shared by `--data` and the resume spec,
/// which replays the source a killed run was started with.
fn load_source(
    source: &str,
    rows: usize,
    seed: u64,
) -> Result<(Table, HashMap<String, Table>), String> {
    if let Some(scenario_id) = source.strip_prefix("generated:") {
        let scen = toreador_labs::scenario::scenario(scenario_id).map_err(|e| e.to_string())?;
        let n = if rows == 0 { scen.default_rows } else { rows };
        return Ok((scen.generate(n, seed), scen.auxiliary()));
    }
    let text =
        std::fs::read_to_string(source).map_err(|e| format!("cannot read {source:?}: {e}"))?;
    let table = if source.ends_with(".jsonl") || source.ends_with(".ndjson") {
        toreador_data::json::read_jsonl(&text).map_err(|e| e.to_string())?
    } else {
        toreador_data::csv::read_csv(&text).map_err(|e| e.to_string())?
    };
    let table = if rows > 0 && rows < table.num_rows() {
        table.slice(0, rows).map_err(|e| e.to_string())?
    } else {
        table
    };
    Ok((table, HashMap::new()))
}

fn compile_from_args(
    args: &Args,
) -> Result<(Bdaas, CompiledCampaign, Table, HashMap<String, Table>), String> {
    let file = args.positional(0, "campaign file")?;
    let dsl = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file:?}: {e}"))?;
    let rows = args.flag_or("rows", 0usize)?;
    let seed = args.flag_or("seed", 0u64)?;
    let (data, aux) = load_data(args, rows, seed)?;
    let bdaas = Bdaas::new();
    let spec = bdaas.parse(&dsl).map_err(|e| e.to_string())?;
    let compiled = bdaas
        .compile(&spec, data.schema(), data.num_rows())
        .map_err(|e| e.to_string())?;
    Ok((bdaas, compiled, data, aux))
}

fn explain(args: &Args) -> Result<String, String> {
    let (_, compiled, data, _) = compile_from_args(args)?;
    let mut out = format!(
        "campaign {:?} on {} rows of {:?}\n\nprocedural model:\n{}",
        compiled.spec.name,
        data.num_rows(),
        compiled.spec.dataset,
        compiled.procedural.composition
    );
    out.push_str(&format!(
        "\ndeployment: platform {} | {} workers | {} partitions | estimated cost {:.1}\n",
        compiled.deployment.platform.name,
        compiled.deployment.engine_config.threads,
        compiled.deployment.engine_config.partitions,
        compiled.deployment.estimated_cost,
    ));
    out.push_str(&format!(
        "privacy manifest: outputs {:?}, k={:?}, l={:?}, ε={:?}\n",
        compiled.manifest.columns_output,
        compiled.manifest.k_anonymity,
        compiled.manifest.l_diversity,
        compiled.manifest.dp_epsilon,
    ));
    for w in &compiled.warnings {
        out.push_str(&format!("warning: {w}\n"));
    }
    Ok(out)
}

/// Open the campaign store named by a required `--store <dir>`.
fn required_store(args: &Args) -> Result<SessionStore, String> {
    let dir = args
        .flag("store")
        .ok_or_else(|| "missing --store <dir> (see `toreador help`)".to_owned())?;
    SessionStore::open(dir).map_err(|e| e.to_string())
}

/// The trainee runs are filed under (`--trainee`, default `cli`).
fn trainee_name(args: &Args) -> &str {
    args.flag("trainee").unwrap_or("cli")
}

/// Persist an ad-hoc (non-challenge) campaign run under `trainee`,
/// registering the trainee with an unmetered quota if the store has not
/// seen them. Returns the run id assigned.
fn persist_adhoc_run(
    store: &mut SessionStore,
    trainee: &str,
    label: &str,
    rows_in: usize,
    compiled: &CompiledCampaign,
    outcome: &CampaignOutcome,
) -> Result<u64, String> {
    let mut meta = match store.trainee(trainee) {
        Some(state) => state.meta.clone(),
        None => {
            let meta = SessionMeta {
                quota: Quota::unlimited(),
                total_cost: 0.0,
                seed: 0,
            };
            store.put_meta(trainee, &meta).map_err(|e| e.to_string())?;
            meta
        }
    };
    let run_id = store.next_run_id(trainee);
    let record = record_outcome(run_id, label, &Vec::new(), rows_in, compiled, outcome);
    store
        .put_run(trainee, run_id, &record)
        .map_err(|e| e.to_string())?;
    meta.total_cost += record.indicator(Indicator::Cost).unwrap_or(0.0);
    store.put_meta(trainee, &meta).map_err(|e| e.to_string())?;
    Ok(run_id)
}

/// Render a campaign outcome the way `run` and `resume` both report it:
/// indicators, objectives, compliance, output sample, reports. Everything
/// from `output (` down is deterministic for a fixed campaign+data, which
/// is what the kill/resume CI matrix diffs.
fn render_outcome(outcome: &CampaignOutcome) -> String {
    let mut out = String::new();
    out.push_str("indicators:\n");
    for (name, value) in &outcome.indicators {
        out.push_str(&format!("  {name:<18} {value:>14.3}\n"));
    }
    if !outcome.objectives.is_empty() {
        out.push_str("objectives:\n");
        for o in &outcome.objectives {
            out.push_str(&format!(
                "  {:<30} {}\n",
                o.objective.to_string(),
                match o.satisfied {
                    Some(true) => "satisfied",
                    Some(false) => "MISSED",
                    None => "unmeasured",
                }
            ));
        }
    }
    if let Some(v) = &outcome.post_verdict {
        out.push_str(&format!(
            "compliance: {}\n",
            if v.compliant { "PASS" } else { "FAIL" }
        ));
    }
    out.push_str(&format!(
        "\noutput ({} rows):\n{}output digest: {:016x}\n",
        outcome.output.num_rows(),
        outcome.output.show(15),
        output_digest(&outcome.output)
    ));
    for (service, text) in &outcome.reports {
        out.push_str(&format!("\n[{service}]\n{text}\n"));
    }
    out
}

/// FNV-1a over every cell of `t`, column by column: a type tag per
/// column, then per row its validity and, when valid, its value — a
/// float's bit pattern, a text's length and bytes. Two outputs with the
/// same digest agree beyond the rows `show` prints.
fn output_digest(t: &Table) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(t.num_rows() as u64).to_le_bytes());
    for col in t.columns() {
        eat(col.data_type().name().as_bytes());
        for row in 0..col.len() {
            let valid = col.validity().get(row);
            eat(&[valid as u8]);
            if !valid {
                continue;
            }
            match col.lane() {
                LaneRef::Bool(d) => eat(&[d[row] as u8]),
                LaneRef::Int(d) | LaneRef::Timestamp(d) => eat(&d[row].to_le_bytes()),
                LaneRef::Float(d) => eat(&d[row].to_bits().to_le_bytes()),
                LaneRef::Str(d) => {
                    eat(&(d.get(row).len() as u64).to_le_bytes());
                    eat(d.get(row).as_bytes());
                }
            }
        }
    }
    h
}

/// Parse `--memory-budget <bytes>` — plain bytes or with a k/m/g suffix
/// (binary units: `64m` is 64 MiB). `None` when the flag is absent.
fn parse_memory_budget(args: &Args) -> Result<Option<u64>, String> {
    let Some(raw) = args.flag("memory-budget") else {
        return Ok(None);
    };
    let bad = || format!("--memory-budget wants bytes (suffixes k/m/g), got {raw:?}");
    let (digits, shift) = match raw.char_indices().last() {
        Some((i, 'k' | 'K')) => (&raw[..i], 10),
        Some((i, 'm' | 'M')) => (&raw[..i], 20),
        Some((i, 'g' | 'G')) => (&raw[..i], 30),
        Some(_) => (raw, 0),
        None => return Err(bad()),
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    n.checked_shl(shift)
        .filter(|v| shift == 0 || *v >> shift == n)
        .map(Some)
        .ok_or_else(bad)
}

/// Parse `--kill-at <engine>:<wave>` plus `--kill-mode exit|halt` into the
/// chaos kill point a checkpointed `run` will die at.
fn parse_kill(args: &Args) -> Result<Option<BoundaryKillSpec>, String> {
    let Some(at) = args.flag("kill-at") else {
        return Ok(None);
    };
    let (engine, wave) = at
        .split_once(':')
        .ok_or_else(|| format!("--kill-at wants <engine>:<wave>, got {at:?}"))?;
    let engine: usize = engine
        .parse()
        .map_err(|_| format!("--kill-at engine must be an integer, got {engine:?}"))?;
    let wave: usize = wave
        .parse()
        .map_err(|_| format!("--kill-at wave must be an integer, got {wave:?}"))?;
    let mode = match args.flag("kill-mode").unwrap_or("exit") {
        // 42: distinguishable from clean exits and from error exit 1, so CI
        // can assert the kill actually fired.
        "exit" => KillMode::Exit { code: 42 },
        "halt" => KillMode::Halt,
        other => return Err(format!("--kill-mode must be exit or halt, got {other:?}")),
    };
    Ok(Some(BoundaryKillSpec { engine, wave, mode }))
}

/// Write `<checkpoint-dir>/<run-id>/campaign.json` — everything `resume`
/// needs to recompile the identical campaign: the DSL text, the data
/// source, and the row/seed knobs. Written before the run starts so the
/// spec survives any kill.
fn write_resume_spec(args: &Args, ckpt_dir: &str, run_id: &str) -> Result<(), String> {
    let file = args.positional(0, "campaign file")?;
    let dsl = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file:?}: {e}"))?;
    let source = args
        .flag("data")
        .ok_or_else(|| "missing --data <source> (see `toreador help`)".to_owned())?;
    let mut spec = std::collections::BTreeMap::new();
    spec.insert("campaign", dsl);
    spec.insert("data", source.to_owned());
    spec.insert("rows", args.flag_or("rows", 0usize)?.to_string());
    spec.insert("seed", args.flag_or("seed", 0u64)?.to_string());
    let dir = std::path::Path::new(ckpt_dir).join(run_id);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    let path = dir.join("campaign.json");
    let json = serde_json::to_string(&spec).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("cannot write {path:?}: {e}"))
}

fn run(args: &Args) -> Result<String, String> {
    let (bdaas, mut compiled, data, aux) = compile_from_args(args)?;
    if let Some(budget) = parse_memory_budget(args)? {
        compiled.deployment.engine_config = compiled
            .deployment
            .engine_config
            .clone()
            .with_memory_budget(budget);
    }
    let rows_in = data.num_rows();
    let kill = parse_kill(args)?;
    let outcome = match args.flag("checkpoint-dir") {
        None => {
            if kill.is_some() {
                return Err(
                    "--kill-at needs --checkpoint-dir (kill points only fire on \
                            checkpointed runs, after the wave is durable)"
                        .to_owned(),
                );
            }
            bdaas
                .run(&compiled, data, &aux)
                .map_err(|e| e.to_string())?
        }
        Some(ckpt_dir) => {
            let run_id = args.flag("run-id").unwrap_or("run");
            write_resume_spec(args, ckpt_dir, run_id)?;
            let mut rec = RecoverySpec::new(ckpt_dir, run_id);
            if let Some(kill) = kill {
                rec = rec.with_kill(kill);
            }
            bdaas
                .run_with_recovery(&compiled, data, &aux, &rec)
                .map_err(|e| e.to_string())?
        }
    };
    let mut out = render_outcome(&outcome);
    if args.flag("store").is_some() {
        let mut store = required_store(args)?;
        let trainee = trainee_name(args);
        let run_id = persist_adhoc_run(
            &mut store,
            trainee,
            &compiled.spec.name,
            rows_in,
            &compiled,
            &outcome,
        )?;
        out.push_str(&format!(
            "\nstored as run {run_id} for trainee {trainee:?} (compare with \
             `toreador compare` after any later run)\n"
        ));
    }
    Ok(out)
}

/// The `--json` footer of `toreador stream`: lifetime totals plus the
/// canonical state string (the kill/resume byte-identity witness).
#[derive(serde::Serialize)]
struct StreamFooter {
    totals: toreador_dataflow::trace::StreamTotals,
    cumulative: toreador_dataflow::trace::StreamTotals,
    resumed: bool,
    side_channel_rows: u64,
    mean_ack_latency_us: f64,
    state: String,
}

/// `toreador stream`: run a continuous keyed aggregation over a data source
/// cut into arrival-order event-time windows — backpressure, watermarks,
/// and a late-data policy; with `--store`, durable acked offsets that
/// survive process death. `--kill-at-ack N` dies right after offset N's ack
/// reaches the WAL (exit 42 under the default kill mode); rerunning with
/// `--resume` replays the WAL and finishes the stream without re-executing
/// any acked batch.
fn stream_cmd(args: &Args) -> Result<String, String> {
    use toreador_dataflow::logical::{AggExpr, AggFunc};
    use toreador_dataflow::session::EngineConfig;
    use toreador_dataflow::streaming::{
        run_continuous, ArrivalSource, DurableSpec, LatePolicy, StreamConfig,
    };

    let rows = args.flag_or("rows", 0usize)?;
    let seed = args.flag_or("seed", 42u64)?;
    let (data, _aux) = load_data(args, rows, seed)?;
    let key = args
        .flag("key")
        .ok_or_else(|| "missing --key <column> (see `toreador help`)".to_owned())?
        .to_owned();
    let sum = args.flag("sum").map(str::to_owned);
    let ts_column = args.flag("ts-column").unwrap_or("ts").to_owned();
    let window_ms = args.flag_or("window-ms", 1_000i64)?;
    let lateness = args.flag_or("allowed-lateness", 0i64)?;
    let late_policy: LatePolicy = args
        .flag("late-policy")
        .unwrap_or("absorb")
        .parse()
        .map_err(|e| format!("--late-policy: {e}"))?;
    let buffer = args.flag_or("buffer", 8usize)?;
    if buffer == 0 {
        return Err("--buffer must be positive".to_owned());
    }

    let mut engine_config = EngineConfig::default().with_threads(2);
    if let Some(budget) = parse_memory_budget(args)? {
        engine_config = engine_config.with_memory_budget(budget);
    }
    let mut config = StreamConfig::default()
        .with_engine(engine_config)
        .with_ts_column(&ts_column)
        .with_allowed_lateness(lateness)
        .with_late_policy(late_policy)
        .with_buffer(buffer)
        .with_pipeline_id(format!("cli:{key}"));
    match args.flag("store") {
        Some(dir) => {
            config =
                config.with_durable(DurableSpec::new(dir).with_resume(args.flag_set("resume")));
        }
        None if args.flag_set("resume") => {
            return Err("--resume needs --store <dir> (the WAL to replay)".to_owned());
        }
        None => {}
    }
    if let Some(at) = args.flag("kill-at-ack") {
        if args.flag("store").is_none() {
            return Err(
                "--kill-at-ack needs --store <dir> (kill points only fire once the ack \
                 is durable)"
                    .to_owned(),
            );
        }
        let offset: u64 = at
            .parse()
            .map_err(|_| format!("--kill-at-ack must be an offset, got {at:?}"))?;
        let mode = match args.flag("kill-mode").unwrap_or("exit") {
            "exit" => KillMode::Exit { code: 42 },
            "halt" => KillMode::Halt,
            other => return Err(format!("--kill-mode must be exit or halt, got {other:?}")),
        };
        config = config.with_kill_at_ack(offset, mode);
    }

    let mut source =
        ArrivalSource::windows(&data, &ts_column, window_ms).map_err(|e| e.to_string())?;
    let run = run_continuous(
        &mut source,
        &config,
        &|e, ds| {
            let mut aggs = vec![AggExpr::new(AggFunc::Count, key.as_str(), "n")];
            if let Some(s) = &sum {
                aggs.push(AggExpr::new(AggFunc::Sum, s, "total"));
            }
            e.flow(ds)?.aggregate(&[key.as_str()], aggs)
        },
        &key,
        Some("n"),
        sum.as_ref().map(|_| "total"),
    )
    .map_err(|e| e.to_string())?;

    let totals = run.totals();
    let cumulative = run.cumulative_totals();
    let resumed = run.recovery.as_ref().is_some_and(|r| r.resumed);
    let side_channel_rows: u64 = run.side_channel.iter().map(|t| t.num_rows() as u64).sum();
    if args.flag_set("json") {
        // One wire record per acked batch, then one footer line — JSONL, so
        // scripts stream it.
        let mut out = String::new();
        for a in &run.acked {
            out.push_str(&serde_json::to_string(a).map_err(|e| e.to_string())?);
            out.push('\n');
        }
        let footer = StreamFooter {
            totals,
            cumulative,
            resumed,
            side_channel_rows,
            mean_ack_latency_us: run.mean_ack_latency_us(),
            state: run.canonical_state(),
        };
        out.push_str(&serde_json::to_string(&footer).map_err(|e| e.to_string())?);
        out.push('\n');
        return Ok(out);
    }

    let mut out = format!(
        "stream over {} rows, {} event window(s): {} batch(es) acked, {} rows\n",
        data.num_rows(),
        source.num_batches(),
        totals.batches_acked,
        totals.rows_acked,
    );
    if resumed {
        let r = run.recovery.as_ref().expect("resumed implies recovery");
        out.push_str(&format!(
            "resumed from the WAL at offset {}: {} batch(es) restored without \
             re-execution (lifetime: {} acked, {} rows)\n",
            r.next_offset, r.totals.batches_acked, cumulative.batches_acked, cumulative.rows_acked,
        ));
    }
    match totals.final_watermark_ms {
        Some(w) => out.push_str(&format!(
            "watermark: {w} ms after {} advance(s) (allowed lateness {lateness} ms)\n",
            totals.watermark_advances
        )),
        None => out.push_str("watermark: never advanced (no rows)\n"),
    }
    out.push_str(&format!(
        "late data [{late_policy}]: {} absorbed, {} side-channelled ({} rows diverted), \
         {} dropped\n",
        cumulative.late_absorbed,
        cumulative.late_side_channelled,
        side_channel_rows,
        cumulative.late_dropped,
    ));
    out.push_str(&format!(
        "backpressure: {} stall(s), {} us blocked, max in-flight {} (cap {buffer})\n",
        totals.stalls, totals.stall_us, totals.max_in_flight,
    ));
    out.push_str(&format!(
        "mean ack latency: {:.1} us\n",
        run.mean_ack_latency_us()
    ));
    out.push_str(&format!("state (canonical): {}\n", run.canonical_state()));
    Ok(out)
}

/// `toreador resume <run-id> --checkpoint-dir <dir>`: pick up a killed
/// checkpointed run. The resume spec written by `run` recompiles the
/// identical campaign; every stage the dead process checkpointed is
/// restored from disk (zero tasks started), and execution re-enters at the
/// first incomplete stage. A stale checkpoint — plan, inputs, or engine
/// config changed since the kill — is refused, never silently recomputed.
fn resume_cmd(args: &Args) -> Result<String, String> {
    let run_id = args.positional(0, "run id")?;
    let ckpt_dir = args
        .flag("checkpoint-dir")
        .ok_or_else(|| "missing --checkpoint-dir <dir> (see `toreador help`)".to_owned())?;
    let path = std::path::Path::new(ckpt_dir)
        .join(run_id)
        .join("campaign.json");
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read resume spec {path:?}: {e} (was this run started with --checkpoint-dir?)"
        )
    })?;
    let spec: std::collections::BTreeMap<String, String> =
        serde_json::from_str(&text).map_err(|e| format!("malformed resume spec {path:?}: {e}"))?;
    let field = |name: &str| {
        spec.get(name)
            .ok_or_else(|| format!("resume spec {path:?} is missing {name:?}"))
    };
    let rows: usize = field("rows")?
        .parse()
        .map_err(|_| format!("resume spec {path:?} has a bad row count"))?;
    let seed: u64 = field("seed")?
        .parse()
        .map_err(|_| format!("resume spec {path:?} has a bad seed"))?;
    let (data, aux) = load_source(field("data")?, rows, seed)?;
    let rows_in = data.num_rows();
    let bdaas = Bdaas::new();
    let parsed = bdaas.parse(field("campaign")?).map_err(|e| e.to_string())?;
    let compiled = bdaas
        .compile(&parsed, data.schema(), data.num_rows())
        .map_err(|e| e.to_string())?;
    let outcome = bdaas
        .run_with_recovery(
            &compiled,
            data,
            &aux,
            &RecoverySpec::resume(ckpt_dir, run_id),
        )
        .map_err(|e| e.to_string())?;
    let restored: usize = outcome
        .engine_traces
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| {
            matches!(
                e.kind,
                toreador_dataflow::trace::TraceEventKind::StageRestored { .. }
            )
        })
        .count();
    let mut out = format!(
        "resumed run {run_id:?}: {restored} checkpointed stage(s) restored, \
         {} engine run(s)\n\n",
        outcome.engine_traces.len()
    );
    out.push_str(&render_outcome(&outcome));
    if args.flag("store").is_some() {
        let mut store = required_store(args)?;
        let trainee = trainee_name(args);
        let stored_id = persist_adhoc_run(
            &mut store,
            trainee,
            &compiled.spec.name,
            rows_in,
            &compiled,
            &outcome,
        )?;
        out.push_str(&format!(
            "\nstored as run {stored_id} for trainee {trainee:?} (compare with \
             `toreador compare` after any later run)\n"
        ));
    }
    Ok(out)
}

/// Run a campaign and render its flight-recorder journals: one per-stage
/// summary per engine run (text), or the full trace reports (json).
fn trace_cmd(args: &Args) -> Result<String, String> {
    let format = args.flag("format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(format!("--format must be text or json, got {format:?}"));
    }
    let (bdaas, mut compiled, data, aux) = compile_from_args(args)?;
    if let Some(budget) = parse_memory_budget(args)? {
        compiled.deployment.engine_config = compiled
            .deployment
            .engine_config
            .clone()
            .with_memory_budget(budget);
    }
    let rows_in = data.num_rows();
    let outcome = bdaas
        .run(&compiled, data, &aux)
        .map_err(|e| e.to_string())?;
    if outcome.engine_traces.is_empty() {
        return Err("campaign made no engine runs — nothing to trace".to_owned());
    }
    // Persist (with full traces) before rendering, in either format; the
    // note only goes into the text output so json stays parseable.
    let mut stored = None;
    if args.flag("store").is_some() {
        let mut store = required_store(args)?;
        let trainee = trainee_name(args).to_owned();
        let run_id = persist_adhoc_run(
            &mut store,
            &trainee,
            &compiled.spec.name,
            rows_in,
            &compiled,
            &outcome,
        )?;
        stored = Some((trainee, run_id));
    }
    if format == "json" {
        let reports: Vec<toreador_dataflow::trace::TraceReport> =
            outcome.engine_traces.iter().map(|t| t.report()).collect();
        return serde_json::to_string_pretty(&reports).map_err(|e| e.to_string());
    }
    let mut out = format!(
        "campaign {:?}: {} engine run(s)\n",
        compiled.spec.name,
        outcome.engine_traces.len()
    );
    for (i, trace) in outcome.engine_traces.iter().enumerate() {
        let summary = trace.summarize();
        out.push_str(&format!("\nengine run {i}:\n"));
        out.push_str(&summary.render());
        let slowest = trace
            .task_spans()
            .into_iter()
            .max_by_key(|s| s.duration_us());
        if let Some(s) = slowest {
            out.push_str(&format!(
                "slowest task: stage {} partition {} attempt {} ({} us)\n",
                s.stage,
                s.partition,
                s.attempt,
                s.duration_us()
            ));
        }
    }
    if let Some((trainee, run_id)) = stored {
        out.push_str(&format!(
            "\nstored as run {run_id} for trainee {trainee:?}\n"
        ));
    }
    Ok(out)
}

/// Parse a `--profile` value into a deterministic chaos schedule.
///
/// Named profiles are rate-based mixes; `targeted:S:P:A:kind[:micros]`
/// injects exactly one fault at task (stage S, partition P, attempt A).
fn parse_chaos_profile(profile: &str, seed: u64) -> Result<ChaosPlan, String> {
    if let Some(spec) = profile.strip_prefix("targeted:") {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() < 4 {
            return Err(format!(
                "targeted profile needs stage:partition:attempt:kind, got {spec:?}"
            ));
        }
        let coord = |i: usize, what: &str| -> Result<usize, String> {
            parts[i]
                .parse()
                .map_err(|_| format!("targeted {what} must be an integer, got {:?}", parts[i]))
        };
        let stage = coord(0, "stage")?;
        let partition = coord(1, "partition")?;
        let attempt = coord(2, "attempt")? as u32;
        let kind = match parts[3] {
            "crash" => FaultKind::Crash,
            "panic" => FaultKind::Panic,
            "delay" => {
                let micros = match parts.get(4) {
                    None => 1_000,
                    Some(raw) => raw
                        .parse()
                        .map_err(|_| format!("delay micros must be an integer, got {raw:?}"))?,
                };
                FaultKind::Delay { micros }
            }
            other => return Err(format!("unknown fault kind {other:?} (crash|panic|delay)")),
        };
        return Ok(ChaosPlan::none().with_targeted(TargetedFault {
            stage,
            partition,
            attempt,
            kind,
        }));
    }
    match profile {
        "calm" => Ok(ChaosPlan::none()),
        "flaky" => Ok(ChaosPlan::crashes(0.05, seed)),
        "lossy" => Ok(ChaosPlan::crashes(0.25, seed)),
        "slow" => Ok(ChaosPlan::delays(0.25, 2_000, seed)),
        "panicky" => Ok(ChaosPlan::panics(0.05, seed)),
        "hostile" => Ok(ChaosPlan::crashes(0.15, seed)
            .with_panic_rate(0.05)
            .with_delays(0.1, 1_000)),
        other => Err(format!(
            "unknown chaos profile {other:?} \
             (calm|flaky|lossy|slow|panicky|hostile|diskful|targeted:...)"
        )),
    }
}

/// The counters `toreador chaos` reports as the cost of resilience, zero
/// included.
const RESILIENCE_COUNTERS: [&str; 8] = [
    "dataflow.retries",
    "dataflow.faults",
    "dataflow.backoff_us",
    "dataflow.timeouts",
    "dataflow.panics",
    "dataflow.speculative_launched",
    "dataflow.speculative_won",
    "dataflow.cancellations",
];

/// `toreador chaos`: run a campaign twice — once fault-free, once under a
/// deterministic chaos plan with a resilience policy — and report what the
/// faults cost and whether the output survived unchanged. The resilience
/// invariant on display: a chaotic run either completes identical to the
/// fault-free baseline or fails cleanly with a classified error.
fn chaos_cmd(args: &Args) -> Result<String, String> {
    let profile = args.flag("profile").unwrap_or("hostile");
    if profile == "diskful" {
        return disk_chaos_cmd(args);
    }
    let seed = args.flag_or("seed", 0u64)?;
    let retries = args.flag_or("retries", 3u32)?;
    let deadline_ms = args.flag_or("deadline-ms", 0u64)?;
    let speculate = args.flag_or("speculate", 0.0f64)?;
    let chaos = parse_chaos_profile(profile, seed)?;

    let (bdaas, mut compiled, data, aux) = compile_from_args(args)?;
    let baseline = bdaas
        .run(&compiled, data.clone(), &aux)
        .map_err(|e| format!("fault-free baseline failed: {e}"))?;

    let mut resilience = ResilienceConfig::none()
        .with_retry(RetryPolicy::exponential(retries + 1, 500, 20_000).with_jitter(0.25, seed))
        .with_chaos(chaos.clone());
    if deadline_ms > 0 {
        resilience = resilience.with_deadline(TaskDeadline::from_millis(deadline_ms));
    }
    if speculate > 1.0 {
        resilience = resilience.with_speculation(SpeculationPolicy::new(speculate));
    }
    compiled.deployment.engine_config = compiled
        .deployment
        .engine_config
        .clone()
        .with_resilience(resilience);

    let mut out = format!(
        "chaos profile {profile:?} (seed {seed}): crash {:.0}% panic {:.0}% delay {:.0}%, \
         {} targeted fault(s)\n\
         policy: {} attempt(s) per task{}{}\n\n",
        chaos.crash_rate * 100.0,
        chaos.panic_rate * 100.0,
        chaos.delay_rate * 100.0,
        chaos.targeted.len(),
        retries + 1,
        if deadline_ms > 0 {
            format!(", deadline {deadline_ms} ms")
        } else {
            String::new()
        },
        if speculate > 1.0 {
            format!(", speculation at {speculate:.1}x median")
        } else {
            String::new()
        },
    );
    match bdaas.run(&compiled, data, &aux) {
        Ok(outcome) => {
            let totals = outcome
                .engine_traces
                .iter()
                .fold(Counters::default(), |acc, t| acc.merge(&t.counters()));
            let cost: Vec<String> = RESILIENCE_COUNTERS
                .iter()
                .map(|name| format!("{name} {}", totals.count(name)))
                .collect();
            out.push_str(&format!("resilience cost: {}\n", cost.join(", ")));
            if outcome.output == baseline.output {
                out.push_str("outputs: IDENTICAL to the fault-free baseline\n");
            } else {
                // A silent wrong answer is the one resilience failure that
                // must not exit 0 — fail the invocation so CI catches it.
                return Err(format!(
                    "{out}outputs: DIFFER from the fault-free baseline (resilience bug!)"
                ));
            }
        }
        Err(e) => {
            out.push_str(&format!(
                "run failed cleanly under chaos (classified, no hang, no stray panic):\n  {e}\n"
            ));
        }
    }
    Ok(out)
}

/// `toreador chaos --profile diskful`: the storage-fault twin of the task
/// chaos oracle. Run once fault-free, then once with a seeded disk-fault
/// injector (EIO on a background rate) registered over the run's spill
/// directory and a memory budget small enough to force spilling through
/// it. The invariant is the same: identical output or a classified
/// failure — never silent divergence, and never a leaked temp file once
/// the injector is disarmed.
fn disk_chaos_cmd(args: &Args) -> Result<String, String> {
    use toreador_store::chaos::{DiskChaos, DiskChaosPlan};

    let seed = args.flag_or("seed", 0u64)?;
    let rate = args.flag_or("eio-rate", 0.02f64)?;
    let budget = parse_memory_budget(args)?.unwrap_or(64 << 10);

    let (bdaas, mut compiled, data, aux) = compile_from_args(args)?;
    let baseline = bdaas
        .run(&compiled, data.clone(), &aux)
        .map_err(|e| format!("fault-free baseline failed: {e}"))?;

    let spill_dir =
        std::env::temp_dir().join(format!("toreador-diskful-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spill_dir);
    let (chaos, _guard) = DiskChaos::register(&spill_dir, DiskChaosPlan::flaky(seed, rate));
    compiled.deployment.engine_config = compiled
        .deployment
        .engine_config
        .clone()
        .with_memory_budget(budget)
        .with_spill_dir(&spill_dir);

    let mut out = format!(
        "disk-chaos profile \"diskful\" (seed {seed}): {:.1}% EIO on spill I/O, \
         memory budget {budget} bytes\n\n",
        rate * 100.0
    );
    let result = bdaas.run(&compiled, data, &aux);
    chaos.disarm();
    match result {
        Ok(outcome) => {
            if outcome.output == baseline.output {
                out.push_str("outputs: IDENTICAL to the fault-free baseline\n");
            } else {
                return Err(format!(
                    "{out}outputs: DIFFER from the fault-free baseline (storage-fault bug!)"
                ));
            }
        }
        Err(e) => {
            out.push_str(&format!(
                "run failed cleanly under disk chaos (classified, no panic):\n  {e}\n"
            ));
        }
    }
    out.push_str(&format!(
        "storage faults injected: {}\n",
        chaos.faults_injected()
    ));
    // With the injector disarmed, anything left in the spill dir is
    // either scratch a failed run abandoned (its cleanup removal may
    // itself have been injected) — report it, then sweep.
    let leftovers = std::fs::read_dir(&spill_dir)
        .map(|entries| entries.flatten().count())
        .unwrap_or(0);
    if leftovers > 0 {
        out.push_str(&format!(
            "swept {leftovers} abandoned spill artifact(s) left by injected cleanup failures\n"
        ));
    }
    let _ = std::fs::remove_dir_all(&spill_dir);
    Ok(out)
}

/// `toreador fsck`: offline integrity scrub of a directory tree holding
/// stores, checkpoints, or spill scratch. Without `--repair`, report and
/// fail iff anything is non-clean. With `--repair`, apply the proven-safe
/// actions (truncate torn tails, remove orphans), rescan, and fail iff
/// unrepairable corruption remains.
fn fsck_cmd(args: &Args) -> Result<String, String> {
    use toreador_store::fsck::repair;

    let dir = args.positional(0, "directory to scan")?;
    let root = std::path::Path::new(dir);
    if !root.is_dir() {
        return Err(format!("{dir:?} is not a directory"));
    }
    let arts = toreador_dataflow::fsck::scan_tree(root).map_err(|e| e.to_string())?;
    let render = |arts: &[toreador_store::fsck::Artifact]| -> String {
        let mut s = String::new();
        for a in arts {
            s.push_str(&format!(
                "{:<17} {:<12} {}{}\n",
                a.verdict.label(),
                a.kind,
                a.path.display(),
                a.verdict
                    .detail()
                    .map(|d| format!("  ({d})"))
                    .unwrap_or_default(),
            ));
        }
        s
    };
    let mut out = format!("fsck {}: {} artifact(s)\n", root.display(), arts.len());
    out.push_str(&render(&arts));

    if !args.flag_set("repair") {
        let dirty = arts.iter().filter(|a| !a.verdict.is_clean()).count();
        if dirty == 0 {
            out.push_str("clean\n");
            return Ok(out);
        }
        return Err(format!(
            "{out}{dirty} artifact(s) need attention (rerun with --repair to \
             apply proven-safe fixes)"
        ));
    }

    let mut actions = 0usize;
    for a in &arts {
        match repair(a) {
            Ok(None) => {}
            Ok(Some(action)) => {
                actions += 1;
                out.push_str(&format!("repaired {}: {action}\n", a.path.display()));
            }
            Err(e) => out.push_str(&format!("repair {} failed: {e}\n", a.path.display())),
        }
    }
    out.push_str(&format!("{actions} repair(s) applied\n"));
    let after = toreador_dataflow::fsck::scan_tree(root).map_err(|e| e.to_string())?;
    let corrupt: Vec<_> = after.iter().filter(|a| a.verdict.is_corrupt()).collect();
    if corrupt.is_empty() {
        out.push_str("clean after repair\n");
        Ok(out)
    } else {
        Err(format!(
            "{out}{} artifact(s) remain CORRUPT — fsck does not guess; restore from a \
             snapshot or recompute",
            corrupt.len()
        ))
    }
}

fn attempt(args: &Args) -> Result<String, String> {
    let challenge_id = args.positional(0, "challenge id")?.to_owned();
    let choices: ChoiceVector = args.positionals[1..].to_vec();
    let rows = args.flag_or("rows", 0usize)?;
    let seed = args.flag_or("seed", 42u64)?;
    // Attempts accumulate across invocations under the free-tier quota,
    // exactly like a Labs login — either into a JSON file (--session) or
    // into the crash-safe campaign store (--store).
    let session_path = args.flag("session");
    if session_path.is_some() && args.flag("store").is_some() {
        return Err("--session and --store are mutually exclusive".to_owned());
    }
    let mut session = if args.flag("store").is_some() {
        let store = required_store(args)?;
        LabSession::open(store, trainee_name(args), Quota::free_tier(), seed)
            .map_err(|e| e.to_string())?
    } else {
        match session_path {
            Some(path) if std::path::Path::new(path).exists() => {
                let json = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read session {path:?}: {e}"))?;
                LabSession::import(&json).map_err(|e| e.to_string())?
            }
            _ => LabSession::new("cli", Quota::free_tier(), seed),
        }
    };
    let record = session
        .attempt(&challenge_id, &choices, (rows > 0).then_some(rows))
        .map_err(|e| e.to_string())?
        .clone();
    if let Some(path) = session_path {
        std::fs::write(path, session.export())
            .map_err(|e| format!("cannot write session {path:?}: {e}"))?;
    }
    let score = session.score(record.run_id).map_err(|e| e.to_string())?;
    let mut out = format!(
        "challenge {challenge_id}, choices {:?}\nplan: {}\nplatform: {}\n\nindicators:\n",
        record.choices,
        record.plan_services.join(" -> "),
        record.platform,
    );
    for (name, value) in &record.indicators {
        out.push_str(&format!("  {name:<18} {value:>14.3}\n"));
    }
    out.push_str("\nobjectives:\n");
    for (objective, satisfied) in &record.objectives {
        out.push_str(&format!(
            "  {objective:<30} {}\n",
            match satisfied {
                Some(true) => "satisfied",
                Some(false) => "MISSED",
                None => "unmeasured",
            }
        ));
    }
    out.push_str(&format!("\nscore: {:.1}/100\n", score.total));
    for (component, awarded, maximum) in &score.breakdown {
        if *maximum > 0.0 || awarded.abs() > 0.0 {
            out.push_str(&format!("  {component:<22} {awarded:>7.1}\n"));
        }
    }
    if session.runs_used() > 1 {
        out.push_str(&format!(
            "\nsession: {} runs used, {:.1} cost units spent",
            session.runs_used(),
            session.cost_used()
        ));
        if let Some((best, total)) = session.best_run(&challenge_id) {
            out.push_str(&format!(
                "; best run on this challenge: {best} ({total:.1}/100)"
            ));
        }
        out.push('\n');
        // The consequence matrix over everything tried so far.
        if let Ok(matrix) = session.consequences(&challenge_id) {
            if matrix.rows.len() > 1 {
                out.push_str("\nconsequences so far:\n");
                out.push_str(&matrix.render());
            }
        }
    }
    Ok(out)
}

/// `toreador serve --store <dir>`: the long-running multi-tenant Labs
/// daemon. Blocks until SIGINT/SIGTERM (or `POST /v1/shutdown`), drains
/// in-flight attempts through their run controls, checkpoints the store,
/// and exits 0.
fn serve_cmd(args: &Args) -> Result<String, String> {
    use toreador_serve::prelude::*;
    let dir = args
        .flag("store")
        .ok_or_else(|| "missing --store <dir> (see `toreador help`)".to_owned())?;
    let quota = Quota {
        max_runs: args.flag_or("quota-runs", Quota::free_tier().max_runs)?,
        max_rows_per_run: args.flag_or("quota-rows", Quota::free_tier().max_rows_per_run)?,
        max_total_cost: args.flag_or("quota-cost", Quota::free_tier().max_total_cost)?,
    };
    let cfg = ServerConfig {
        addr: args.flag("addr").unwrap_or("127.0.0.1:7411").to_owned(),
        max_inflight: args.flag_or("max-inflight", 4usize)?,
        max_queue: args.flag_or("queue", 64usize)?,
        queue_wait: std::time::Duration::from_millis(args.flag_or("queue-wait-ms", 30_000u64)?),
        hub: HubConfig {
            tenant_inflight: args.flag_or("tenant-inflight", 2usize)?,
            threads_per_attempt: args.flag_or("threads-per-attempt", 2usize)?,
            default_quota: quota,
            default_seed: args.flag_or("seed", 7u64)?,
        },
    };
    let server = Server::bind(std::path::Path::new(dir), cfg)?;
    let summary = server.run()?;
    Ok(format!(
        "serve: drained cleanly — {} request(s), {} attempt(s) completed, \
         {} cancelled on shutdown\n",
        summary.requests, summary.completed, summary.cancelled_on_drain
    ))
}

/// `toreador fleet`: drive simulated trainee load against a live daemon
/// and report latency, rejection classes, and record integrity. Exits
/// nonzero when the run sees protocol errors, lost records, or a p99 over
/// the bound.
fn fleet_cmd(args: &Args) -> Result<String, String> {
    use toreador_serve::prelude::*;
    let mut cfg = FleetConfig {
        addr: args.flag("addr").unwrap_or("127.0.0.1:7411").to_owned(),
        ..FleetConfig::default()
    };
    if args.flag_set("quick") {
        cfg = cfg.quick();
    }
    cfg.trainees = args.flag_or("trainees", cfg.trainees)?;
    cfg.attempts = args.flag_or("attempts", cfg.attempts)?;
    cfg.workers = args.flag_or("workers", cfg.workers)?;
    cfg.rows = args.flag_or("rows", cfg.rows)?;
    cfg.challenge = args.flag("challenge").unwrap_or(&cfg.challenge).to_owned();
    cfg.max_p99_ms = args.flag_or("max-p99-ms", 0u64)?;
    cfg.timeout = std::time::Duration::from_secs(args.flag_or("timeout-s", 120u64)?);
    if let Some(ramp) = args.flag("ramp") {
        cfg.ramp = ramp
            .split(',')
            .map(|w| {
                w.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("--ramp wants comma-separated worker counts, got {w:?}"))
            })
            .collect::<Result<Vec<usize>, String>>()?;
    }
    let report = run_fleet(&cfg);
    let rendered = report.render();
    if report.healthy(cfg.max_p99_ms) {
        Ok(rendered)
    } else {
        Err(format!("{rendered}fleet run FAILED the health checks"))
    }
}

/// `toreador sessions --store <dir>`: every trainee in the store, with
/// usage and quota headroom.
fn sessions_cmd(args: &Args) -> Result<String, String> {
    let store = required_store(args)?;
    if args.flag_set("json") {
        return sessions_json(&store);
    }
    let stats = store.stats();
    let mut out = format!(
        "campaign store: {} segment(s), snapshot at lsn {}, last lsn {}\n\n",
        stats.segments, stats.snapshot_lsn, stats.last_lsn
    );
    let mut any = false;
    for (name, state) in store.trainees() {
        any = true;
        let runs = state.runs.len() as u64;
        let left = state.meta.quota.remaining(runs, state.meta.total_cost);
        let runs_left = if left.runs == u64::MAX {
            "unlimited".to_owned()
        } else {
            left.runs.to_string()
        };
        let cost_left = if left.cost.is_infinite() {
            "unlimited".to_owned()
        } else {
            format!("{:.1}", left.cost)
        };
        out.push_str(&format!(
            "{name:<16} {runs:>3} runs, {:>9.1} cost spent; remaining: {runs_left} runs, \
             {cost_left} cost (seed {})\n",
            state.meta.total_cost, state.meta.seed
        ));
    }
    if !any {
        out.push_str("no trainees yet\n");
    }
    Ok(out)
}

/// One trainee row of `toreador sessions --json`. `None` headroom means
/// unlimited (infinity is not representable in JSON).
#[derive(serde::Serialize)]
struct SessionRow {
    trainee: String,
    runs: u64,
    cost_spent: f64,
    runs_left: Option<u64>,
    cost_left: Option<f64>,
    seed: u64,
    quota: Quota,
}

fn sessions_json(store: &SessionStore) -> Result<String, String> {
    let mut rows = Vec::new();
    for (name, state) in store.trainees() {
        let runs = state.runs.len() as u64;
        let left = state.meta.quota.remaining(runs, state.meta.total_cost);
        rows.push(SessionRow {
            trainee: name.clone(),
            runs,
            cost_spent: state.meta.total_cost,
            runs_left: (left.runs != u64::MAX).then_some(left.runs),
            cost_left: left.cost.is_finite().then_some(left.cost),
            seed: state.meta.seed,
            quota: state.meta.quota,
        });
    }
    serde_json::to_string_pretty(&rows)
        .map(|s| s + "\n")
        .map_err(|e| e.to_string())
}

/// `toreador history <trainee> --store <dir>`: the persisted run log.
fn history_cmd(args: &Args) -> Result<String, String> {
    let trainee = args.positional(0, "trainee name")?;
    let store = required_store(args)?;
    let state = store
        .trainee(trainee)
        .ok_or_else(|| format!("no trainee {trainee:?} in the store"))?;
    if args.flag_set("json") {
        // The wire-protocol history shape, so scripts parse one format
        // whether they ask the store or a live daemon.
        let reply = toreador_serve::proto::HistoryReply::from_state(trainee, state);
        return serde_json::to_string_pretty(&reply)
            .map(|s| s + "\n")
            .map_err(|e| e.to_string());
    }
    let mut out = format!("{} run(s) for {trainee:?}\n\n", state.runs.len());
    for (run_id, r) in &state.runs {
        let score = state
            .scores
            .get(run_id)
            .map(|s| format!("{s:>5.1}/100"))
            .unwrap_or_else(|| "   —    ".to_owned());
        out.push_str(&format!(
            "run {run_id:>3}  {score}  {:<20} {:>7} rows  cost {:>7.1}  choices {:?}\n",
            r.challenge_id,
            r.rows_in,
            r.indicator(Indicator::Cost).unwrap_or(0.0),
            r.choices,
        ));
    }
    Ok(out)
}

/// `toreador compare <a> <b> --store <dir>`: diff two persisted runs —
/// choices, indicators, per-operator timings and skew — across process
/// boundaries.
fn compare_cmd(args: &Args) -> Result<String, String> {
    let a: u64 = args
        .positional(0, "first run id")?
        .parse()
        .map_err(|_| "run ids are integers".to_owned())?;
    let b: u64 = args
        .positional(1, "second run id")?
        .parse()
        .map_err(|_| "run ids are integers".to_owned())?;
    let store = required_store(args)?;
    let trainee = trainee_name(args);
    let fetch = |id: u64| {
        store
            .run(trainee, id)
            .ok_or_else(|| format!("no run {id} for trainee {trainee:?} in the store"))
    };
    let diff = RunComparison::diff(fetch(a)?, fetch(b)?).map_err(|e| e.to_string())?;
    Ok(diff.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run_cli(items: &[&str]) -> Result<String, String> {
        let raw: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        dispatch(&parse(&raw)?)
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_cli(&["help"]).unwrap().contains("USAGE"));
        assert!(run_cli(&[]).unwrap_or_default().contains("USAGE"));
        let err = run_cli(&["frobnicate"]).unwrap_err();
        assert!(err.contains("frobnicate"));
    }

    #[test]
    fn catalog_lists_all_areas() {
        let out = run_cli(&["catalog"]).unwrap();
        for area in ["preparation", "analytics", "processing", "visualization"] {
            assert!(out.contains(&format!("[{area}]")), "{out}");
        }
        assert!(out.contains("analytics.kmeans"));
    }

    #[test]
    fn scenarios_and_challenges_list() {
        let out = run_cli(&["scenarios"]).unwrap();
        assert!(out.contains("ecommerce-clicks"));
        let out = run_cli(&["challenges"]).unwrap();
        assert!(out.contains("health-compliance"));
        let out = run_cli(&["challenges", "ecomm-revenue"]).unwrap();
        assert!(out.contains("reference solution"));
        assert!(run_cli(&["challenges", "nope"]).is_err());
    }

    #[test]
    fn run_campaign_from_file_and_generated_data() {
        let dir = std::env::temp_dir().join("toreador-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("revenue.tdl");
        std::fs::write(
            &file,
            "campaign revenue on clicks\nseed 3\ngoal filtering predicate=\"action == 'purchase'\"\ngoal aggregation group_by=country agg=sum:price:revenue\n",
        )
        .unwrap();
        let out = run_cli(&[
            "run",
            file.to_str().unwrap(),
            "--data",
            "generated:ecommerce-clicks",
            "--rows",
            "500",
        ])
        .unwrap();
        assert!(out.contains("indicators:"));
        assert!(out.contains("revenue"));
        assert!(out.contains("\noutput digest: "), "{out}");
        // Explain on the same file.
        let out = run_cli(&[
            "explain",
            file.to_str().unwrap(),
            "--data",
            "generated:ecommerce-clicks",
        ])
        .unwrap();
        assert!(out.contains("processing.filter"));
        assert!(out.contains("deployment"));
    }

    #[test]
    fn run_campaign_from_csv_file() {
        let dir = std::env::temp_dir().join("toreador-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("data.csv");
        let table = toreador_data::generate::clickstream(300, 5);
        std::fs::write(&csv_path, toreador_data::csv::write_csv(&table)).unwrap();
        let dsl_path = dir.join("count.tdl");
        std::fs::write(
            &dsl_path,
            "campaign count on clicks\ngoal aggregation group_by=action agg=count:event_id:n\n",
        )
        .unwrap();
        let out = run_cli(&[
            "run",
            dsl_path.to_str().unwrap(),
            "--data",
            csv_path.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("purchase"), "{out}");
    }

    fn write_trace_campaign() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("toreador-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("trace.tdl");
        // Tests run in parallel and share this file: write a private copy
        // and rename it into place, so no reader sees a half-written one.
        let tmp = dir.join(format!("trace.tdl.{:?}", std::thread::current().id()));
        std::fs::write(
            &tmp,
            "campaign traced on clicks\nseed 3\ngoal filtering predicate=\"action == 'purchase'\"\ngoal aggregation group_by=country agg=sum:price:revenue\n",
        )
        .unwrap();
        std::fs::rename(&tmp, &file).unwrap();
        file
    }

    #[test]
    fn trace_renders_critical_path_and_skew() {
        let file = write_trace_campaign();
        let out = run_cli(&[
            "trace",
            file.to_str().unwrap(),
            "--data",
            "generated:ecommerce-clicks",
            "--rows",
            "500",
        ])
        .unwrap();
        assert!(out.contains("engine run 0"), "{out}");
        assert!(out.contains("critical path"), "{out}");
        assert!(out.contains("skew"), "{out}");
        assert!(out.contains("slowest task"), "{out}");
    }

    #[test]
    fn trace_json_exports_full_reports() {
        let file = write_trace_campaign();
        let out = run_cli(&[
            "trace",
            file.to_str().unwrap(),
            "--data",
            "generated:ecommerce-clicks",
            "--rows",
            "500",
            "--format",
            "json",
        ])
        .unwrap();
        let reports: Vec<toreador_dataflow::trace::TraceReport> =
            serde_json::from_str(&out).unwrap();
        assert!(!reports.is_empty());
        assert!(!reports[0].events.is_empty());
        assert!(reports[0].summary.total_tasks > 0);
        // The summary's counters are keyed by their ledger names.
        let raw: serde_json::Value = serde_json::from_str(&out).unwrap();
        let at =
            |v: &serde_json::Value, key: &str| v.as_object().unwrap().get(key).unwrap().clone();
        let skew = ["summary", "counters", "dataflow.task_skew"]
            .iter()
            .fold(raw.as_array().unwrap()[0].clone(), |v, key| at(&v, key));
        assert_eq!(at(&skew, "kind").as_str(), Some("Max"), "{out}");
        assert!(at(&skew, "value").as_f64().unwrap() >= 1.0);
        // Unknown format is rejected.
        let err = run_cli(&[
            "trace",
            file.to_str().unwrap(),
            "--data",
            "generated:ecommerce-clicks",
            "--format",
            "xml",
        ])
        .unwrap_err();
        assert!(err.contains("--format"));
    }

    #[test]
    fn memory_budget_flag_parses_suffixes_and_rejects_junk() {
        let budget_of = |raw: &str| {
            let a = parse(&[
                "run".to_owned(),
                "--memory-budget".to_owned(),
                raw.to_owned(),
            ])
            .unwrap();
            parse_memory_budget(&a)
        };
        assert_eq!(budget_of("4096").unwrap(), Some(4096));
        assert_eq!(budget_of("64k").unwrap(), Some(64 << 10));
        assert_eq!(budget_of("16M").unwrap(), Some(16 << 20));
        assert_eq!(budget_of("2g").unwrap(), Some(2 << 30));
        for junk in ["", "m", "ten", "4t", "99999999999999999999g"] {
            assert!(budget_of(junk).is_err(), "{junk:?} must be rejected");
        }
        let none = parse(&["run".to_owned()]).unwrap();
        assert_eq!(parse_memory_budget(&none).unwrap(), None);
    }

    #[test]
    fn budgeted_trace_reports_spill_totals_and_matches_unbudgeted_run() {
        let dir = std::env::temp_dir().join("toreador-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("spill.tdl");
        // High-cardinality group key so a small budget forces spills.
        std::fs::write(
            &file,
            "campaign spilled on clicks\nseed 3\ngoal aggregation group_by=event_id agg=count:event_id:n\n",
        )
        .unwrap();
        let base = [
            "run",
            file.to_str().unwrap(),
            "--data",
            "generated:ecommerce-clicks",
            "--rows",
            "3000",
        ];
        let calm = run_cli(&base).unwrap();
        let mut tight: Vec<&str> = base.to_vec();
        tight.extend(["--memory-budget", "16k"]);
        let spilled = run_cli(&tight).unwrap();
        // Everything from `output (` down is deterministic (wall-clock
        // indicators above it are not) — that part must be identical.
        let deterministic = |s: &str| s[s.find("output (").unwrap()..].to_owned();
        assert_eq!(
            deterministic(&calm),
            deterministic(&spilled),
            "a budgeted run must render the identical outcome"
        );
        // The flight recorder shows the spills.
        let mut trace: Vec<&str> = tight.clone();
        trace[0] = "trace";
        let out = run_cli(&trace).unwrap();
        let spill_runs = out
            .lines()
            .find_map(|l| l.strip_prefix("dataflow.spill_runs"));
        let spill_runs: u64 = spill_runs.unwrap().trim().parse().unwrap();
        assert!(spill_runs > 0, "{out}");
    }

    #[test]
    fn attempt_scores_a_challenge() {
        let out = run_cli(&["attempt", "ecomm-revenue", "full", "batch", "--rows", "400"]).unwrap();
        assert!(out.contains("score:"));
        assert!(out.contains("processing.filter"));
        // Wrong arity errors usefully.
        let err = run_cli(&["attempt", "ecomm-revenue", "full"]).unwrap_err();
        assert!(err.contains("choice points"));
    }

    #[test]
    fn attempt_session_persists_across_invocations() {
        let dir = std::env::temp_dir().join("toreador-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let session = dir.join("session.json");
        let _ = std::fs::remove_file(&session);
        let s = session.to_str().unwrap();
        run_cli(&[
            "attempt",
            "ecomm-revenue",
            "full",
            "batch",
            "--rows",
            "300",
            "--session",
            s,
        ])
        .unwrap();
        let out = run_cli(&[
            "attempt",
            "ecomm-revenue",
            "sample",
            "batch",
            "--rows",
            "300",
            "--session",
            s,
        ])
        .unwrap();
        assert!(out.contains("2 runs used"), "{out}");
        assert!(out.contains("consequences so far"), "{out}");
    }

    #[test]
    fn attempt_store_round_trip_survives_process_boundaries() {
        let dir = std::env::temp_dir().join(format!("toreador-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.to_str().unwrap().to_owned();
        // Each dispatch opens the store fresh, replays the WAL, and commits
        // its attempt — exactly what separate process invocations do.
        run_cli(&[
            "attempt",
            "ecomm-revenue",
            "full",
            "batch",
            "--rows",
            "300",
            "--store",
            &store,
        ])
        .unwrap();
        run_cli(&[
            "attempt",
            "ecomm-revenue",
            "sample",
            "batch",
            "--rows",
            "300",
            "--store",
            &store,
        ])
        .unwrap();
        // The store knows the trainee and both runs.
        let out = run_cli(&["sessions", "--store", &store]).unwrap();
        assert!(out.contains("cli"), "{out}");
        assert!(out.contains("2 runs"), "{out}");
        let out = run_cli(&["history", "cli", "--store", &store]).unwrap();
        assert!(out.contains("run   1"), "{out}");
        assert!(out.contains("run   2"), "{out}");
        assert!(out.contains("/100"), "scores persisted: {out}");
        // Cross-invocation comparison, per-operator trace deltas intact.
        let out = run_cli(&["compare", "1", "2", "--store", &store]).unwrap();
        assert!(out.contains("run 1 vs run 2"), "{out}");
        assert!(out.contains("choice 0: full -> sample"), "{out}");
        assert!(out.contains("operator"), "{out}");
        // Errors name the problem.
        assert!(run_cli(&["compare", "1", "99", "--store", &store]).is_err());
        assert!(run_cli(&["history", "nobody", "--store", &store]).is_err());
        assert!(run_cli(&["sessions"]).unwrap_err().contains("--store"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_and_trace_persist_adhoc_records_into_the_store() {
        let dir = std::env::temp_dir().join(format!("toreador-cli-adhoc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.to_str().unwrap().to_owned();
        let file = write_trace_campaign();
        let f = file.to_str().unwrap();
        let out = run_cli(&[
            "run",
            f,
            "--data",
            "generated:ecommerce-clicks",
            "--rows",
            "400",
            "--store",
            &store,
        ])
        .unwrap();
        assert!(out.contains("stored as run 1"), "{out}");
        let out = run_cli(&[
            "trace",
            f,
            "--data",
            "generated:ecommerce-clicks",
            "--rows",
            "400",
            "--store",
            &store,
        ])
        .unwrap();
        assert!(out.contains("stored as run 2"), "{out}");
        // Two invocations, one comparison: operator deltas from the traces.
        let out = run_cli(&["compare", "1", "2", "--store", &store]).unwrap();
        assert!(out.contains("operator"), "{out}");
        // A named trainee is filed separately from the default.
        run_cli(&[
            "run",
            f,
            "--data",
            "generated:ecommerce-clicks",
            "--rows",
            "200",
            "--store",
            &store,
            "--trainee",
            "ada",
        ])
        .unwrap();
        let out = run_cli(&["history", "ada", "--store", &store]).unwrap();
        assert!(out.contains("run   1"), "{out}");
        assert!(!out.contains("run   2"), "{out}");
        // --session and --store cannot be combined.
        let err = run_cli(&[
            "attempt",
            "ecomm-revenue",
            "full",
            "batch",
            "--store",
            &store,
            "--session",
            "x.json",
        ])
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sessions_and_history_emit_json() {
        let dir = std::env::temp_dir().join(format!("toreador-cli-json-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.to_str().unwrap().to_owned();
        for design in [&["full", "batch"][..], &["sample", "batch"][..]] {
            run_cli(
                &[
                    &["attempt", "ecomm-revenue"],
                    design,
                    &["--rows", "300", "--store", &store],
                ]
                .concat(),
            )
            .unwrap();
        }
        // sessions --json: a parseable array with the quota headroom.
        let out = run_cli(&["sessions", "--store", &store, "--json"]).unwrap();
        let rows: serde_json::Value = serde_json::from_str(&out).unwrap();
        let rows = rows.as_array().expect("array of trainees");
        assert_eq!(rows.len(), 1);
        let row = rows[0].as_object().expect("object per trainee");
        assert_eq!(row.get("trainee").and_then(|v| v.as_str()), Some("cli"));
        assert_eq!(row.get("runs").and_then(|v| v.as_u64()), Some(2));
        // history --json speaks the wire-protocol history shape.
        let out = run_cli(&["history", "cli", "--store", &store, "--json"]).unwrap();
        let reply: toreador_serve::proto::HistoryReply = serde_json::from_str(&out).unwrap();
        assert_eq!(reply.trainee, "cli");
        assert_eq!(reply.runs.len(), 2);
        assert!(reply.runs.iter().all(|r| r.score.is_some()));
        assert!(reply
            .runs
            .iter()
            .any(|r| r.choices == vec!["sample", "batch"]));
        // Byte for byte what the daemon answers for the same store.
        let store = SessionStore::open(&dir).unwrap();
        let hub = toreador_serve::hub::SessionHub::with_store(store, Default::default());
        let daemon = serde_json::to_string_pretty(&hub.history("cli").unwrap()).unwrap();
        assert_eq!(out, daemon + "\n");
        drop(hub);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stream_reports_watermarks_late_data_and_backpressure() {
        let out = run_cli(&[
            "stream",
            "--data",
            "generated:fraud-stream",
            "--rows",
            "2000",
            "--seed",
            "11",
            "--key",
            "channel",
            "--sum",
            "amount",
            "--window-ms",
            "2000",
            "--allowed-lateness",
            "500",
            "--late-policy",
            "drop",
            "--buffer",
            "4",
        ])
        .unwrap();
        assert!(out.contains("batch(es) acked"), "{out}");
        assert!(out.contains("watermark:"), "{out}");
        assert!(out.contains("late data [drop]:"), "{out}");
        assert!(out.contains("state (canonical):"), "{out}");
        // The fraud generator plants late rows; under `drop` they are
        // counted, not absorbed.
        assert!(!out.contains("0 dropped"), "{out}");
        // Flag validation names the problem.
        for bad in [
            &["stream", "--data", "generated:fraud-stream"][..],
            &[
                "stream",
                "--data",
                "generated:fraud-stream",
                "--key",
                "channel",
                "--late-policy",
                "sometimes",
            ][..],
            &[
                "stream",
                "--data",
                "generated:fraud-stream",
                "--key",
                "channel",
                "--buffer",
                "0",
            ][..],
            &[
                "stream",
                "--data",
                "generated:fraud-stream",
                "--key",
                "channel",
                "--resume",
            ][..],
            &[
                "stream",
                "--data",
                "generated:fraud-stream",
                "--key",
                "channel",
                "--kill-at-ack",
                "2",
            ][..],
        ] {
            assert!(run_cli(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn stream_late_policy_parses_like_the_library() {
        let out = run_cli(&[
            "stream",
            "--data",
            "generated:fraud-stream",
            "--rows",
            "500",
            "--key",
            "channel",
            "--late-policy",
            "side_channel",
        ])
        .unwrap();
        assert!(out.contains("late data [side-channel]:"), "{out}");
        let err = run_cli(&[
            "stream",
            "--data",
            "generated:fraud-stream",
            "--key",
            "channel",
            "--late-policy",
            "sometimes",
        ])
        .unwrap_err();
        assert!(err.starts_with("--late-policy: "), "{err}");
        assert!(err.contains("sometimes"), "{err}");
    }

    #[test]
    fn stream_json_emits_one_ack_record_per_batch() {
        let out = run_cli(&[
            "stream",
            "--data",
            "generated:fraud-stream",
            "--rows",
            "1500",
            "--key",
            "channel",
            "--window-ms",
            "2000",
            "--json",
        ])
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines.len() > 2, "{out}");
        let (acks, footer) = lines.split_at(lines.len() - 1);
        let mut last_offset = None;
        for line in acks {
            let a: toreador_dataflow::streaming::AckSummary = serde_json::from_str(line).unwrap();
            assert_eq!(a.offset, last_offset.map_or(0, |o: u64| o + 1), "{line}");
            last_offset = Some(a.offset);
        }
        let footer: serde_json::Value = serde_json::from_str(footer[0]).unwrap();
        let footer = footer.as_object().expect("footer object");
        let acked = footer
            .get("totals")
            .and_then(|t| t.as_object())
            .and_then(|t| t.get("batches_acked"))
            .and_then(|v| v.as_u64());
        assert_eq!(acked, Some(acks.len() as u64));
        let state = footer.get("state").and_then(|v| v.as_str()).unwrap();
        assert!(state.starts_with("{\"counts\""), "{state}");
    }

    #[test]
    fn stream_kill_at_ack_then_resume_matches_the_unkilled_state() {
        let dir = std::env::temp_dir().join(format!("toreador-cli-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.to_str().unwrap().to_owned();
        let base = [
            "stream",
            "--data",
            "generated:fraud-stream",
            "--rows",
            "1500",
            "--key",
            "channel",
            "--sum",
            "amount",
            "--window-ms",
            "2000",
            "--allowed-lateness",
            "500",
        ];
        let state_line = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("state (canonical):"))
                .expect("state line")
                .to_owned()
        };
        // Unkilled oracle (no store): the state the stream should reach.
        let oracle = state_line(&run_cli(&base).unwrap());
        // Kill in-process (halt mode errors instead of exiting) right
        // after offset 2's ack is durable...
        let err = run_cli(
            &[
                &base[..],
                &[
                    "--store",
                    &store,
                    "--kill-at-ack",
                    "2",
                    "--kill-mode",
                    "halt",
                ],
            ]
            .concat(),
        )
        .unwrap_err();
        assert!(err.contains("killed at ack boundary"), "{err}");
        // ...resume replays the WAL and finishes byte-identically.
        let out = run_cli(&[&base[..], &["--store", &store, "--resume"]].concat()).unwrap();
        assert!(out.contains("resumed from the WAL at offset 3"), "{out}");
        assert_eq!(state_line(&out), oracle, "{out}");
        // A fresh (non-resume) run on a used store is refused, not clobbered.
        let err = run_cli(&[&base[..], &["--store", &store]].concat()).unwrap_err();
        assert!(err.contains("--resume") || err.contains("resume"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fleet_validates_flags_and_fails_loud_with_no_daemon() {
        // Nothing listens on port 9: every open is a protocol error, and
        // the health checks make the command fail rather than exit 0.
        let err = run_cli(&[
            "fleet",
            "--addr",
            "127.0.0.1:9",
            "--trainees",
            "1",
            "--attempts",
            "1",
            "--workers",
            "1",
            "--timeout-s",
            "2",
        ])
        .unwrap_err();
        assert!(err.contains("FAILED"), "{err}");
        assert!(err.contains("protocol-errors 1"), "{err}");
        let err = run_cli(&["fleet", "--ramp", "4,huge"]).unwrap_err();
        assert!(err.contains("--ramp"), "{err}");
    }

    #[test]
    fn chaos_calm_profile_matches_baseline_at_no_cost() {
        let file = write_trace_campaign();
        let out = run_cli(&[
            "chaos",
            file.to_str().unwrap(),
            "--data",
            "generated:ecommerce-clicks",
            "--rows",
            "400",
            "--profile",
            "calm",
        ])
        .unwrap();
        assert!(out.contains("IDENTICAL"), "{out}");
        // A calm run pays nothing, and says so for every counter.
        for name in RESILIENCE_COUNTERS {
            assert_eq!(cost_counter(&out, name), Some(0), "{name}: {out}");
        }
    }

    /// The value `toreador chaos` printed for `name` on its cost line.
    fn cost_counter(out: &str, name: &str) -> Option<u64> {
        let line = out.lines().find(|l| l.starts_with("resilience cost: "))?;
        line["resilience cost: ".len()..]
            .split(", ")
            .find_map(|item| item.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
    }

    #[test]
    fn chaos_targeted_crash_is_retried_and_output_survives() {
        let file = write_trace_campaign();
        // Exactly one crash at (stage 0, partition 0, attempt 0): the retry
        // budget absorbs it deterministically, whatever the seed.
        let out = run_cli(&[
            "chaos",
            file.to_str().unwrap(),
            "--data",
            "generated:ecommerce-clicks",
            "--rows",
            "400",
            "--profile",
            "targeted:0:0:0:crash",
        ])
        .unwrap();
        assert!(out.contains("1 targeted fault(s)"), "{out}");
        assert!(out.contains("IDENTICAL"), "{out}");
        assert!(cost_counter(&out, "dataflow.retries").unwrap() > 0, "{out}");
    }

    #[test]
    fn chaos_with_no_retry_budget_fails_cleanly() {
        let file = write_trace_campaign();
        let out = run_cli(&[
            "chaos",
            file.to_str().unwrap(),
            "--data",
            "generated:ecommerce-clicks",
            "--rows",
            "400",
            "--profile",
            "targeted:0:0:0:crash",
            "--retries",
            "0",
        ])
        .unwrap();
        assert!(out.contains("failed cleanly"), "{out}");
        assert!(out.contains("stage 0"), "{out}");
    }

    #[test]
    fn chaos_rejects_malformed_profiles() {
        let file = write_trace_campaign();
        let run_profile = |p: &str| {
            run_cli(&[
                "chaos",
                file.to_str().unwrap(),
                "--data",
                "generated:ecommerce-clicks",
                "--profile",
                p,
            ])
        };
        assert!(run_profile("mayhem").unwrap_err().contains("mayhem"));
        assert!(run_profile("targeted:0:0")
            .unwrap_err()
            .contains("targeted"));
        assert!(run_profile("targeted:0:0:0:melt")
            .unwrap_err()
            .contains("melt"));
        assert!(run_profile("targeted:x:0:0:crash")
            .unwrap_err()
            .contains("stage"));
        // Delay kind accepts explicit microseconds.
        let out = run_profile("targeted:0:1:0:delay:500").unwrap();
        assert!(out.contains("1 targeted fault(s)"), "{out}");
        assert!(out.contains("IDENTICAL"), "{out}");
    }

    #[test]
    fn the_output_digest_sees_every_cell() {
        use toreador_data::column::Column;
        use toreador_data::schema::{Field, Schema};
        use toreador_data::value::DataType;
        let table = |ints: Vec<i64>, valid: Vec<bool>, floats: Vec<f64>, strs: Vec<&str>| {
            let schema = Schema::new(vec![
                Field::new("i", DataType::Int),
                Field::new("f", DataType::Float),
                Field::new("s", DataType::Str),
            ])
            .unwrap();
            let columns = vec![
                Column::Int {
                    data: ints.into(),
                    validity: valid.into_iter().collect(),
                },
                Column::from_floats(floats),
                Column::from_strs(strs),
            ];
            output_digest(&Table::new(schema, columns).unwrap())
        };
        let ints: Vec<i64> = (0..20).collect();
        let valid = vec![true; 20];
        let floats = vec![0.0; 20];
        let strs = vec!["a"; 20];
        let base = table(ints.clone(), valid.clone(), floats.clone(), strs.clone());
        assert_eq!(
            base,
            table(ints.clone(), valid.clone(), floats.clone(), strs.clone())
        );
        // A change past the rows `show(15)` prints.
        let mut late = ints.clone();
        late[19] = 0;
        assert_ne!(
            base,
            table(late, valid.clone(), floats.clone(), strs.clone())
        );
        // A null over the same payload.
        let mut nulled = valid.clone();
        nulled[17] = false;
        assert_ne!(
            base,
            table(ints.clone(), nulled, floats.clone(), strs.clone())
        );
        // -0.0 against 0.0.
        let mut signed = floats.clone();
        signed[18] = -0.0;
        assert_ne!(
            base,
            table(ints.clone(), valid.clone(), signed, strs.clone())
        );
        // Text bytes split differently across two cells.
        let mut split = strs.clone();
        split[15] = "";
        split[16] = "aa";
        assert_ne!(base, table(ints, valid, floats, split));
    }

    /// Everything from `output (` down — the deterministic section a
    /// kill/resume comparison may legitimately diff.
    fn output_section(s: &str) -> &str {
        let at = s
            .find("\noutput (")
            .expect("rendered outcome has an output section");
        &s[at..]
    }

    #[test]
    fn run_killed_at_a_boundary_resumes_byte_identical() {
        let dir = std::env::temp_dir().join(format!("toreador-cli-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = dir.to_str().unwrap().to_owned();
        let file = write_trace_campaign();
        let f = file.to_str().unwrap();
        let data = ["--data", "generated:ecommerce-clicks", "--rows", "400"];

        // Unkilled checkpointed baseline fixes the expected output.
        let baseline = run_cli(
            &[
                &["run", f],
                &data[..],
                &["--checkpoint-dir", &ckpt, "--run-id", "base"],
            ]
            .concat(),
        )
        .unwrap();

        // Kill at engine 0's first boundary. Halt mode keeps the death
        // in-process (the CI matrix exercises exit-mode 42 for real).
        let err = run_cli(
            &[
                &["run", f],
                &data[..],
                &[
                    "--checkpoint-dir",
                    &ckpt,
                    "--run-id",
                    "killed",
                    "--kill-at",
                    "0:0",
                    "--kill-mode",
                    "halt",
                ],
            ]
            .concat(),
        )
        .unwrap_err();
        assert!(err.contains("killed at stage boundary"), "{err}");

        // One resume completes the campaign, identical to the baseline.
        let resumed = run_cli(&["resume", "killed", "--checkpoint-dir", &ckpt]).unwrap();
        assert!(resumed.contains("stage(s) restored"), "{resumed}");
        assert_eq!(output_section(&resumed), output_section(&baseline));

        // Resuming the now-complete run restores everything and recomputes
        // nothing — still the same answer.
        let again = run_cli(&["resume", "killed", "--checkpoint-dir", &ckpt]).unwrap();
        assert_eq!(output_section(&again), output_section(&baseline));

        // Guard rails: kill points need a checkpoint, malformed kill specs
        // and unknown run ids name the problem.
        let err = run_cli(&[&["run", f], &data[..], &["--kill-at", "0:0"]].concat()).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
        let err = run_cli(
            &[
                &["run", f],
                &data[..],
                &["--checkpoint-dir", &ckpt, "--kill-at", "nope"],
            ]
            .concat(),
        )
        .unwrap_err();
        assert!(err.contains("<engine>:<wave>"), "{err}");
        let err = run_cli(&["resume", "ghost", "--checkpoint-dir", &ckpt]).unwrap_err();
        assert!(err.contains("resume spec"), "{err}");
        let err = run_cli(&["resume", "killed"]).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_refuses_stale_checkpoints_end_to_end() {
        let dir = std::env::temp_dir().join(format!("toreador-cli-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = dir.to_str().unwrap().to_owned();
        let file = write_trace_campaign();
        let f = file.to_str().unwrap();
        run_cli(&[
            "run",
            f,
            "--data",
            "generated:ecommerce-clicks",
            "--rows",
            "400",
            "--checkpoint-dir",
            &ckpt,
            "--run-id",
            "victim",
            "--kill-at",
            "0:0",
            "--kill-mode",
            "halt",
        ])
        .unwrap_err();

        // Shrink the input between kill and resume: the checkpoint no
        // longer matches the data, so the resume is a classified refusal —
        // not a silently wrong answer.
        let spec_path = dir.join("victim").join("campaign.json");
        let spec = std::fs::read_to_string(&spec_path).unwrap();
        std::fs::write(&spec_path, spec.replace("\"400\"", "\"300\"")).unwrap();
        let err = run_cli(&["resume", "victim", "--checkpoint-dir", &ckpt]).unwrap_err();
        assert!(err.contains("stale checkpoint"), "{err}");
        assert!(err.contains("inputs"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compare_diffs_a_clean_run_against_a_killed_and_resumed_run() {
        let dir = std::env::temp_dir().join(format!("toreador-cli-rstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = dir.join("ckpt").to_str().unwrap().to_owned();
        let store = dir.join("store").to_str().unwrap().to_owned();
        let file = write_trace_campaign();
        let f = file.to_str().unwrap();
        let data = ["--data", "generated:ecommerce-clicks", "--rows", "400"];

        // Clean run into the store (run 1).
        run_cli(&[&["run", f], &data[..], &["--store", &store]].concat()).unwrap();
        // Killed checkpointed run, then a resume persisted as run 2: the
        // LabSession history now holds clean vs killed-and-resumed.
        run_cli(
            &[
                &["run", f],
                &data[..],
                &[
                    "--checkpoint-dir",
                    &ckpt,
                    "--run-id",
                    "k",
                    "--kill-at",
                    "0:0",
                    "--kill-mode",
                    "halt",
                ],
            ]
            .concat(),
        )
        .unwrap_err();
        let out = run_cli(&["resume", "k", "--checkpoint-dir", &ckpt, "--store", &store]).unwrap();
        assert!(out.contains("stored as run 2"), "{out}");
        // The persisted traces diff like any two runs — restored stages
        // simply contribute no task time.
        let out = run_cli(&["compare", "1", "2", "--store", &store]).unwrap();
        assert!(out.contains("run 1 vs run 2"), "{out}");
        assert!(out.contains("operator"), "{out}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_data_flag_is_a_clear_error() {
        let dir = std::env::temp_dir().join("toreador-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("x.tdl");
        std::fs::write(
            &file,
            "campaign x on d\ngoal filtering predicate=\"a > 1\"\n",
        )
        .unwrap();
        let err = run_cli(&["run", file.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("--data"));
    }
}
