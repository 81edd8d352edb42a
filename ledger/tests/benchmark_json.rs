//! `BENCHMARK.json` at the repository root parses, keeps to the contract's
//! shape, and names exactly the workloads and metrics the ledger emits
//! (the smoke test checks the emitting side against the same catalogue).

use serde_json::Value;

use toreador_ledger::catalog::{MetricDef, END_TO_END, PER_LAYER};
use toreador_ledger::suite::Bounds;
use toreador_ledger::workload::Workload;

const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn load() -> Value {
    let text = std::fs::read_to_string(PATH).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v}"))
}

fn list<'a>(v: &'a Value, key: &str) -> &'a Vec<Value> {
    v.as_object()
        .and_then(|o| o.get(key))
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is not a list"))
}

fn assert_metrics(listed: &[Value], catalogue: &[MetricDef], bounded: bool) {
    let names: Vec<&str> = listed.iter().map(|m| text(m, "name")).collect();
    let expected: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    for (m, def) in listed.iter().zip(catalogue) {
        assert_eq!(text(m, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(m, "better"), def.better.as_str(), "{}", def.name);
        let keys: Vec<&str> = m.as_object().unwrap().keys().map(String::as_str).collect();
        if bounded {
            assert_eq!(keys, ["name", "unit", "better", "bound"], "{}", def.name);
            let bound = m
                .as_object()
                .unwrap()
                .get("bound")
                .unwrap()
                .as_f64()
                .unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
        } else {
            assert_eq!(keys, ["name", "unit", "better"], "{}", def.name);
        }
    }
}

#[test]
fn benchmark_json_names_exactly_what_the_ledger_emits() {
    let v = load();
    let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let paths: Vec<&str> = list(&v, "paths").iter().filter_map(Value::as_str).collect();
    assert_eq!(paths, ["ledger"]);
    let command: Vec<&str> = list(&v, "command")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(command, ["bash", "ledger/bench.sh"]);
    assert!(std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/bench.sh")).is_file());

    let workloads = list(&v, "workloads");
    let names: Vec<&str> = workloads.iter().map(|w| text(w, "name")).collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, expected);
    for w in workloads {
        let why = text(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
    }

    assert_metrics(list(&v, "end_to_end"), END_TO_END, true);
    assert_metrics(list(&v, "per_layer"), PER_LAYER, false);

    // setup_s carries the largest bound.
    let bounds = Bounds::load(std::path::Path::new(PATH)).unwrap();
    let bound = |name: &str| bounds.metrics[name].1.unwrap();
    for m in END_TO_END {
        assert!(bound(m.name) <= bound("setup_s"), "{}", m.name);
    }
    assert!(
        bounds.metrics["dataflow.scan_ms"].1.is_none(),
        "layers have no bound"
    );

    let seconds = v
        .as_object()
        .unwrap()
        .get("run_seconds")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!((1..=60).contains(&seconds));
}
