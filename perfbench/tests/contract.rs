//! The benchmark's own contract: its metric catalogue matches
//! `BENCHMARK.json`, every workload emits every metric it declares,
//! and a wrong digest fails the output check. (That a network over its
//! budget is a failed op is a unit test in `src/train.rs`.)

use perfbench::metrics::{is_valid_name, is_valid_unit, MetricSpec, END_TO_END, PER_LAYER};
use perfbench::run::{check_digests, fidelity, Size, Workload};
use pnc_telemetry::json::{parse, Json};
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    match json.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn str_field<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string {key} in {json:?}"))
}

fn assert_same_metrics(listed: &[Json], specs: &[MetricSpec], with_bound: bool) {
    let names: Vec<&str> = listed.iter().map(|m| str_field(m, "name")).collect();
    let expected: Vec<&str> = specs.iter().map(|s| s.name).collect();
    assert_eq!(names, expected);
    for (m, s) in listed.iter().zip(specs) {
        let Json::Obj(fields) = m else {
            panic!("metric is not an object")
        };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        let mut want = vec!["better", "name", "unit"];
        if with_bound {
            want.insert(1, "bound");
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", s.name);
        }
        assert_eq!(keys, want, "{}", s.name);
        assert!(is_valid_name(s.name) && is_valid_unit(s.unit), "{}", s.name);
        assert_eq!(str_field(m, "unit"), s.unit, "{}", s.name);
        assert_eq!(str_field(m, "better"), s.better.as_str(), "{}", s.name);
    }
}

#[test]
fn benchmark_json_matches_the_metric_catalogue() {
    let json = benchmark_json();
    let Json::Obj(top) = &json else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_same_metrics(array(&json, "end_to_end"), &END_TO_END, true);
    assert_same_metrics(array(&json, "per_layer"), &PER_LAYER, false);
    assert!(END_TO_END
        .iter()
        .any(|s| s.name == "setup_s" && s.unit == "s"));

    let workloads: Vec<&str> = array(&json, "workloads")
        .iter()
        .map(|w| {
            assert!(str_field(w, "why").len() <= 200);
            str_field(w, "name")
        })
        .collect();
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, expected);
    assert!(workloads.iter().all(|w| is_valid_name(w)));
}

/// Runs the benchmark binary at tiny size and returns the parsed
/// result line.
fn run_tiny(workload: Workload, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "3",
            "--seconds",
            "0.2",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{} trace={trace}: {}\n{}",
        workload.name(),
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn assert_emits(result: &Json, specs: &[MetricSpec]) {
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("no metrics object")
    };
    let mut names: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = specs.iter().map(|s| s.name).collect();
    names.sort_unstable();
    expected.sort_unstable();
    assert_eq!(names, expected);
    for s in specs {
        let m = &metrics[s.name];
        assert_eq!(str_field(m, "unit"), s.unit);
        assert!(m
            .get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite));
    }
}

fn assert_workload_emits_its_metrics(workload: Workload) {
    let untraced = run_tiny(workload, false);
    assert_emits(&untraced, &END_TO_END);
    let Some(Json::Obj(m)) = untraced.get("metrics") else {
        unreachable!()
    };
    for s in &END_TO_END {
        let v = m[s.name].get("value").and_then(Json::as_f64).unwrap_or(0.0);
        assert!(v > 0.0, "{} reads {v} on {}", s.name, workload.name());
    }
    assert_emits(&run_tiny(workload, true), &PER_LAYER);
}

#[test]
fn characterize_emits_every_metric() {
    assert_workload_emits_its_metrics(Workload::Characterize);
}

#[test]
fn characterize_observed_emits_every_metric() {
    assert_workload_emits_its_metrics(Workload::CharacterizeObserved);
}

#[test]
fn train_emits_every_metric() {
    assert_workload_emits_its_metrics(Workload::Train);
}

#[test]
fn certify_emits_every_metric() {
    assert_workload_emits_its_metrics(Workload::Certify);
}

#[test]
fn a_wrong_bundle_digest_fails_the_check() {
    let fid = fidelity(Size::Tiny, 3);
    let bundle = pnc_bench::harness::fit_bundle(pnc_spice::AfKind::PRelu, &fid).expect("tiny fit");
    let digest = perfbench::characterize::bundle_digest(perfbench::run::FNV_OFFSET, &bundle);
    assert!(check_digests(&[digest, digest], Some(digest)).is_ok());
    assert!(check_digests(&[digest, digest ^ 1], None).is_err());
    assert!(check_digests(&[digest, digest], Some(digest ^ 1)).is_err());
    assert!(check_digests(&[], None).is_err());
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
