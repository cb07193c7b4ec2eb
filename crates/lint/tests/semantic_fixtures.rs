//! Golden fixtures for the semantic rules (L008–L010): one known-bad
//! snippet per trigger, each paired with the rewrite or suppression
//! that silences it. These pin the user-visible contract of the
//! AST-based pass the same way `golden_fixtures.rs` pins the
//! token-based rules.

use pnc_lint::{lint_source, Finding};

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- L008

#[test]
fn l008_seeded_unit_mismatch_watts_plus_milliwatts() {
    let src = "fn total(p_watts: f64, q_mw: f64) -> f64 {\n    p_watts + q_mw\n}\n";
    let findings = lint_source("crates/spice/src/bad.rs", src);
    assert_eq!(rules_of(&findings), ["L008"]);
    assert_eq!(findings[0].line, 2);
}

#[test]
fn l008_adding_incompatible_dimensions_is_flagged() {
    let src = "fn nonsense(v_volts: f64, t_seconds: f64) -> f64 {\n    v_volts + t_seconds\n}\n";
    assert_eq!(
        rules_of(&lint_source("crates/core/src/bad.rs", src)),
        ["L008"]
    );
}

#[test]
fn l008_ohms_law_products_are_clean() {
    let src = "fn power(v_volts: f64, r_ohms: f64) -> f64 {\n    let i_amps = v_volts / r_ohms;\n    let p_watts = v_volts * i_amps;\n    p_watts\n}\n";
    assert!(lint_source("crates/spice/src/bad.rs", src).is_empty());
}

#[test]
fn l008_energy_products_are_clean() {
    // watts × seconds → joules: the energy-accounting identity the
    // power reports use (`PowerBreakdown::energy_joules`).
    let src = "fn energy(p_watts: f64, t_seconds: f64) -> f64 {\n    let e_joules = p_watts * t_seconds;\n    e_joules\n}\n";
    assert!(lint_source("crates/core/src/bad.rs", src).is_empty());
}

#[test]
fn l008_energy_quotient_recovers_power() {
    let src = "fn mean(e_joules: f64, t_seconds: f64) -> f64 {\n    let p_watts = e_joules / t_seconds;\n    p_watts\n}\n";
    assert!(lint_source("crates/spice/src/bad.rs", src).is_empty());
}

#[test]
fn l008_adding_joules_to_watts_is_flagged() {
    let src = "fn nonsense(e_joules: f64, p_watts: f64) -> f64 {\n    e_joules + p_watts\n}\n";
    let findings = lint_source("crates/core/src/bad.rs", src);
    assert_eq!(rules_of(&findings), ["L008"]);
    assert_eq!(findings[0].line, 2);
}

#[test]
fn l008_power_of_ten_literal_is_a_scale_conversion() {
    let src = "fn total_mw(p_watts: f64, q_mw: f64) -> f64 {\n    p_watts * 1e3 + q_mw\n}\n";
    assert!(lint_source("crates/train/src/bad.rs", src).is_empty());
}

#[test]
fn l008_call_argument_must_match_the_signature() {
    let src = "fn absorb(p_watts: f64) -> f64 {\n    p_watts\n}\n\nfn drive(x_mw: f64) -> f64 {\n    absorb(x_mw)\n}\n";
    let findings = lint_source("crates/surrogate/src/bad.rs", src);
    assert_eq!(rules_of(&findings), ["L008"]);
    assert_eq!(findings[0].line, 6);
}

#[test]
fn l008_return_unit_comes_from_the_fn_name_suffix() {
    let src = "fn budget_mw(p_watts: f64) -> f64 {\n    p_watts\n}\n";
    assert_eq!(
        rules_of(&lint_source("crates/spice/src/bad.rs", src)),
        ["L008"]
    );
}

#[test]
fn l008_allow_directive_suppresses() {
    let src = "fn total(p_watts: f64, q_mw: f64) -> f64 {\n    // lint: allow(L008, reason = \"q_mw is mis-named, tracked in #42\")\n    p_watts + q_mw\n}\n";
    assert!(lint_source("crates/spice/src/bad.rs", src).is_empty());
}

#[test]
fn l008_dimensionless_directive_suppresses() {
    let src = "fn total(p_watts: f64, q_mw: f64) -> f64 {\n    // lint: dimensionless\n    p_watts + q_mw\n}\n";
    assert!(lint_source("crates/spice/src/bad.rs", src).is_empty());
}

#[test]
fn l008_does_not_apply_in_test_modules_or_other_crates() {
    let bad = "fn total(p_watts: f64, q_mw: f64) -> f64 {\n    p_watts + q_mw\n}\n";
    assert!(lint_source("crates/bench/src/bad.rs", bad).is_empty());
    let in_test = format!("#[cfg(test)]\nmod tests {{\n    {bad}\n}}\n");
    assert!(lint_source("crates/spice/src/bad.rs", &in_test).is_empty());
}

#[test]
fn l008_unsuffixed_names_are_never_guessed_at() {
    let src = "fn mystery(a: f64, b: f64) -> f64 {\n    a + b\n}\n";
    assert!(lint_source("crates/spice/src/bad.rs", src).is_empty());
}

// ---------------------------------------------------------------- L009

#[test]
fn l009_seeded_unordered_hashmap_feeding_pushed_output() {
    let src = "use std::collections::HashMap;\n\nfn rows(m: &HashMap<String, u32>) -> Vec<String> {\n    let mut out = Vec::new();\n    for (k, v) in m {\n        out.push(format!(\"{k}={v}\"));\n    }\n    out\n}\n";
    let findings = lint_source("crates/bench/src/bad.rs", src);
    assert_eq!(rules_of(&findings), ["L009"]);
    assert_eq!(findings[0].line, 6);
}

#[test]
fn l009_sorting_after_the_loop_repairs_the_leak() {
    let src = "use std::collections::HashMap;\n\nfn rows(m: &HashMap<String, u32>) -> Vec<String> {\n    let mut out = Vec::new();\n    for (k, v) in m {\n        out.push(format!(\"{k}={v}\"));\n    }\n    out.sort_unstable();\n    out\n}\n";
    assert!(lint_source("crates/bench/src/bad.rs", src).is_empty());
}

#[test]
fn l009_float_accumulation_over_hash_iteration_is_flagged() {
    let src = "use std::collections::HashMap;\n\nfn mean(m: &HashMap<String, f64>) -> f64 {\n    let mut sum = 0.0;\n    for (_, v) in m {\n        sum += v;\n    }\n    sum\n}\n";
    assert_eq!(
        rules_of(&lint_source("crates/bench/src/bad.rs", src)),
        ["L009"]
    );
}

#[test]
fn l009_btreemap_iteration_is_deterministic_and_clean() {
    let src = "use std::collections::BTreeMap;\n\nfn rows(m: &BTreeMap<String, u32>) -> Vec<String> {\n    let mut out = Vec::new();\n    for (k, v) in m {\n        out.push(format!(\"{k}={v}\"));\n    }\n    out\n}\n";
    assert!(lint_source("crates/bench/src/bad.rs", src).is_empty());
}

#[test]
fn l009_integer_counting_over_hash_iteration_is_fine() {
    let src = "use std::collections::HashMap;\n\nfn live(m: &HashMap<String, u32>) -> usize {\n    let mut n = 0usize;\n    for (_, v) in m {\n        if *v > 0 {\n            n += 1;\n        }\n    }\n    n\n}\n";
    assert!(lint_source("crates/bench/src/bad.rs", src).is_empty());
}

#[test]
fn l009_applies_inside_test_modules_too() {
    let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n\n    fn rows(m: &HashMap<String, u32>) -> Vec<String> {\n        let mut out = Vec::new();\n        for (k, v) in m {\n            out.push(format!(\"{k}={v}\"));\n        }\n        out\n    }\n}\n";
    assert_eq!(
        rules_of(&lint_source("crates/telemetry/src/bad.rs", src)),
        ["L009"]
    );
}

#[test]
fn l009_allow_directive_suppresses() {
    let src = "use std::collections::HashMap;\n\nfn rows(m: &HashMap<String, u32>) -> Vec<String> {\n    let mut out = Vec::new();\n    // lint: allow(L009, reason = \"consumer resorts; order provably irrelevant\")\n    for (k, v) in m {\n        out.push(format!(\"{k}={v}\"));\n    }\n    out\n}\n";
    assert!(lint_source("crates/bench/src/bad.rs", src).is_empty());
}

// ---------------------------------------------------------------- L010

#[test]
fn l010_wall_clock_read_inside_par_map_closure() {
    let src = "fn timed(ex: &Executor, xs: &[f64]) -> Vec<f64> {\n    ex.par_map(xs, |_, x| {\n        let t = std::time::Instant::now();\n        x * t.elapsed().as_secs_f64()\n    })\n}\n";
    // Telemetry path: the same snippet in a solver crate would also
    // (rightly) trip L007's raw-clock ban; telemetry owns the clock,
    // so only the closure-purity violation remains.
    let findings = lint_source("crates/telemetry/src/bad.rs", src);
    assert_eq!(rules_of(&findings), ["L010"]);
}

#[test]
fn l010_wall_clock_read_inside_a_join_branch() {
    let src = "fn timed(ex: &Executor, xs: &[f64]) -> (f64, f64) {\n    ex.join(\n        || xs.iter().sum::<f64>(),\n        || {\n            let t = std::time::Instant::now();\n            t.elapsed().as_secs_f64()\n        },\n    )\n}\n";
    let findings = lint_source("crates/telemetry/src/bad.rs", src);
    assert_eq!(rules_of(&findings), ["L010"]);
    assert_eq!(findings[0].line, 5);
    assert!(
        findings[0].message.contains("`join`"),
        "{}",
        findings[0].message
    );
}

#[test]
fn l010_locked_accumulator_inside_par_map_closure() {
    let src = "fn accumulate(ex: &Executor, xs: &[f64], total: &Mutex<f64>) {\n    ex.par_map(xs, |_, x| {\n        let mut guard = total.lock();\n        *guard += x;\n    });\n}\n";
    assert_eq!(
        rules_of(&lint_source("crates/train/src/bad.rs", src)),
        ["L010"]
    );
}

#[test]
fn l010_env_read_inside_par_reduce_closure() {
    let src = "fn scaled(ex: &Executor, xs: &[f64]) -> f64 {\n    ex.par_reduce(xs, 0.0, |_, x| {\n        if std::env::var(\"FAST\").is_ok() {\n            x\n        } else {\n            x * 2.0\n        }\n    })\n}\n";
    assert_eq!(
        rules_of(&lint_source("crates/core/src/bad.rs", src)),
        ["L010"]
    );
}

#[test]
fn l010_seeded_randomness_from_the_index_is_clean() {
    let src = "fn jittered(ex: &Executor, xs: &[f64], base: u64) -> Vec<f64> {\n    ex.par_map(xs, |i, x| x + noise(derive_seed(base, i)))\n}\n";
    assert!(lint_source("crates/train/src/bad.rs", src).is_empty());
}

#[test]
fn l010_clock_reads_outside_the_closure_are_not_this_rules_business() {
    // The sequential-path clock read is L007's job (telemetry crate is
    // exempt from L007, which keeps this fixture single-purpose).
    let src = "fn timed(ex: &Executor, xs: &[f64]) -> Vec<f64> {\n    let t0 = std::time::Instant::now();\n    let out = ex.par_map(xs, |_, x| x * 2.0);\n    record(t0.elapsed());\n    out\n}\n";
    assert!(lint_source("crates/telemetry/src/bad.rs", src).is_empty());
}

#[test]
fn l010_applies_inside_test_modules_too() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t(ex: &Executor) {\n        ex.par_map(&[1.0], |_, x| x * std::process::id() as f64);\n    }\n}\n";
    assert_eq!(
        rules_of(&lint_source("crates/train/src/bad.rs", src)),
        ["L010"]
    );
}

#[test]
fn l010_allow_directive_suppresses() {
    let src = "fn t(ex: &Executor, xs: &[f64]) -> Vec<ThreadId> {\n    // lint: allow(L010, reason = \"thread placement is the subject under test\")\n    ex.par_map(xs, |_, _| std::thread::current().id())\n}\n";
    assert!(lint_source("crates/parallel/src/bad.rs", src).is_empty());
}
