//! `--explain <RULE>`: per-rule rationale, examples, and suppression
//! syntax.

/// The long-form explanation of one rule: what it flags, why the
/// invariant matters in this repository, a bad/good example pair, and
/// how to suppress a justified exception.
struct RuleDoc {
    id: &'static str,
    title: &'static str,
    rationale: &'static str,
    bad: &'static str,
    good: &'static str,
    suppress: &'static str,
}

const DOCS: &[RuleDoc] = &[
    RuleDoc {
        id: "L000",
        title: "malformed `// lint:` directive",
        rationale: "A suppression that does not parse silently suppresses nothing — the finding \
                    it meant to justify still fires, or worse, the author believes it is \
                    suppressed. Malformed directives are therefore findings themselves, and \
                    cannot be suppressed (a directive cannot vouch for itself).",
        bad: "// lint: allow(L001)              (missing the mandatory reason)",
        good: "// lint: allow(L001, reason = \"poisoned lock is unrecoverable\")",
        suppress: "not suppressible — fix the directive",
    },
    RuleDoc {
        id: "L001",
        title: "no panics in library code",
        rationale: "A `panic!`/`todo!`/`unimplemented!`/`.unwrap()`/`.expect()` inside a SPICE \
                    Newton iteration or the augmented-Lagrangian training loop aborts a whole \
                    run half-way through a sweep. Library paths return typed errors; tests are \
                    exempt (unwrap is idiomatic there).",
        bad: "let v = solve(x).unwrap();",
        good: "let v = solve(x)?;",
        suppress: "// lint: allow(L001, reason = \"…\") on the same line or the line above",
    },
    RuleDoc {
        id: "L002",
        title: "no float-literal equality in numeric crates",
        rationale: "`x == 0.0` in solver/trainer code is almost always a latent bug — values \
                    arrive through arithmetic that does not round-trip exactly. Compare with an \
                    epsilon, or justify genuine bit-exact sentinels.",
        bad: "if residual == 0.0 { … }",
        good: "if residual.abs() < 1e-12 { … }",
        suppress: "// lint: allow(L002, reason = \"…\")",
    },
    RuleDoc {
        id: "L003",
        title: "no global mutable state",
        rationale: "`static mut` and interior-mutable statics (`Mutex`, `AtomicU64`, `OnceLock`, \
                    …) reintroduce the ambient coupling PR 1 removed: telemetry and \
                    configuration are threaded explicitly so every effect is attributable and \
                    every run reproducible. Test fixtures are exempt.",
        bad: "static CACHE: Mutex<Vec<f64>> = Mutex::new(Vec::new());",
        good: "pub struct Ctx { cache: Vec<f64> }  // passed down explicitly",
        suppress: "// lint: allow(L003, reason = \"…\")",
    },
    RuleDoc {
        id: "L004",
        title: "unit-suffixed public f64 surface",
        rationale: "In `pnc-spice`/`pnc-core`/`pnc-surrogate`, a bare `f64` field or pub-fn \
                    parameter is a milliwatt waiting to meet a watt. Names carry the unit \
                    (`_watts`, `_volts`, `_ohms`, `_seconds`, `_ms`, …) so call sites read \
                    correctly and L008 can check the algebra.",
        bad: "pub voltage: f64,",
        good: "pub voltage_volts: f64,   // or: // lint: dimensionless",
        suppress: "// lint: dimensionless for genuinely unitless quantities",
    },
    RuleDoc {
        id: "L005",
        title: "telemetry event names match the README schema",
        rationale: "Dashboards and `jq` pipelines key on event names. An event emitted in code \
                    but missing from the README event-schema table is invisible downstream — \
                    schema drift that no test catches.",
        bad: "sink.emit(Event::new(\"solver_retry\"));   // not in README table",
        good: "document `solver_retry` in the README event-schema table",
        suppress: "// lint: allow(L005, reason = \"…\") for internal debug events",
    },
    RuleDoc {
        id: "L006",
        title: "no raw threads outside pnc-parallel",
        rationale: "Hand-rolled `std::thread::spawn`/`scope` bypasses the deterministic \
                    executor — its `--threads` config, index-ordered collection, and panic \
                    propagation — so results stop being bit-identical across thread counts. \
                    Fan out through `pnc_parallel::Executor`.",
        bad: "std::thread::scope(|s| { s.spawn(|| work()); });",
        good: "handle.par_map(&items, |i, item| work(item))",
        suppress: "// lint: allow(L006, reason = \"…\")",
    },
    RuleDoc {
        id: "L007",
        title: "no raw Instant::now() outside pnc-telemetry",
        rationale: "Every clock read goes through `pnc_telemetry::Stopwatch` (or a profiler \
                    scope) so the observability layer owns timing: attributable, mockable, and \
                    excluded from result bytes.",
        bad: "let t0 = std::time::Instant::now();",
        good: "let sw = Stopwatch::start(); … sw.elapsed_ms()",
        suppress: "// lint: allow(L007, reason = \"…\")",
    },
    RuleDoc {
        id: "L008",
        title: "dimensional consistency of unit-suffixed arithmetic",
        rationale: "The whole paper is arithmetic over physical quantities under a power budget; \
                    L004 makes names carry units, and L008 checks the algebra those names \
                    imply: volts×amps→watts, volts/ohms→amps, `+`/`-`/comparison/assignment/\
                    return/argument-passing require matching dimensions AND scales (`x_mw + \
                    y_watts` is a finding). Multiplying or dividing by a power-of-ten literal \
                    (`* 1e3`) is recognised as a scale conversion. Anything the analysis cannot \
                    see a unit for is never flagged. Applies to non-test code in \
                    pnc-spice/core/train/surrogate.",
        bad: "let total_mw = p_watts + q_mw;",
        good: "let total_mw = p_watts * 1e3 + q_mw;",
        suppress: "// lint: allow(L008, reason = \"…\") or // lint: dimensionless",
    },
    RuleDoc {
        id: "L009",
        title: "no hash-ordered iteration feeding ordered output",
        rationale: "`HashMap`/`HashSet` iteration order varies run to run, so pushing, writing, \
                    formatting, collecting, or float-accumulating in that order produces \
                    different bytes every run — breaking the bit-identical-across-`--threads` \
                    invariant from PR 5. Iterate a `BTreeMap`, or collect and sort before \
                    output. Order-insensitive terminals (`count`, `any`, `all`, …) and int \
                    counters are fine; a sort later in the same block repairs the leak.",
        bad: "for (k, v) in &hash_map { out.push(format!(\"{k}={v}\")); }",
        good: "let mut rows: Vec<_> = hash_map.iter().collect(); rows.sort(); …",
        suppress: "// lint: allow(L009, reason = \"…\") for provably order-free cases",
    },
    RuleDoc {
        id: "L010",
        title: "deterministic closures in par_map/par_reduce",
        rationale: "The executor guarantees bit-identical results across `--threads` only when \
                    per-item closures and `join` branches are pure functions of their \
                    arguments. Wall-clock reads (`Instant::now`, `SystemTime::now`), thread \
                    identity, process id, environment reads, and locked shared accumulators \
                    (`.lock()`, `.borrow_mut()`) all reintroduce scheduling dependence. \
                    Derive randomness from `derive_seed(base, index)`; collect results through \
                    the executor's index-ordered return value.",
        bad: "ex.par_map(&xs, |i, x| x * rng_from(SystemTime::now()))",
        good: "ex.par_map(&xs, |i, x| x * rng_from(derive_seed(base, i)))",
        suppress: "// lint: allow(L010, reason = \"…\")",
    },
];

/// Renders the explanation for `rule` (e.g. `"L008"`), or `None` for
/// an unknown rule id.
pub fn explain(rule: &str) -> Option<String> {
    let doc = DOCS.iter().find(|d| d.id.eq_ignore_ascii_case(rule))?;
    Some(format!(
        "{id}: {title}\n\n{rationale}\n\n  bad:      {bad}\n  good:     {good}\n  suppress: {suppress}\n",
        id = doc.id,
        title = doc.title,
        rationale = doc.rationale,
        bad = doc.bad,
        good = doc.good,
        suppress = doc.suppress,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalogued_rule_has_an_explanation() {
        for (id, _) in crate::rules::RULES {
            assert!(explain(id).is_some(), "missing --explain doc for {id}");
        }
    }

    #[test]
    fn explanations_name_the_suppression_syntax() {
        for doc in DOCS {
            if doc.id == "L000" {
                continue;
            }
            let text = explain(doc.id).expect("doc");
            assert!(
                text.contains("lint:"),
                "{} lacks suppression syntax",
                doc.id
            );
        }
    }

    #[test]
    fn unknown_rule_is_none_and_lookup_is_case_insensitive() {
        assert!(explain("L999").is_none());
        assert!(explain("l008").is_some());
    }
}
