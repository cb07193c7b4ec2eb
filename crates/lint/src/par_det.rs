//! L010: closures handed to the deterministic executor must be
//! deterministic.
//!
//! `pnc_parallel::par_map`/`par_try_map`/`par_reduce`/`par_for_chunks`
//! and `join` guarantee bit-identical results across `--threads` only
//! if the per-item closure (or each join branch) is a pure function of
//! its arguments. Reading the wall clock, the thread identity, the
//! process id, or the environment inside one — or funnelling results
//! through a locked/shared accumulator instead of the executor's
//! index-ordered collection — reintroduces exactly the scheduling
//! dependence the executor exists to remove.
//!
//! The rule finds every call whose name is one of the executor entry
//! points and walks each closure argument for the forbidden reads.
//! Telemetry scopes (`scope_under`, `emit`) are fine: the telemetry
//! layer owns its clock and is excluded from result bytes.

use crate::parse::{Expr, ParsedFile};
use crate::rules::Finding;
use crate::source::SourceFile;

/// Executor entry points whose closures must stay deterministic.
const PAR_ENTRY_POINTS: &[&str] = &[
    "par_map",
    "par_try_map",
    "par_reduce",
    "par_for_chunks",
    "join",
];

/// Runs L010 over every fn in `parsed` (tests included — a flaky test
/// is the failure mode this rule exists to prevent).
pub fn l010_par_closures(file: &SourceFile, parsed: &ParsedFile, findings: &mut Vec<Finding>) {
    for item in &parsed.fns {
        for stmt in &item.body {
            each_expr(stmt, &mut |e| check_call(file, e, findings));
        }
    }
}

fn each_expr(stmt: &crate::parse::Stmt, f: &mut dyn FnMut(&Expr)) {
    use crate::parse::Stmt;
    match stmt {
        Stmt::Let { init: Some(e), .. } | Stmt::Expr(e) | Stmt::Return { value: Some(e), .. } => {
            e.walk(f);
        }
        Stmt::Item(item) => {
            for s in &item.body {
                each_expr(s, f);
            }
        }
        _ => {}
    }
}

/// When `e` is a `par_*` call, audits its closure arguments.
fn check_call(file: &SourceFile, e: &Expr, findings: &mut Vec<Finding>) {
    let (name, args) = match e {
        Expr::MethodCall { name, args, .. } => (name.as_str(), args),
        Expr::Call { callee, args, .. } => match callee.as_ref() {
            Expr::Path { segs, .. } => match segs.last() {
                Some(n) => (n.as_str(), args),
                None => return,
            },
            _ => return,
        },
        _ => return,
    };
    if !PAR_ENTRY_POINTS.contains(&name) {
        return;
    }
    for arg in args {
        if let Expr::Closure { body, .. } = arg {
            body.walk(&mut |inner| {
                if let Some((what, line)) = nondeterministic_read(inner) {
                    report(
                        file,
                        findings,
                        line,
                        format!(
                            "{what} inside a closure passed to `{name}` — the executor's \
                             bit-identity across --threads holds only for closures that are \
                             pure functions of their arguments"
                        ),
                    );
                }
            });
        }
    }
}

/// Classifies an expression as a forbidden nondeterministic read or
/// shared-state access. Returns a description and line.
fn nondeterministic_read(e: &Expr) -> Option<(String, u32)> {
    match e {
        Expr::Call { callee, line, .. } => {
            let Expr::Path { segs, .. } = callee.as_ref() else {
                return None;
            };
            let path = segs.join("::");
            let last = segs.last().map(String::as_str).unwrap_or("");
            let prev = segs
                .len()
                .checked_sub(2)
                .and_then(|i| segs.get(i))
                .map(String::as_str)
                .unwrap_or("");
            match (prev, last) {
                ("Instant" | "SystemTime", "now") => {
                    Some((format!("wall-clock read `{path}()`"), *line))
                }
                ("thread", "current") => Some((format!("thread-identity read `{path}()`"), *line)),
                ("process", "id") => Some((format!("process-id read `{path}()`"), *line)),
                ("env", "var" | "var_os" | "vars") => {
                    Some((format!("environment read `{path}()`"), *line))
                }
                _ => None,
            }
        }
        Expr::MethodCall {
            name, args, line, ..
        } if args.is_empty() && matches!(name.as_str(), "lock" | "borrow_mut") => {
            Some((format!("shared-state access `.{name}()`"), *line))
        }
        _ => None,
    }
}

fn report(file: &SourceFile, findings: &mut Vec<Finding>, line: u32, message: String) {
    if file.is_suppressed("L010", line) {
        return;
    }
    findings.push(Finding {
        rule: "L010",
        rel: file.rel.clone(),
        line,
        message,
        snippet: file.line_text(line).to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/train/src/x.rs", src);
        let parsed = parse_file(&file.tokens);
        let mut findings = Vec::new();
        l010_par_closures(&file, &parsed, &mut findings);
        findings
    }

    #[test]
    fn clock_read_in_par_map_closure_is_flagged() {
        let src = "fn f(ex: &E, items: &[u32]) {\n    let out = ex.par_map(items, |i, x| {\n        let t = std::time::Instant::now();\n        x + i\n    });\n}";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("wall-clock"));
    }

    #[test]
    fn env_and_thread_reads_are_flagged() {
        let src = "fn f(ex: &E, items: &[u32]) {\n    ex.par_map(items, |i, x| {\n        let v = std::env::var(\"SEED\");\n        let id = std::thread::current();\n        x\n    });\n}";
        let f = run(src);
        assert_eq!(f.len(), 2, "{f:?}");
    }

    #[test]
    fn lock_accumulation_is_flagged() {
        let src = "fn f(ex: &E, items: &[u32], acc: &Mutex<Vec<u32>>) {\n    ex.par_for_chunks(items, 8, |chunk| {\n        acc.lock().push(chunk.len() as u32);\n    });\n}";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("lock"));
    }

    #[test]
    fn pure_closures_are_clean() {
        let src = "fn f(ex: &E, items: &[f64]) {\n    let out = ex.par_map(items, |i, x| {\n        let seed = derive_seed(42, i);\n        x * 2.0 + seed as f64\n    });\n}";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn clock_reads_outside_par_closures_are_not_l010() {
        let src = "fn f() {\n    let t = std::time::Instant::now();\n}";
        assert!(run(src).is_empty());
    }

    #[test]
    fn free_fn_call_form_is_covered() {
        let src = "fn f(items: &[u32]) {\n    let out = par_map(items, |i, x| {\n        std::process::id() + x\n    });\n}";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("process-id"));
    }

    #[test]
    fn suppression_silences_l010() {
        let src = "fn f(ex: &E, items: &[u32]) {\n    ex.par_map(items, |i, x| {\n        // lint: allow(L010, reason = \"diagnostic-only timing, excluded from result bytes\")\n        let t = std::time::Instant::now();\n        x\n    });\n}";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn fires_in_test_code_too() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let out = ex.par_map(&items, |i, x| std::time::SystemTime::now());\n    }\n}";
        assert_eq!(run(src).len(), 1);
    }
}
