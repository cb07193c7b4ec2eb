//! The measurement loop shared by every workload: repeated set-up,
//! timed passes for `--seconds`, an optional traced phase, and the
//! output checks.

use crate::layers::{self, Layers};
use crate::metrics::{self, median, Outcome};
use crate::{certify, characterize, train};
use pnc_telemetry::{ProfileReport, Profiler, SpanRecord, Stopwatch, Telemetry};
use pnc_train::experiment::ExperimentFidelity;
use std::collections::BTreeMap;
use std::path::Path;

/// A run sets up at least this many times, and for at least
/// [`SETUP_MIN_S`] in total; `setup_s` is the median. A short set-up is
/// repeated more, so its median is as steady as that of a long one.
const SETUP_MIN_REPS: usize = 3;
/// See [`SETUP_MIN_REPS`].
const SETUP_MIN_S: f64 = 3.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fit the p-ReLU and p-tanh surrogate bundles.
    Characterize,
    /// The same fit with the solver observatory and atlas armed.
    CharacterizeObserved,
    /// Reference → augmented Lagrangian → fine-tune on three datasets.
    Train,
    /// Export a trained Pendigits network and solve it in SPICE.
    Certify,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Characterize,
        Workload::CharacterizeObserved,
        Workload::Train,
        Workload::Certify,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Characterize => "characterize",
            Workload::CharacterizeObserved => "characterize-observed",
            Workload::Train => "train",
            Workload::Certify => "certify",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem size: `full` is what the benchmark measures, `tiny` is a
/// seconds-scale version for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A tiny size with the same code paths.
    Tiny,
}

impl Size {
    /// The `--size` name.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// Smoke fidelity (or a tiny one) with the surrogate MLP seeded from
/// the run seed.
pub fn fidelity(size: Size, seed: u64) -> ExperimentFidelity {
    let mut f = ExperimentFidelity::smoke();
    if size == Size::Tiny {
        f.surrogate.transfer_samples = 12;
        f.surrogate.transfer_grid = 5;
        f.surrogate.power.samples = 24;
        f.surrogate.power.grid_points = 5;
        f.surrogate.power.mlp.hidden = vec![8];
        f.surrogate.power.mlp.epochs = 20;
        f.train.max_epochs = 4;
        f.train.patience = 2;
        f.auglag_outer = 1;
    }
    f.surrogate.power.mlp.seed = seed;
    f
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Executor threads.
    pub threads: usize,
    /// Problem size.
    pub size: Size,
    /// Set up, run one pass and print only its output digest.
    pub digest_only: bool,
}

/// Default executor threads: two, or fewer on a smaller machine.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`
    /// plus the optional `--threads <n>`, `--size full|tiny` and
    /// `--digest-only`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for a missing, unknown or malformed flag.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut digest_only = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--digest-only" => digest_only = true,
                "--workload" | "--seed" | "--seconds" | "--trace" | "--threads" | "--size" => {
                    let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    flags.insert(flag, value);
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        let get = |flag: &str| {
            flags
                .get(flag)
                .copied()
                .ok_or(format!("{flag} is required"))
        };
        let number = |flag: &str, v: &str| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{flag}: '{v}' is not a whole number"))
        };
        let workload = get("--workload")?;
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|_| "--seconds: not a number".to_string())?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload '{workload}'"))?,
            seed: number("--seed", get("--seed")?)?,
            seconds,
            trace: match get("--trace")? {
                "0" => false,
                "1" => true,
                v => return Err(format!("--trace: '{v}' is not 0 or 1")),
            },
            threads: match flags.get("--threads") {
                Some(v) => number("--threads", v)?.max(1) as usize,
                None => default_threads(),
            },
            size: match flags.get("--size").copied() {
                None => Size::Full,
                Some(v) => [Size::Full, Size::Tiny]
                    .into_iter()
                    .find(|s| s.name() == v)
                    .ok_or_else(|| format!("--size: '{v}' is not full or tiny"))?,
            },
            digest_only,
        })
    }
}

/// What one timed pass produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pass {
    /// Units of work done (DC solves or epochs) for `work_per_s`.
    pub work: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The workload's output score in `[0, 1]`.
    pub quality: f64,
    /// Digest of the pass's outputs; every pass of a run must agree.
    pub digest: u64,
    /// Output-check failures found in this pass.
    pub problems: Vec<String>,
    /// Layer values of this pass.
    pub layers: Layers,
}

/// FNV-1a over `bytes`, continuing from `hash` (start from
/// [`FNV_OFFSET`]).
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Checks that every pass of a run, and the reference digest from
/// another thread count when there is one, produced the same outputs.
///
/// # Errors
///
/// Names the first digest that differs.
pub fn check_digests(passes: &[u64], other_threads: Option<u64>) -> Result<(), String> {
    let Some(&first) = passes.first() else {
        return Err("no pass completed".into());
    };
    if let Some(i) = passes.iter().position(|&d| d != first) {
        return Err(format!(
            "pass {i} digest {:016x} differs from pass 0 digest {first:016x}",
            passes[i]
        ));
    }
    match other_threads {
        Some(d) if d != first => Err(format!(
            "digest {d:016x} at --threads 1 differs from {first:016x}"
        )),
        _ => Ok(()),
    }
}

/// A workload: how to set it up and how to run one pass over its
/// inputs.
pub trait Bench {
    /// Inputs built by set-up and read by every pass.
    type Inputs;

    /// Builds the inputs from `args.seed`, recording set-up layers.
    ///
    /// # Errors
    ///
    /// Returns a message when set-up fails.
    fn setup(&self, args: &Args, layers: &mut Layers) -> Result<Self::Inputs, String>;

    /// Runs one pass. Calls into the program get `tel`, whose profiler
    /// is enabled on a traced pass. The process-wide counters are zeroed
    /// before the pass and read into its layers after.
    fn pass(&self, inputs: &Self::Inputs, tel: &Telemetry) -> Pass;

    /// Whether the run's digest must equal that of `characterize` at
    /// `--threads 1`.
    fn cross_check_threads(&self) -> bool {
        false
    }
}

/// Runs `args.workload` and returns its outcome.
///
/// # Errors
///
/// Returns a message when set-up fails.
pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload {
        Workload::Characterize => drive(&characterize::Characterize { observed: false }, args),
        Workload::CharacterizeObserved => {
            drive(&characterize::Characterize { observed: true }, args)
        }
        Workload::Train => drive(&train::Train, args),
        Workload::Certify => drive(&certify::Certify, args),
    }
}

/// One timed pass.
struct Timed {
    wall_s: f64,
    traced: bool,
    pass: Pass,
}

/// The profile of a traced pass, taken as the pass ends.
struct Trace {
    report: ProfileReport,
    spans: Vec<SpanRecord>,
}

/// Runs passes until `seconds` have elapsed (at least one). With
/// `trace`, every second pass runs with a fresh profiler, so traced and
/// untraced passes see the same machine conditions; the last traced
/// pass's profile is returned.
fn passes<B: Bench>(
    bench: &B,
    inputs: &B::Inputs,
    seconds: f64,
    trace: bool,
) -> (Vec<Timed>, Option<Trace>) {
    let mut out = Vec::new();
    let mut last = None;
    let min_passes = if trace { 2 } else { 1 };
    let phase = Stopwatch::start();
    while out.len() < min_passes || phase.elapsed().as_secs_f64() < seconds {
        let traced = trace && out.len() % 2 == 1;
        let prof = if traced {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        };
        let tel = Telemetry::disabled().with_profiler(prof.clone());
        layers::reset_counters();
        let sw = Stopwatch::start();
        let mut pass = bench.pass(inputs, &tel);
        let wall_s = sw.elapsed().as_secs_f64();
        layers::read_counters(&mut pass.layers);
        if traced {
            let report = prof.report();
            let spans = prof.spans();
            layers::read_profile(&report, spans.len(), &mut pass.layers);
            last = Some(Trace { report, spans });
        }
        out.push(Timed {
            wall_s,
            traced,
            pass,
        });
    }
    (out, last)
}

/// Median of each layer across `sets`.
fn median_layers<'a>(
    sets: impl Iterator<Item = &'a Layers> + Clone,
) -> BTreeMap<&'static str, f64> {
    let mut names: Vec<&'static str> = sets.clone().flat_map(|l| l.0.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|n| {
            let values: Vec<f64> = sets.clone().map(|l| l.get(n)).collect();
            (n, median(&values))
        })
        .collect()
}

fn drive<B: Bench>(bench: &B, args: &Args) -> Result<Outcome, String> {
    if args.digest_only {
        let inputs = bench.setup(args, &mut Layers::default())?;
        let pass = bench.pass(&inputs, &Telemetry::disabled());
        return Ok(Outcome {
            correct: pass.problems.is_empty(),
            attempted: pass.attempted,
            failed: pass.failed,
            digest: pass.digest,
            metrics: BTreeMap::new(),
        });
    }
    let mut setup_s = Vec::new();
    let mut setup_layers = Vec::new();
    let mut inputs = None;
    while setup_s.len() < SETUP_MIN_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        let mut l = Layers::default();
        let sw = Stopwatch::start();
        inputs = Some(bench.setup(args, &mut l)?);
        setup_s.push(sw.elapsed().as_secs_f64());
        setup_layers.push(l);
    }
    let inputs = inputs.expect("SETUP_MIN_REPS is positive");

    let (timed, trace) = passes(bench, &inputs, args.seconds, args.trace);
    let peak_rss_mb = metrics::peak_rss_mb();
    if let Some(t) = &trace {
        write_trace(args, t);
    }

    let mut problems: Vec<String> = timed.iter().flat_map(|t| t.pass.problems.clone()).collect();
    let other_threads = if bench.cross_check_threads() && problems.is_empty() {
        match digest_at_one_thread(args) {
            Ok(d) => Some(d),
            Err(e) => {
                problems.push(format!("--threads 1 cross-check: {e}"));
                None
            }
        }
    } else {
        None
    };
    let digests: Vec<u64> = timed.iter().map(|t| t.pass.digest).collect();
    if let Err(e) = check_digests(&digests, other_threads) {
        problems.push(e);
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }

    let (traced, untraced): (Vec<&Timed>, Vec<&Timed>) = timed.iter().partition(|t| t.traced);
    let walls = |set: &[&Timed]| set.iter().map(|t| t.wall_s).collect::<Vec<_>>();
    let mut metrics = BTreeMap::new();
    if args.trace {
        metrics.extend(median_layers(setup_layers.iter()));
        metrics.extend(median_layers(traced.iter().map(|t| &t.pass.layers)));
        metrics.insert(
            "telemetry.trace_overhead",
            median(&walls(&traced)) / median(&walls(&untraced)),
        );
    } else {
        let rate: Vec<f64> = untraced.iter().map(|t| t.pass.work / t.wall_s).collect();
        let quality: Vec<f64> = untraced.iter().map(|t| t.pass.quality).collect();
        metrics.insert("setup_s", median(&setup_s));
        metrics.insert("pass_s", median(&walls(&untraced)));
        metrics.insert("work_per_s", median(&rate));
        metrics.insert("quality", median(&quality));
        metrics.insert("peak_rss_mb", peak_rss_mb);
    }
    let list = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "{}: seed {}, {} thread(s)\nset-up s: {}\nuntraced pass s: {}\ntraced pass s: {}",
        args.workload.name(),
        args.seed,
        args.threads,
        list(&setup_s),
        list(&walls(&untraced)),
        list(&walls(&traced)),
    );
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: timed.iter().map(|t| t.pass.attempted).sum(),
        failed: timed.iter().map(|t| t.pass.failed).sum(),
        digest: digests[0],
        metrics,
    })
}

/// Runs the `characterize` workload in a child process at
/// `--threads 1` and returns its digest.
fn digest_at_one_thread(args: &Args) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // Plain `characterize` in the child also checks that arming the
    // observatory leaves the fitted bundle unchanged.
    let out = std::process::Command::new(exe)
        .args(["--workload", Workload::Characterize.name(), "--seed"])
        .arg(args.seed.to_string())
        .args([
            "--seconds",
            "1",
            "--trace",
            "0",
            "--threads",
            "1",
            "--size",
            args.size.name(),
        ])
        .arg("--digest-only")
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let digest = stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("digest "))
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok());
    match digest {
        Some(d) if out.status.success() => Ok(d),
        _ => Err(format!(
            "child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Writes the last traced pass as a Chrome trace and a self-time table
/// under `.bench_out/`, and prints the table to stderr.
fn write_trace(args: &Args, trace: &Trace) {
    let dir = Path::new(".bench_out");
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let table = layers::self_time_table(&trace.report);
    eprintln!("{table}");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| {
            pnc_telemetry::trace::write_chrome_trace(
                dir.join(format!("{stem}.trace.json")),
                &trace.spans,
            )
        })
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.layers.txt")), &table));
    match written {
        Ok(()) => eprintln!("trace written to {}/{stem}.trace.json", dir.display()),
        Err(e) => eprintln!("warning: could not write the trace: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(&argv("--workload train --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Train);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(a.size, Size::Full);
        assert!(a.threads >= 1 && a.threads <= 2);
        assert!(Args::parse(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload train --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(Args::parse(&argv("--workload train --seed 1 --trace 0")).is_err());
        assert!(Args::parse(&argv("--workload train --seed 1 --seconds 1 --trace 0 --x")).is_err());
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let a = fnv1a(fnv1a(FNV_OFFSET, b"ab"), b"c");
        assert_eq!(a, fnv1a(FNV_OFFSET, b"abc"));
        assert_ne!(a, fnv1a(FNV_OFFSET, b"acb"));
    }
}
