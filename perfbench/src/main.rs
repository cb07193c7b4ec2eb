use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::run::{self, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <characterize|characterize-observed|train|certify> \
                 --seed <n> --seconds <s> --trace <0|1> [--threads <n>] [--size full|tiny]"
            );
            return ExitCode::from(2);
        }
    };
    pnc_parallel::ExecutorHandle::configure(args.threads);
    let outcome = match run::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let code = if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };
    if args.digest_only {
        println!("digest {:016x}", outcome.digest);
        return code;
    }
    let specs: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for s in specs {
        let v = outcome.metrics.get(s.name).copied().unwrap_or(0.0);
        println!("{:<28} {v:>14.6} {}", s.name, s.unit);
    }
    println!(
        "{:<28} {:>14.6} ({} of {} ops failed)",
        "failure_share",
        outcome.failure_share(),
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.to_json(specs));
    code
}
