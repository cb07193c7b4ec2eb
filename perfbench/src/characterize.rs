//! `characterize` and `characterize-observed`: fit the p-ReLU and the
//! p-tanh surrogate bundle at smoke fidelity.

use crate::layers::Layers;
use crate::run::{fidelity, fnv1a, Args, Bench, Pass, FNV_OFFSET};
use pnc_bench::harness::{fit_bundle, fit_bundle_traced, AfBundle};
use pnc_spice::AfKind;
use pnc_surrogate::persist::{power_to_string, transfer_to_string};
use pnc_telemetry::Telemetry;
use pnc_train::experiment::ExperimentFidelity;

/// The kinds one pass characterizes, with the layer each is timed as:
/// p-tanh's six design parameters carry the warm-start neighbour
/// search, p-ReLU's three are the control that does not.
const KINDS: [(AfKind, &str); 2] = [
    (AfKind::PRelu, "surrogate.fit_ms.p-relu"),
    (AfKind::PTanh, "surrogate.fit_ms.p-tanh"),
];

/// Digest of a fitted bundle through its persisted form.
pub fn bundle_digest(hash: u64, bundle: &AfBundle) -> u64 {
    let h = fnv1a(
        hash,
        power_to_string(bundle.activation.power_surrogate()).as_bytes(),
    );
    let h = fnv1a(
        h,
        transfer_to_string(bundle.activation.transfer()).as_bytes(),
    );
    fnv1a(h, format!("{:?}", bundle.negation).as_bytes())
}

/// The characterization workloads.
pub struct Characterize {
    /// Arm the solver observatory and the hardness atlas the way
    /// `--solver-traces` does.
    pub observed: bool,
}

impl Bench for Characterize {
    type Inputs = ExperimentFidelity;

    /// Arms the observatory when asked, then fits the p-ReLU bundle
    /// once, untimed, so process-wide caches are warm before the
    /// first pass.
    fn setup(&self, args: &Args, _layers: &mut Layers) -> Result<ExperimentFidelity, String> {
        if self.observed {
            pnc_spice::observe::reset();
            pnc_spice::observe::enable(args.seed, pnc_spice::observe::DEFAULT_RING_CAPACITY);
            pnc_surrogate::atlas::enable();
        }
        let fid = fidelity(args.size, args.seed);
        fit_bundle(AfKind::PRelu, &fid).map_err(|e| e.to_string())?;
        Ok(fid)
    }

    fn pass(&self, fid: &ExperimentFidelity, tel: &Telemetry) -> Pass {
        let mut pass = Pass {
            digest: FNV_OFFSET,
            ..Pass::default()
        };
        let mut r2 = Vec::with_capacity(KINDS.len());
        for (kind, layer) in KINDS {
            let fitted = pass
                .layers
                .time(tel.profiler(), layer, || fit_bundle_traced(kind, fid, tel));
            match fitted {
                Ok(bundle) => {
                    pass.digest = bundle_digest(pass.digest, &bundle);
                    r2.push(bundle.activation.power_surrogate().validation_r2());
                }
                Err(e) => pass.problems.push(format!("{}: {e}", kind.name())),
            }
        }
        // The solver counters were zeroed before this pass.
        let stats = pnc_spice::stats::snapshot();
        let (solves, failures) = (stats.solves, stats.failures);
        pass.work = solves as f64;
        pass.attempted = solves;
        pass.failed = failures;
        if failures > 0 {
            pass.problems
                .push(format!("{failures} DC solve(s) did not converge"));
        }
        pass.quality = r2.iter().sum::<f64>() / KINDS.len() as f64;
        pass
    }

    fn cross_check_threads(&self) -> bool {
        true
    }
}
