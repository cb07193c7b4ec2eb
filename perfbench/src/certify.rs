//! `certify`: export a Pendigits network trained at 60 % of `P_max`,
//! solve the full circuit on every test row, one by one, and run a
//! Monte Carlo of perturbed prints over a fixed subset of those rows.

use crate::layers::Layers;
use crate::run::{fidelity, fnv1a, Args, Bench, Pass, Size, FNV_OFFSET};
use crate::train::{pipeline, prepare, ptanh_bundle, Counting, Prepared, ROW_CAP};
use pnc_core::export::export_network;
use pnc_core::PrintedNetwork;
use pnc_datasets::DatasetId;
use pnc_linalg::Matrix;
use pnc_spice::variation::VariationModel;
use pnc_telemetry::Telemetry;

/// Seed the Pendigits network is trained with. It is fixed, so every
/// workload seed certifies the same circuit on the same rows; the
/// workload seed draws only the Monte Carlo perturbations.
pub const TRAIN_SEED: u64 = 1;
/// The Monte Carlo runs on the first this-many test rows.
const MC_ROWS: usize = 64;
/// Perturbed prints per pass: four per executor thread.
const MC_PRINTS: usize = 8;

/// The certification workload.
pub struct Certify;

/// Inputs of the certification workload.
pub struct CertifyInputs {
    net: PrintedNetwork,
    pendigits: Prepared,
    mc_x: Matrix,
    mc_y: Vec<usize>,
    seed: u64,
}

/// Index of the largest value; the first one wins ties, as in
/// `ExportedNetwork::classify`.
fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (k, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = k;
        }
    }
    best
}

impl Bench for Certify {
    type Inputs = CertifyInputs;

    /// Fits p-tanh, prepares Pendigits, trains it with the `train`
    /// workload's pipeline and takes the Monte Carlo rows.
    fn setup(&self, args: &Args, layers: &mut Layers) -> Result<CertifyInputs, String> {
        let fid = fidelity(args.size, TRAIN_SEED);
        let bundle = ptanh_bundle(&fid, layers)?;
        let cap = if args.size == Size::Tiny {
            100
        } else {
            ROW_CAP
        };
        let pendigits = prepare(&[DatasetId::Pendigits], TRAIN_SEED, cap, layers)
            .pop()
            .expect("one dataset prepared");
        let (net, _) = pipeline(
            &pendigits,
            &bundle,
            &fid,
            TRAIN_SEED,
            &mut Layers::default(),
            &mut Counting::default(),
        )
        .map_err(|e| format!("training Pendigits: {e}"))?;
        let (x, y) = pendigits.test();
        let mc: Vec<usize> = (0..MC_ROWS.min(x.rows())).collect();
        let (mc_x, mc_y) = (x.select_rows(&mc), y[..mc.len()].to_vec());
        Ok(CertifyInputs {
            net,
            pendigits,
            mc_x,
            mc_y,
            seed: args.seed,
        })
    }

    fn pass(&self, inputs: &CertifyInputs, tel: &Telemetry) -> Pass {
        let prof = tel.profiler();
        let mut pass = Pass {
            digest: FNV_OFFSET,
            ..Pass::default()
        };
        let exported = match pass
            .layers
            .time(prof, "core.export_ms", || export_network(&inputs.net))
        {
            Ok(e) => e,
            Err(e) => {
                pass.problems.push(format!("export failed: {e}"));
                return pass;
            }
        };
        let (x, y) = inputs.pendigits.test();
        let predicted = match pass
            .layers
            .time(prof, "core.predict_ms", || inputs.net.predict(x))
        {
            Ok(logits) => logits,
            Err(e) => {
                pass.problems.push(format!("predict failed: {e}"));
                return pass;
            }
        };

        // Row by row, as `ExportedNetwork::classify` does, so a row whose
        // DC solve fails is one failed op.
        let solved: Vec<Option<usize>> = pass.layers.time(prof, "core.simulate_ms", || {
            (0..x.rows())
                .map(|i| exported.simulate(x.row_slice(i)).ok().map(|v| argmax(&v)))
                .collect()
        });
        let mc = pass.layers.time(prof, "core.monte_carlo_ms", || {
            exported.monte_carlo(
                &inputs.mc_x,
                &inputs.mc_y,
                &VariationModel::tight(),
                MC_PRINTS,
                inputs.seed,
            )
        });

        let rows = solved.len();
        let (mut correct, mut agree) = (0usize, 0usize);
        for (i, class) in solved.into_iter().enumerate() {
            if class.is_none() {
                pass.failed += 1;
                pass.problems.push(format!("row {i}: DC solve failed"));
            }
            correct += usize::from(class == Some(y[i]));
            agree += usize::from(class == Some(argmax(predicted.row_slice(i))));
            let code = class.map_or(u64::MAX, |c| c as u64);
            pass.digest = fnv1a(pass.digest, &code.to_le_bytes());
        }
        let failed_prints = mc.accuracies.iter().filter(|a| a.is_nan()).count();
        if failed_prints > 0 {
            pass.failed += failed_prints as u64;
            pass.problems.push(format!(
                "{failed_prints} Monte Carlo print(s) failed to solve"
            ));
        }
        pass.attempted = (rows + MC_PRINTS) as u64;
        for v in mc.accuracies.iter().chain(&mc.powers_watts) {
            pass.digest = fnv1a(pass.digest, &v.to_bits().to_le_bytes());
        }

        pass.quality = correct as f64 / rows as f64;
        pass.layers
            .add("core.spice_agreement", agree as f64 / rows as f64);
        pass.work = pnc_spice::stats::snapshot().solves as f64;
        pass
    }
}
