//! Regenerates **Fig. 3(c)–(f) bottom**: the power behaviour of the
//! four printed activation circuits as a function of input voltage,
//! straight from the SPICE-level simulator (the data the surrogate
//! power models are trained on), plus the transfer curves (top halves).
//!
//! ```text
//! cargo run --release -p pnc-bench --bin fig3_power_curves -- --scale ci
//! ```

use pnc_bench::report::write_csv;
use pnc_bench::Scale;
use pnc_linalg::SobolSequence;
use pnc_spice::af::{input_grid, power_curve, transfer_curve};
use pnc_spice::{AfDesign, AfKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    pnc_bench::harness::configure_threads_from_args()?;
    let scale = Scale::from_args();
    let (designs_per_kind, grid_points) = match scale {
        Scale::Smoke => (2usize, 11usize),
        Scale::Ci => (5, 21),
        Scale::Full => (12, 41),
    };
    println!(
        "Fig. 3 power/transfer curves — scale {}, {} designs per AF, {} grid points",
        scale.name(),
        designs_per_kind,
        grid_points
    );
    let grid = input_grid(grid_points);

    let mut rows: Vec<Vec<String>> = Vec::new();
    for kind in AfKind::ALL {
        // Default design + Sobol-sampled designs across the space.
        let mut designs = vec![kind.default_design()];
        let bounds = kind.bounds();
        let mut sobol = SobolSequence::new(bounds.len())?;
        sobol.burn(1);
        let log_bounds: Vec<(f64, f64)> =
            bounds.iter().map(|&(lo, hi)| (lo.ln(), hi.ln())).collect();
        let samples = sobol.sample_scaled(designs_per_kind.saturating_sub(1), &log_bounds);
        for i in 0..samples.rows() {
            let q: Vec<f64> = samples.row_slice(i).iter().map(|&x| x.exp()).collect();
            designs.push(AfDesign::new(kind, q)?);
        }

        for (d_idx, design) in designs.iter().enumerate() {
            let power = match power_curve(design, &grid) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("[fig3] {} design {d_idx}: {e}; skipped", kind.name());
                    continue;
                }
            };
            let transfer = transfer_curve(design, &grid)?;
            for (g, (&v, (&p, &t))) in grid
                .iter()
                .zip(power.iter().zip(transfer.iter()))
                .enumerate()
            {
                let _ = g;
                rows.push(vec![
                    kind.name().to_string(),
                    d_idx.to_string(),
                    format!("{v:.4}"),
                    format!("{:.6e}", p * 1e3), // mW
                    format!("{t:.5}"),
                ]);
            }

            if d_idx == 0 {
                // Terminal sparkline of the default design's power curve.
                let pmax = power.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
                let bars: String = power
                    .iter()
                    .map(|&p| {
                        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
                        let idx = ((p / pmax) * 7.0).round() as usize;
                        LEVELS[idx.min(7)]
                    })
                    .collect();
                println!(
                    "{:>15}  power(V_in ∈ [−1, 1]): {}  (peak {:.3} µW)",
                    kind.name(),
                    bars,
                    pmax * 1e6
                );
            }
        }
    }

    // Qualitative signature checks mirroring the paper's description.
    println!("\nSignature checks (paper Sec. III-A):");
    let check = |name: &str, ok: bool| {
        println!("  [{}] {}", if ok { "ok" } else { "??" }, name);
    };
    let p_relu = power_curve(&AfKind::PRelu.default_design(), &grid)?;
    check(
        "p-ReLU power rises smoothly with input (unbounded)",
        p_relu.last() >= p_relu.first()
            && p_relu.iter().cloned().fold(0.0, f64::max) == *p_relu.last().ok_or("empty grid")?,
    );
    let p_sig = power_curve(&AfKind::PSigmoid.default_design(), &grid)?;
    let left: f64 = p_sig[..grid_points / 3].iter().sum();
    let right: f64 = p_sig[2 * grid_points / 3..].iter().sum();
    check(
        "p-sigmoid draws more current at negative voltages",
        left > right,
    );
    let p_clip = power_curve(&AfKind::PClippedRelu.default_design(), &grid)?;
    let slopes: Vec<f64> = p_clip.windows(2).map(|w| w[1] - w[0]).collect();
    let max_slope = slopes.iter().cloned().fold(0.0f64, f64::max);
    let final_slope = *slopes.last().ok_or("empty grid")?;
    check(
        "p-Clipped_ReLU power spikes near threshold then stabilizes",
        final_slope < 0.3 * max_slope,
    );

    let path = write_csv(
        "fig3_power_curves",
        &["af", "design_index", "v_in", "power_mw", "v_out"],
        &rows,
    );
    println!("\nWrote {}", path.display());
    Ok(())
}
