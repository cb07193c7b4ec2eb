//! Sobol-sampled SPICE characterization data for activation circuits.
//!
//! Implements the paper's data-generation step: "We sample 10,000
//! circuit configurations using a Sobol sequence and simulate their
//! power consumption using SPICE" (Sec. III-A). Failed DC solves are
//! tolerated up to a small fraction (they are rare with the smooth nEGT
//! model but can occur at extreme design corners).

use crate::{atlas, SurrogateError};
use pnc_linalg::{Matrix, SobolSequence};
use pnc_parallel::ExecutorHandle;
use pnc_spice::af::{input_grid, sweep_design};
use pnc_spice::{observe, AfDesign, AfKind};
use pnc_telemetry::{Event, Level, Telemetry};

/// Block size of the block-synchronous warm-start schedule: points in
/// block *b* warm-start from the coordinate-nearest solved point in
/// blocks `< b`. The block boundary — not thread scheduling — decides
/// which donors are visible, so characterization outputs are
/// bit-identical for any `--threads`.
const WARM_BLOCK: usize = 32;

/// Nearest of `points` to `q` by Euclidean distance: `(position,
/// distance)`, ties to the earliest position, `None` when `points` is
/// empty. Callers query before inserting and pass points in ascending
/// Sobol index order, so the result is a pure function of indices. A
/// linear scan costs a few flops per point scanned, which at
/// characterization sizes undercuts a spatial index (DESIGN.md §15).
fn nearest<'a>(points: impl IntoIterator<Item = &'a [f64]>, q: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, p) in points.into_iter().enumerate() {
        let d = p
            .iter()
            .zip(q)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        if best.is_none_or(|(_, bd)| d.total_cmp(&bd).is_lt()) {
            best = Some((i, d));
        }
    }
    best
}

/// Emits a `sobol_progress` debug event roughly every tenth of the
/// sweep plus at the end, so long characterizations are observable.
fn emit_progress(
    tel: &Telemetry,
    target: &'static str,
    kind: AfKind,
    i: usize,
    n: usize,
    failed: usize,
) {
    let stride = (n / 10).max(1);
    if (i + 1).is_multiple_of(stride) || i + 1 == n {
        tel.emit(|| {
            Event::new("sobol_progress", Level::Debug)
                .with_str("target", target)
                .with_str("kind", kind.name())
                .with_u64("done", (i + 1) as u64)
                .with_u64("total", n as u64)
                .with_u64("failed", failed as u64)
        });
    }
}

/// Shared block-synchronous characterization driver: samples `n`
/// Sobol design points for `kind` and simulates each.
///
/// Resistances and geometry are sampled in log space: the feasible
/// ranges span decades and power is roughly log-uniform in them.
/// Points are processed in [`WARM_BLOCK`]-sized blocks: donors for
/// every point of a block are chosen *before* the block's parallel
/// fan-out, from Sobol coordinates alone, among successful points of
/// strictly earlier blocks (coordinate-nearest in log space, ties to
/// the smallest index). Donor states then warm-start each grid solve
/// of the point from the matching grid index. Because the schedule
/// never depends on intra-block completion order, datasets stay
/// bit-identical for any thread count; the compaction pass runs
/// sequentially in index order.
///
/// `simulate` returns `(value, per-grid-point solved states)` or
/// `None` on failure. Streams `sobol_progress` debug events (~10 per
/// sweep) and a final `characterization` info event to `tel`, under a
/// `sobol_characterization` span. Returns the kept design points (one
/// per row, `kept × q_dim`) and their values, in index order.
///
/// # Errors
///
/// Returns [`SurrogateError::SimulationFailed`] if more than 10 % of
/// the samples fail to converge, and propagates dimension errors from
/// the Sobol generator as `NotEnoughData` (cannot happen for the
/// built-in kinds).
fn characterize_blocked<T: Send>(
    target: &'static str,
    kind: AfKind,
    n: usize,
    tel: &Telemetry,
    simulate: &(impl Fn(&AfDesign, Option<&[Vec<f64>]>) -> Option<(T, Vec<Vec<f64>>)> + Sync),
) -> Result<(Matrix, Vec<T>), SurrogateError> {
    let mut prof_scope = tel.profiler().scope("sobol_characterization");
    prof_scope.set_str("target", target);
    prof_scope.set_u64("samples", n as u64);
    let bounds = kind.bounds();
    let mut sobol =
        SobolSequence::new(bounds.len()).map_err(|_| SurrogateError::NotEnoughData {
            available: 0,
            required: n,
        })?;
    sobol.burn(1); // drop the all-zero origin point
    let log_bounds: Vec<(f64, f64)> = bounds.iter().map(|&(lo, hi)| (lo.ln(), hi.ln())).collect();
    let raw = sobol.sample_scaled(n, &log_bounds);

    let fanout_parent = tel.profiler().current_span_id();
    let atlas_on = atlas::is_enabled();

    // Design vectors and their log-space coordinates — pure functions
    // of the Sobol rows.
    let qs: Vec<Vec<f64>> = (0..n)
        .map(|i| raw.row_slice(i).iter().map(|&x| x.exp()).collect())
        .collect();
    let lnqs: Vec<Vec<f64>> = qs
        .iter()
        .map(|q| q.iter().map(|&v| v.ln()).collect())
        .collect();

    // Published donors: Sobol indices (ascending) and, in step, their
    // solved grid states.
    let mut donor_ids: Vec<usize> = Vec::new();
    let mut donor_states: Vec<Vec<Vec<f64>>> = Vec::new();

    let mut designs: Vec<f64> = Vec::with_capacity(n * bounds.len());
    let mut values: Vec<T> = Vec::with_capacity(n);
    let mut failed = 0usize;
    for start in (0..n).step_by(WARM_BLOCK) {
        let end = (start + WARM_BLOCK).min(n);
        let block: Vec<(usize, Option<usize>)> = (start..end)
            .map(|i| {
                let donors = donor_ids.iter().map(|&j| lnqs[j].as_slice());
                (i, nearest(donors, &lnqs[i]).map(|(d, _)| d))
            })
            .collect();

        let results = ExecutorHandle::get().par_map(&block, |_, &(i, donor)| {
            let design =
                // lint: allow(L001, reason = "Sobol points are scaled into the design bounds before exponentiation")
                AfDesign::new(kind, qs[i].clone()).expect("Sobol points lie inside the design bounds");
            let _point = tel.profiler().scope_under(fanout_parent, "characterize_point");
            observe::point_window_reset();
            let r = simulate(&design, donor.map(|d| donor_states[d].as_slice()));
            (r, observe::point_window_take())
        });

        // Compaction in index order; this block's successes become
        // donors for later blocks only (never for siblings).
        for (i, (res, window)) in (start..end).zip(results) {
            if atlas_on {
                let earlier = lnqs[..i].iter().map(Vec::as_slice);
                let nn = nearest(earlier, &lnqs[i]).map_or(-1.0, |(_, d)| d);
                atlas::record(atlas::AtlasPoint::from_window(
                    i as u64,
                    target,
                    kind.name(),
                    qs[i].clone(),
                    &window,
                    nn,
                    res.is_none(),
                ));
            }
            match res {
                Some((value, states)) => {
                    designs.extend_from_slice(&qs[i]);
                    values.push(value);
                    donor_ids.push(i);
                    donor_states.push(states);
                }
                None => failed += 1,
            }
            emit_progress(tel, target, kind, i, n, failed);
        }
    }
    let kept = values.len();
    tel.emit(|| {
        Event::new("characterization", Level::Info)
            .with_str("target", target)
            .with_str("kind", kind.name())
            .with_u64("kept", kept as u64)
            .with_u64("failed", failed as u64)
    });
    if failed * 10 > n {
        return Err(SurrogateError::SimulationFailed {
            failed,
            requested: n,
        });
    }
    Ok((Matrix::from_vec(kept, bounds.len(), designs), values))
}

/// Characterization dataset for one activation kind: design points and
/// their simulated mean power.
#[derive(Debug, Clone)]
pub struct AfPowerDataset {
    /// Activation kind that was characterized.
    pub kind: AfKind,
    /// Sampled design points, one per row (`n × q_dim`).
    pub designs: Matrix,
    /// Simulated mean power per design, in watts.
    pub power: Vec<f64>,
}

impl AfPowerDataset {
    /// Generates `n` Sobol design points for `kind` and simulates each
    /// with a `grid_points`-point input sweep, streaming progress and a
    /// `characterization` summary to `tel`.
    ///
    /// # Errors
    ///
    /// Returns [`SurrogateError::SimulationFailed`] if more than 10 % of
    /// the samples fail to converge, and propagates dimension errors
    /// from the Sobol generator as `NotEnoughData` (cannot happen for
    /// the built-in kinds).
    pub fn generate(
        kind: AfKind,
        n: usize,
        grid_points: usize,
        tel: &Telemetry,
    ) -> Result<Self, SurrogateError> {
        let inputs = input_grid(grid_points);
        let simulate = |design: &AfDesign, donor: Option<&[Vec<f64>]>| {
            let sweep = sweep_design(design, &inputs, donor, tel).ok()?;
            Some((sweep.mean_power().ok()?, sweep.states()))
        };
        let (designs, power) = characterize_blocked("power", kind, n, tel, &simulate)?;
        Ok(AfPowerDataset {
            kind,
            designs,
            power,
        })
    }

    /// Number of usable samples.
    pub fn len(&self) -> usize {
        self.power.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.power.is_empty()
    }

    /// Splits into `(train, validation)` by taking every `k`-th sample
    /// for validation (Sobol points are space-filling, so striding keeps
    /// both splits representative).
    pub fn split(&self, k: usize) -> (AfPowerDataset, AfPowerDataset) {
        let mut tr_rows = Vec::new();
        let mut va_rows = Vec::new();
        for i in 0..self.len() {
            if k > 0 && i % k == 0 {
                va_rows.push(i);
            } else {
                tr_rows.push(i);
            }
        }
        let pick = |rows: &[usize]| AfPowerDataset {
            kind: self.kind,
            designs: self.designs.select_rows(rows),
            power: rows.iter().map(|&i| self.power[i]).collect(),
        };
        (pick(&tr_rows), pick(&va_rows))
    }
}

/// Characterization dataset for transfer curves: designs and the output
/// voltage at each grid input.
#[derive(Debug, Clone)]
pub struct AfTransferDataset {
    /// Activation kind that was characterized.
    pub kind: AfKind,
    /// Sampled design points (`n × q_dim`).
    pub designs: Matrix,
    /// Input voltage grid shared by all curves.
    pub inputs: Vec<f64>,
    /// One simulated output curve per design (`n × grid`).
    pub outputs: Matrix,
}

impl AfTransferDataset {
    /// Generates `n` Sobol designs and sweeps each over a
    /// `grid_points`-point input grid, streaming progress and a
    /// `characterization` summary to `tel`.
    ///
    /// # Errors
    ///
    /// Same failure policy as [`AfPowerDataset::generate`].
    pub fn generate(
        kind: AfKind,
        n: usize,
        grid_points: usize,
        tel: &Telemetry,
    ) -> Result<Self, SurrogateError> {
        let inputs = input_grid(grid_points);
        let simulate = |design: &AfDesign, donor: Option<&[Vec<f64>]>| {
            let sweep = sweep_design(design, &inputs, donor, tel).ok()?;
            Some((sweep.transfer(), sweep.states()))
        };
        let (designs, curves) = characterize_blocked("transfer", kind, n, tel, &simulate)?;
        let outputs = Matrix::from_vec(curves.len(), grid_points, curves.concat());
        Ok(AfTransferDataset {
            kind,
            designs,
            inputs,
            outputs,
        })
    }

    /// Number of usable samples.
    pub fn len(&self) -> usize {
        self.designs.rows()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.designs.rows() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_power_dataset() {
        let ds = AfPowerDataset::generate(AfKind::PRelu, 24, 7, &Telemetry::disabled()).unwrap();
        assert!(ds.len() >= 22, "too many failures: {}", ds.len());
        assert_eq!(ds.designs.cols(), 3);
        assert!(ds.power.iter().all(|&p| p > 0.0 && p < 1e-2));
    }

    #[test]
    fn power_varies_across_designs() {
        let ds = AfPowerDataset::generate(AfKind::PTanh, 16, 5, &Telemetry::disabled()).unwrap();
        let max = ds.power.iter().cloned().fold(0.0f64, f64::max);
        let min = ds.power.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 3.0, "power spread too small: {min}..{max}");
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let ds = AfPowerDataset::generate(AfKind::PRelu, 20, 5, &Telemetry::disabled()).unwrap();
        let (tr, va) = ds.split(5);
        assert_eq!(tr.len() + va.len(), ds.len());
        assert!(va.len() >= ds.len() / 5);
    }

    #[test]
    fn generates_transfer_dataset() {
        let ds =
            AfTransferDataset::generate(AfKind::PSigmoid, 8, 9, &Telemetry::disabled()).unwrap();
        assert!(ds.len() >= 7);
        assert_eq!(ds.outputs.cols(), 9);
        assert_eq!(ds.inputs.len(), 9);
        // All curves stay within the rails.
        assert!(ds.outputs.min() >= -1.2 && ds.outputs.max() <= 1.2);
    }

    #[test]
    fn traced_generation_emits_progress_and_summary() {
        use pnc_telemetry::MemorySink;
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::with_sink(sink.clone());
        let ds = AfPowerDataset::generate(AfKind::PRelu, 20, 5, &tel).unwrap();

        let progress = sink.events_named("sobol_progress");
        assert!(!progress.is_empty(), "expected sobol_progress events");
        let last = progress.last().unwrap();
        assert_eq!(last.get_u64("done"), Some(20));
        assert_eq!(last.get_u64("total"), Some(20));
        assert_eq!(last.get_str("kind"), Some("p-ReLU"));

        let summary = sink.events_named("characterization");
        assert_eq!(summary.len(), 1);
        assert_eq!(summary[0].get_u64("kept"), Some(ds.len() as u64));
        assert_eq!(summary[0].get_str("target"), Some("power"));
    }

    #[test]
    fn atlas_records_one_point_per_sobol_sample() {
        // Other tests in this binary may run generations concurrently
        // while the collector is enabled, so assertions filter down to
        // this test's own (target, kind) stream.
        atlas::enable();
        let n = 12;
        let ds = AfPowerDataset::generate(AfKind::PSigmoid, n, 5, &Telemetry::disabled()).unwrap();
        atlas::disable();
        assert!(!ds.is_empty());
        let points: Vec<_> = atlas::take()
            .into_iter()
            .filter(|p| p.target == "power" && p.kind == AfKind::PSigmoid.name())
            .collect();
        // Concurrent tests may have run their own sweeps while the
        // collector was live, so the stream can hold interleaved runs;
        // invariants below hold per point and per index regardless.
        assert!(points.len() >= n, "got {} points", points.len());
        for i in 0..n as u64 {
            assert!(points.iter().any(|p| p.index == i), "index {i} missing");
        }
        // The Sobol sequence fixes each index's design, so every sweep
        // of this kind records the same q at the same index.
        let top = points.iter().map(|p| p.index).max().unwrap();
        let mut lnq_by_index: Vec<Vec<f64>> = Vec::new();
        for i in 0..=top {
            let q = &points.iter().find(|p| p.index == i).unwrap().q;
            assert!(points.iter().filter(|p| p.index == i).all(|p| &p.q == q));
            lnq_by_index.push(q.iter().map(|v| v.ln()).collect());
        }
        for p in &points {
            assert!(p.solves >= 1);
            assert!(p.newton_iterations >= p.solves);
            assert_eq!(p.q.len(), AfKind::PSigmoid.bounds().len());
            // Exact nearest log-space distance over the sweep's lower
            // indices; a sweep's first point has no such neighbor.
            let lnq: Vec<f64> = p.q.iter().map(|v| v.ln()).collect();
            let want = lnq_by_index[..p.index as usize]
                .iter()
                .map(|o| {
                    o.iter()
                        .zip(&lnq)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt()
                })
                .fold(None, |m: Option<f64>, d| Some(m.map_or(d, |m| m.min(d))))
                .unwrap_or(-1.0);
            assert_eq!(p.nn_distance.to_bits(), want.to_bits(), "index {}", p.index);
        }
        // All points of one activation kind share a sparsity pattern.
        let fp = points[0].fingerprint;
        assert!(fp != 0);
        assert!(points.iter().all(|p| p.fingerprint == fp));
    }

    #[test]
    fn nearest_of_nothing_is_none() {
        assert_eq!(nearest(std::iter::empty(), &[0.0, 0.0]), None);
    }

    #[test]
    fn nearest_ties_prefer_the_smallest_index() {
        let points = [vec![3.0, 4.0], vec![1.0, 0.0], vec![-1.0, 0.0]];
        // Indices 1 and 2 are equidistant from the origin.
        let got = nearest(points.iter().map(Vec::as_slice), &[0.0, 0.0]);
        assert_eq!(got, Some((1, 1.0)));
        let got = nearest(points.iter().map(Vec::as_slice), &[0.0, 1.0]);
        assert_eq!(got.map(|(i, _)| i), Some(1));
    }
}
