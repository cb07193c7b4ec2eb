//! Criterion micro-benchmarks of the computational kernels every
//! experiment rests on: dense matmul (square and the workloads' skinny
//! shapes), autodiff forward/backward, the SPICE Newton solver,
//! surrogate inference and the soft device counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pnc_autodiff::Tape;
use pnc_core::activation::{LearnableActivation, SurrogateFidelity};
use pnc_core::count::{soft_af_count, soft_neg_count, CountConfig};
use pnc_core::crossbar;
use pnc_linalg::{rng as lrng, Matrix};
use pnc_spice::af::{mean_power, transfer_curve};
use pnc_spice::dc::solve_dc;
use pnc_spice::netlist::Circuit;
use pnc_spice::AfKind;
use pnc_surrogate::NegationModel;
use pnc_telemetry::Telemetry;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/matmul");
    for &n in &[16usize, 64, 128] {
        let mut rng = lrng::seeded(1);
        let a = lrng::normal_matrix(&mut rng, n, n, 0.0, 1.0);
        let b = lrng::normal_matrix(&mut rng, n, n, 0.0, 1.0);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

/// The skinny products the workloads run, where a register tile pays
/// off most: a product with three output columns cannot amortize a
/// row-at-a-time inner loop.
fn bench_skinny(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/skinny");
    let mut rng = lrng::seeded(4);
    let mut normal = |r, c| lrng::normal_matrix(&mut rng, r, c, 0.0, 1.0);
    // Pendigits validation crossbar in certify: 2198 rows through 18 → 3.
    let (x, w) = (normal(2198, 18), normal(18, 3));
    group.bench_function("matmul_2198x18x3", |bench| {
        bench.iter(|| std::hint::black_box(x.matmul(&w)));
    });
    // Crossbar weight gradient: 400 training rows, 18 inputs, 3 outputs.
    let (x, g) = (normal(400, 18), normal(400, 3));
    group.bench_function("t_matmul_400x18t_400x3", |bench| {
        bench.iter(|| std::hint::black_box(x.t_matmul(&g)));
    });
    // Transfer-coefficient MLP hidden layer (48 rows, width 24) and its
    // backward to the layer input.
    let (h, w) = (normal(48, 24), normal(24, 24));
    group.bench_function("matmul_48x24x24", |bench| {
        bench.iter(|| std::hint::black_box(h.matmul(&w)));
    });
    group.bench_function("matmul_t_48x24_24x24t", |bench| {
        bench.iter(|| std::hint::black_box(h.matmul_t(&w)));
    });
    // Iris crossbar: 90 rows through 6 → 3.
    let (x, w) = (normal(90, 6), normal(6, 3));
    group.bench_function("matmul_90x6x3", |bench| {
        bench.iter(|| std::hint::black_box(x.matmul(&w)));
    });
    group.finish();
}

fn bench_autodiff_step(c: &mut Criterion) {
    // Forward + backward of a crossbar + soft counts — the core of one
    // training epoch (without the activation surrogate MLP).
    let mut rng = lrng::seeded(2);
    let x = lrng::uniform_matrix(&mut rng, 90, 6, -0.8, 0.8);
    let theta = lrng::normal_matrix(&mut rng, 8, 3, 0.0, 0.3);
    let (x_aug, x_neg) = crossbar::encode(&x, &NegationModel::ideal(1e-5));
    let cfg = CountConfig::default();

    c.bench_function("autodiff/crossbar_fwd_bwd", |bench| {
        bench.iter(|| {
            let mut tape = Tape::new();
            let xa = tape.constant(x_aug.clone());
            let xn = tape.constant(x_neg.clone());
            let tv = tape.parameter(theta.clone());
            let out = crossbar::forward(&mut tape, xa, xn, tv, None);
            let p = crossbar::power(&mut tape, &out);
            let n_af = soft_af_count(&mut tape, tv, &cfg);
            let n_neg = soft_neg_count(&mut tape, tv, 6, &cfg);
            let s1 = tape.add(p, n_af);
            let s2 = tape.add(s1, n_neg);
            let sq = tape.square(out.vz);
            let acc = tape.sum_all(sq);
            let loss = tape.add(s2, acc);
            let grads = tape.backward(loss);
            std::hint::black_box(grads.get(tv).map(|g| g.sum()));
        });
    });
}

fn bench_spice(c: &mut Criterion) {
    let mut group = c.benchmark_group("spice");
    // Single nonlinear DC solve (inverter).
    group.bench_function("dc_inverter", |bench| {
        let mut circuit = Circuit::new();
        let vdd = circuit.node("vdd");
        let vin = circuit.node("in");
        let out = circuit.node("out");
        circuit.vsource(vdd, Circuit::GROUND, 1.0);
        circuit.vsource(vin, Circuit::GROUND, 0.6);
        circuit.resistor(vdd, out, 100_000.0);
        circuit.egt(out, vin, Circuit::GROUND, 2e-4, 2e-5);
        bench.iter(|| std::hint::black_box(solve_dc(&circuit).unwrap().voltage(out)));
    });
    // Full p-tanh transfer sweep (the surrogate-data inner loop).
    group.bench_function("ptanh_transfer_21pt", |bench| {
        let d = AfKind::PTanh.default_design();
        let grid: Vec<f64> = (0..21).map(|i| -1.0 + i as f64 / 10.0).collect();
        bench.iter(|| std::hint::black_box(transfer_curve(&d, &grid).unwrap()));
    });
    group.bench_function("ptanh_mean_power_11pt", |bench| {
        let d = AfKind::PTanh.default_design();
        bench.iter(|| std::hint::black_box(mean_power(&d, 11).unwrap()));
    });
    group.finish();
}

fn bench_surrogates(c: &mut Criterion) {
    // Shared smoke-fidelity activation (fit once).
    let act = LearnableActivation::fit(
        AfKind::PTanh,
        &SurrogateFidelity::smoke(),
        &Telemetry::disabled(),
    )
    .expect("surrogate fit");
    let d = AfKind::PTanh.default_design();
    let mut group = c.benchmark_group("surrogate");
    group.bench_function("power_predict", |bench| {
        bench.iter(|| std::hint::black_box(act.power_surrogate().predict(d.q())));
    });
    group.bench_function("power_predict_on_tape_with_grad", |bench| {
        let q = Matrix::from_vec(1, d.q().len(), d.q().to_vec());
        bench.iter(|| {
            let mut tape = Tape::new();
            let qv = tape.parameter(q.clone());
            let p = act.power_surrogate().predict_on_tape(&mut tape, qv);
            let grads = tape.backward(p);
            std::hint::black_box(grads.get(qv).map(|g| g.sum()));
        });
    });
    group.bench_function("transfer_eval_90x3", |bench| {
        let mut rng = lrng::seeded(3);
        let v = lrng::uniform_matrix(&mut rng, 90, 3, -0.8, 0.8);
        bench.iter(|| std::hint::black_box(act.transfer().eval(&v, d.q())));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_skinny,
    bench_autodiff_step,
    bench_spice,
    bench_surrogates
);
criterion_main!(benches);
