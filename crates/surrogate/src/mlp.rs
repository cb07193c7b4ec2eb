//! Multi-layer perceptron regressor.
//!
//! The paper fits a "15-layer ANN" per activation function as the power
//! surrogate. [`Mlp`] reproduces that: a configurable stack of dense
//! layers with tanh hidden activations, trained by Adam on mean-squared
//! error. Training computes each batch's forward and backward directly
//! on the dense products, with the operations an autodiff tape would
//! record. The trained network can be replayed on an autodiff [`Tape`]
//! with its weights as constants, which is how the power model stays
//! differentiable with respect to the *circuit design vector* during
//! pNC training while its own weights stay frozen.

use pnc_autodiff::{Adam, Optimizer, Tape, Var};
use pnc_linalg::{rng as lrng, Matrix};
use pnc_telemetry::{Event, Level, Telemetry};
use rand::rngs::StdRng;
use rand::Rng;

/// Hyperparameters for [`Mlp::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden layer widths. The paper's 15-layer network corresponds to
    /// 14 hidden entries; the default is a lighter stack that reaches
    /// the same validation error on our simulator data in a fraction of
    /// the time. Use [`MlpConfig::paper_depth`] for the literal depth.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    // lint: dimensionless
    pub lr: f64,
    /// Training epochs: passes over the data, at any batch size.
    pub epochs: usize,
    /// Mini-batch size; `0` means full batch.
    pub batch_size: usize,
    /// Seed for weight initialization and batch shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: vec![32, 32, 32],
            lr: 3e-3,
            epochs: 400,
            batch_size: 0,
            seed: 7,
        }
    }
}

impl MlpConfig {
    /// The paper's literal depth: 15 layers (14 hidden × width 24).
    pub fn paper_depth() -> Self {
        MlpConfig {
            hidden: vec![24; 14],
            lr: 1e-3,
            epochs: 800,
            ..MlpConfig::default()
        }
    }
}

/// Training summary returned by [`Mlp::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Mean-squared error of the final epoch: the row-weighted mean of
    /// its batches' losses, each taken before that batch's update.
    // lint: dimensionless
    pub final_train_mse: f64,
    /// Epochs actually run.
    pub epochs: usize,
}

/// A dense feed-forward regressor with tanh hidden activations and a
/// linear output layer.
#[derive(Debug, Clone)]
pub struct Mlp {
    weights: Vec<Matrix>,
    biases: Vec<Matrix>,
}

impl Mlp {
    /// Creates an untrained MLP with He-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `output_dim` is zero.
    pub fn new(input_dim: usize, hidden: &[usize], output_dim: usize, rng: &mut StdRng) -> Self {
        assert!(input_dim > 0 && output_dim > 0, "zero-width MLP");
        let mut dims = vec![input_dim];
        dims.extend_from_slice(hidden);
        dims.push(output_dim);
        let mut weights = Vec::with_capacity(dims.len() - 1);
        let mut biases = Vec::with_capacity(dims.len() - 1);
        for w in dims.windows(2) {
            weights.push(lrng::he_init(rng, w[0], w[1], w[0]));
            biases.push(Matrix::zeros(1, w[1]));
        }
        Mlp { weights, biases }
    }

    /// Number of dense layers (hidden + output).
    pub fn layer_count(&self) -> usize {
        self.weights.len()
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.weights[0].rows()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        // lint: allow(L001, reason = "the constructor rejects zero-layer networks")
        self.weights.last().expect("at least one layer").cols()
    }

    /// Plain forward pass (no tape).
    ///
    /// # Panics
    ///
    /// Panics when `x.cols() != self.input_dim()`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "forward: input width mismatch");
        let mut h = self.layer(0, x);
        for i in 1..self.weights.len() {
            h = self.layer(i, &h);
        }
        h
    }

    /// Layer `i` applied to `input`: `input·Wᵢ + bᵢ`, through `tanh`
    /// unless it is the output layer.
    fn layer(&self, i: usize, input: &Matrix) -> Matrix {
        let mut z = input
            .matmul(&self.weights[i])
            .add_row_broadcast(&self.biases[i])
            // lint: allow(L001, reason = "biases are built alongside weights with matching widths")
            .expect("bias row matches layer width");
        if i + 1 < self.weights.len() {
            z.map_inplace(f64::tanh);
        }
        z
    }

    /// Forward pass on a tape with the network weights as *constants*:
    /// gradients flow through to the input only. Used to differentiate
    /// surrogate power with respect to circuit design variables.
    pub fn forward_on_tape(&self, tape: &mut Tape, x: Var) -> Var {
        let last = self.weights.len() - 1;
        let mut h = x;
        for (i, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let wv = tape.constant(w.clone());
            let bv = tape.constant(b.clone());
            let z = tape.matmul(h, wv);
            let z = tape.add_row(z, bv);
            h = if i != last { tape.tanh(z) } else { z };
        }
        h
    }

    /// Trains on `(x, y)` with mean-squared error and Adam, mutating the
    /// network in place. Streams the training-loss curve to `tel`: one
    /// `mlp_epoch` debug event per reporting stride (~50 points across
    /// the run, plus the final epoch), under an `mlp_fit` span.
    ///
    /// Each batch runs the forward and backward a tape would record for
    /// this loss, without the tape; a test pins the result against a
    /// tape trainer bit for bit.
    ///
    /// # Panics
    ///
    /// Panics on row-count or width mismatches.
    pub fn train(
        &mut self,
        x: &Matrix,
        y: &Matrix,
        cfg: &MlpConfig,
        tel: &Telemetry,
    ) -> TrainReport {
        assert_eq!(x.rows(), y.rows(), "train: sample count mismatch");
        assert_eq!(x.cols(), self.input_dim(), "train: input width mismatch");
        assert_eq!(y.cols(), self.output_dim(), "train: output width mismatch");

        let mut prof_scope = tel.profiler().scope("mlp_fit");
        prof_scope.set_u64("rows", x.rows() as u64);
        prof_scope.set_u64("epochs", cfg.epochs as u64);
        let mut rng = lrng::seeded(cfg.seed);
        let mut opt = Adam::with_lr(cfg.lr);
        let n = x.rows();
        let bs = if cfg.batch_size == 0 || cfg.batch_size >= n {
            n
        } else {
            cfg.batch_size
        };
        let mut final_mse = f64::NAN;
        let stride = (cfg.epochs / 50).max(1);
        // Adam sees the parameters interleaved as `W₀, b₀, W₁, b₁, …`.
        let mut params: Vec<Matrix> = Vec::with_capacity(2 * self.weights.len());
        let mut grads: Vec<Option<Matrix>> = vec![None; 2 * self.weights.len()];

        for epoch in 0..cfg.epochs {
            // Mini-batch order (identity when full batch).
            let order: Vec<usize> = if bs == n {
                (0..n).collect()
            } else {
                lrng::permutation(&mut rng, n)
            };
            let mut epoch_sse = 0.0;
            for chunk in order.chunks(bs) {
                let loss = if bs == n {
                    self.batch_gradients(x, y, &mut grads)
                } else {
                    let (xb, yb) = (x.select_rows(chunk), y.select_rows(chunk));
                    self.batch_gradients(&xb, &yb, &mut grads)
                };
                epoch_sse += loss * chunk.len() as f64;

                for (w, b) in self.weights.iter_mut().zip(&mut self.biases) {
                    params.push(std::mem::take(w));
                    params.push(std::mem::take(b));
                }
                opt.step(&mut params, &grads);
                let mut updated = params.drain(..);
                for (w, b) in self.weights.iter_mut().zip(&mut self.biases) {
                    // lint: allow(L001, reason = "`params` was filled from these very slots")
                    *w = updated.next().expect("one weight per layer");
                    // lint: allow(L001, reason = "`params` was filled from these very slots")
                    *b = updated.next().expect("one bias per layer");
                }
            }
            final_mse = epoch_sse / n as f64;
            if epoch.is_multiple_of(stride) || epoch + 1 == cfg.epochs {
                let mse = final_mse;
                tel.emit(|| {
                    Event::new("mlp_epoch", Level::Debug)
                        .with_u64("epoch", (epoch + 1) as u64)
                        .with_f64("train_mse", mse)
                });
            }
        }

        TrainReport {
            final_train_mse: final_mse,
            epochs: cfg.epochs,
        }
    }

    /// Forward and backward of one batch's mean-squared error: writes
    /// the gradient of every parameter into `grads` (`W₀, b₀, W₁, b₁, …`)
    /// and returns the loss.
    ///
    /// These are the operations, in the same order, that a tape records
    /// for `mean_all(square(sub(forward, y)))` with the weights as
    /// parameters and `x`, `y` as constants (`MatMul`, `AddRow`, `Tanh`,
    /// `Sub`, `Square`, `MeanAll` and their backward rules), so the
    /// gradients are bit-identical to that tape's. The constant input
    /// gets no gradient. The tests pin this against a tape trainer.
    fn batch_gradients(&self, x: &Matrix, y: &Matrix, grads: &mut [Option<Matrix>]) -> f64 {
        let last = self.weights.len() - 1;
        // Forward: the tanh output of every hidden layer, then the
        // linear output.
        let mut hidden: Vec<Matrix> = Vec::with_capacity(last);
        for i in 0..last {
            let h = self.layer(i, hidden.last().unwrap_or(x));
            hidden.push(h);
        }
        let mut g = self.layer(last, hidden.last().unwrap_or(x));

        // Loss: diff = out − y, mean of diff².
        for (d, &t) in g.as_mut_slice().iter_mut().zip(y.as_slice()) {
            *d -= t;
        }
        let count = g.len() as f64;
        let loss = g.as_slice().iter().map(|&d| d * d).sum::<f64>() / count;

        // Backward: ∂loss/∂diff = (1/count) · (2·diff).
        let scale = 1.0 / count;
        g.map_inplace(|d| scale * (2.0 * d));
        for i in (0..=last).rev() {
            let input = if i == 0 { x } else { &hidden[i - 1] };
            grads[2 * i + 1] = Some(g.sum_rows());
            // lint: allow(L001, reason = "shapes mirror the forward pass, which validated them")
            grads[2 * i] = Some(input.t_matmul(&g).expect("weight gradient"));
            if i > 0 {
                // lint: allow(L001, reason = "shapes mirror the forward pass, which validated them")
                let mut gh = g.matmul_t(&self.weights[i]).expect("input gradient");
                for (gv, &yv) in gh.as_mut_slice().iter_mut().zip(hidden[i - 1].as_slice()) {
                    *gv *= 1.0 - yv * yv;
                }
                g = gh;
            }
        }
        loss
    }

    /// Mean-squared error of the network on `(x, y)`.
    pub fn mse(&self, x: &Matrix, y: &Matrix) -> f64 {
        let pred = self.forward(x);
        let d = &pred - y;
        d.map(|v| v * v).mean()
    }

    /// Layer dimensions `[input, hidden…, output]` — the argument
    /// [`Mlp::from_flat`] needs to rebuild this network.
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = vec![self.input_dim()];
        dims.extend(self.weights.iter().map(|w| w.cols()));
        dims
    }

    /// Serializes all weights into a flat vector (layer order:
    /// `W₀, b₀, W₁, b₁, …`, row-major).
    pub fn to_flat(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for (w, b) in self.weights.iter().zip(&self.biases) {
            out.extend_from_slice(w.as_slice());
            out.extend_from_slice(b.as_slice());
        }
        out
    }

    /// Rebuilds an MLP from [`Mlp::to_flat`] output given the layer
    /// dimensions `[input, hidden…, output]`.
    ///
    /// # Panics
    ///
    /// Panics when `flat` has the wrong length for `dims`.
    pub fn from_flat(dims: &[usize], flat: &[f64]) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        let mut off = 0usize;
        for w in dims.windows(2) {
            let (r, c) = (w[0], w[1]);
            weights.push(Matrix::from_vec(r, c, flat[off..off + r * c].to_vec()));
            off += r * c;
            biases.push(Matrix::from_vec(1, c, flat[off..off + c].to_vec()));
            off += c;
        }
        assert_eq!(off, flat.len(), "flat vector length mismatch");
        Mlp { weights, biases }
    }
}

/// Generates a noisy sample of a scalar function for tests/demos.
pub fn sample_function(
    f: impl Fn(&[f64]) -> f64,
    bounds: &[(f64, f64)],
    n: usize,
    // lint: dimensionless
    noise: f64,
    rng: &mut StdRng,
) -> (Matrix, Matrix) {
    let d = bounds.len();
    let mut x = Matrix::zeros(n, d);
    let mut y = Matrix::zeros(n, 1);
    for i in 0..n {
        for (j, &(lo, hi)) in bounds.iter().enumerate() {
            x[(i, j)] = rng.gen_range(lo..hi);
        }
        y[(i, 0)] = f(x.row_slice(i)) + noise * lrng::next_normal(rng);
    }
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tape trainer [`Mlp::train`] replaced, kept as its reference:
    /// every batch records the forward on a fresh [`Tape`] with the
    /// weights as parameters and backpropagates the MSE.
    fn train_on_tape(mlp: &mut Mlp, x: &Matrix, y: &Matrix, cfg: &MlpConfig) -> TrainReport {
        let mut rng = lrng::seeded(cfg.seed);
        let mut opt = Adam::with_lr(cfg.lr);
        let n = x.rows();
        let bs = if cfg.batch_size == 0 || cfg.batch_size >= n {
            n
        } else {
            cfg.batch_size
        };
        let mut final_mse = f64::NAN;
        for _ in 0..cfg.epochs {
            let order: Vec<usize> = if bs == n {
                (0..n).collect()
            } else {
                lrng::permutation(&mut rng, n)
            };
            let mut epoch_sse = 0.0;
            for chunk in order.chunks(bs) {
                let mut tape = Tape::new();
                let mut h = tape.constant(x.select_rows(chunk));
                let mut params = Vec::new();
                let last = mlp.weights.len() - 1;
                for (i, (w, b)) in mlp.weights.iter().zip(&mlp.biases).enumerate() {
                    let wv = tape.parameter(w.clone());
                    let bv = tape.parameter(b.clone());
                    params.push(wv);
                    params.push(bv);
                    let z = tape.matmul(h, wv);
                    let z = tape.add_row(z, bv);
                    h = if i != last { tape.tanh(z) } else { z };
                }
                let yv = tape.constant(y.select_rows(chunk));
                let diff = tape.sub(h, yv);
                let sq = tape.square(diff);
                let loss = tape.mean_all(sq);
                epoch_sse += tape.scalar(loss) * chunk.len() as f64;
                let grads = tape.backward(loss);
                let mut values: Vec<Matrix> =
                    params.iter().map(|&p| tape.value(p).clone()).collect();
                let grad_opt: Vec<Option<Matrix>> =
                    params.iter().map(|&p| grads.get(p).cloned()).collect();
                opt.step(&mut values, &grad_opt);
                for (k, v) in values.into_iter().enumerate() {
                    if k % 2 == 0 {
                        mlp.weights[k / 2] = v;
                    } else {
                        mlp.biases[k / 2] = v;
                    }
                }
            }
            final_mse = epoch_sse / n as f64;
        }
        TrainReport {
            final_train_mse: final_mse,
            epochs: cfg.epochs,
        }
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Trains two copies of one network, by [`Mlp::train`] and by the
    /// tape reference, and requires every weight, bias and the final
    /// MSE to agree bit for bit.
    fn assert_fit_equals_tape(hidden: &[usize], outputs: usize, rows: usize, batch_size: usize) {
        let mut rng = lrng::seeded(40 + hidden.len() as u64);
        let x = lrng::uniform_matrix(&mut rng, rows, 3, -1.0, 1.0);
        let y = Matrix::from_fn(rows, outputs, |i, j| {
            (x[(i, 0)] * (j + 1) as f64).sin() + x[(i, 1)] * x[(i, 2)]
        });
        let mut fast = Mlp::new(3, hidden, outputs, &mut rng);
        let mut reference = fast.clone();
        let cfg = MlpConfig {
            hidden: hidden.to_vec(),
            lr: 1e-2,
            epochs: 12,
            batch_size,
            seed: 11,
        };
        let got = fast.train(&x, &y, &cfg, &Telemetry::disabled());
        let want = train_on_tape(&mut reference, &x, &y, &cfg);
        assert_eq!(
            got.final_train_mse.to_bits(),
            want.final_train_mse.to_bits(),
            "final mse {} vs {}",
            got.final_train_mse,
            want.final_train_mse
        );
        assert_eq!(got.epochs, want.epochs);
        for (l, (w, rw)) in fast.weights.iter().zip(&reference.weights).enumerate() {
            assert_eq!(bits(w), bits(rw), "layer {l} weights");
        }
        for (l, (b, rb)) in fast.biases.iter().zip(&reference.biases).enumerate() {
            assert_eq!(bits(b), bits(rb), "layer {l} biases");
        }
    }

    #[test]
    fn fit_equals_tape_full_batch() {
        assert_fit_equals_tape(&[24, 24], 4, 100, 0);
        assert_fit_equals_tape(&[16, 16], 1, 100, 0);
    }

    #[test]
    fn fit_equals_tape_shuffled_mini_batches() {
        // 100 rows in batches of 32: three full batches and a short one.
        assert_fit_equals_tape(&[24, 24], 4, 100, 32);
        assert_fit_equals_tape(&[16, 16], 1, 100, 32);
    }

    #[test]
    fn fit_equals_tape_without_hidden_layers() {
        assert_fit_equals_tape(&[], 4, 100, 0);
        assert_fit_equals_tape(&[], 1, 100, 32);
    }

    #[test]
    fn fit_equals_tape_deep_stack() {
        assert_fit_equals_tape(&[24; 6], 1, 100, 0);
        assert_fit_equals_tape(&[24; 6], 4, 100, 32);
    }

    #[test]
    fn shapes_and_dims() {
        let mut rng = lrng::seeded(1);
        let mlp = Mlp::new(3, &[8, 8], 2, &mut rng);
        assert_eq!(mlp.layer_count(), 3);
        assert_eq!(mlp.input_dim(), 3);
        assert_eq!(mlp.output_dim(), 2);
        let out = mlp.forward(&Matrix::zeros(5, 3));
        assert_eq!(out.shape(), (5, 2));
    }

    #[test]
    fn fits_linear_function() {
        let mut rng = lrng::seeded(2);
        let (x, y) = sample_function(
            |v| 2.0 * v[0] - v[1] + 0.5,
            &[(-1.0, 1.0); 2],
            200,
            0.0,
            &mut rng,
        );
        let mut mlp = Mlp::new(2, &[16], 1, &mut rng);
        let cfg = MlpConfig {
            epochs: 600,
            lr: 1e-2,
            ..MlpConfig::default()
        };
        let rep = mlp.train(&x, &y, &cfg, &Telemetry::disabled());
        assert!(rep.final_train_mse < 5e-3, "mse {}", rep.final_train_mse);
    }

    #[test]
    fn fits_nonlinear_function() {
        let mut rng = lrng::seeded(3);
        let (x, y) = sample_function(
            |v| (3.0 * v[0]).sin() * v[1],
            &[(-1.0, 1.0); 2],
            400,
            0.0,
            &mut rng,
        );
        let mut mlp = Mlp::new(2, &[24, 24], 1, &mut rng);
        let cfg = MlpConfig {
            epochs: 600,
            lr: 5e-3,
            ..MlpConfig::default()
        };
        let rep = mlp.train(&x, &y, &cfg, &Telemetry::disabled());
        assert!(rep.final_train_mse < 5e-3, "mse {}", rep.final_train_mse);
    }

    #[test]
    fn minibatch_training_works() {
        let mut rng = lrng::seeded(4);
        let (x, y) = sample_function(|v| v[0] * v[0], &[(-1.0, 1.0)], 256, 0.0, &mut rng);
        let mut mlp = Mlp::new(1, &[16], 1, &mut rng);
        let cfg = MlpConfig {
            epochs: 150,
            lr: 5e-3,
            batch_size: 32,
            ..MlpConfig::default()
        };
        let rep = mlp.train(&x, &y, &cfg, &Telemetry::disabled());
        assert!(rep.final_train_mse < 1e-2, "mse {}", rep.final_train_mse);
    }

    #[test]
    fn tape_forward_matches_plain() {
        let mut rng = lrng::seeded(5);
        let mlp = Mlp::new(3, &[8, 8], 1, &mut rng);
        let x = lrng::uniform_matrix(&mut rng, 4, 3, -1.0, 1.0);
        let plain = mlp.forward(&x);
        let mut tape = Tape::new();
        let xv = tape.parameter(x.clone());
        let out = mlp.forward_on_tape(&mut tape, xv);
        assert!(tape.value(out).approx_eq(&plain, 1e-12));
    }

    #[test]
    fn tape_forward_differentiates_wrt_input() {
        let mut rng = lrng::seeded(6);
        let mlp = Mlp::new(2, &[8], 1, &mut rng);
        let x = Matrix::row(&[0.3, -0.2]);
        let report = pnc_autodiff::gradcheck::check_gradient(&x, 1e-6, |tape, p| {
            let out = mlp.forward_on_tape(tape, p);
            tape.sum_all(out)
        });
        assert!(report.passes(1e-6), "{report:?}");
    }

    #[test]
    fn flat_roundtrip_preserves_outputs() {
        let mut rng = lrng::seeded(7);
        let mlp = Mlp::new(3, &[5, 4], 2, &mut rng);
        let flat = mlp.to_flat();
        let rebuilt = Mlp::from_flat(&[3, 5, 4, 2], &flat);
        let x = lrng::uniform_matrix(&mut rng, 6, 3, -1.0, 1.0);
        assert!(mlp.forward(&x).approx_eq(&rebuilt.forward(&x), 1e-15));
    }

    #[test]
    fn paper_depth_builds_and_runs() {
        let cfg = MlpConfig::paper_depth();
        assert_eq!(cfg.hidden.len(), 14);
        let mut rng = lrng::seeded(8);
        let mlp = Mlp::new(6, &cfg.hidden, 1, &mut rng);
        assert_eq!(mlp.layer_count(), 15);
        let out = mlp.forward(&Matrix::zeros(2, 6));
        assert!(out.all_finite());
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_rejects_wrong_width() {
        let mut rng = lrng::seeded(9);
        let mlp = Mlp::new(3, &[4], 1, &mut rng);
        let _ = mlp.forward(&Matrix::zeros(1, 2));
    }
}
