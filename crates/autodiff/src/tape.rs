//! The reverse-mode tape: nodes, operations and backpropagation.

use pnc_linalg::Matrix;

/// Handle to a node on a [`Tape`].
///
/// `Var` is a plain index — `Copy`, cheap, and only meaningful for the
/// tape that created it. Using a `Var` with a different tape panics on
/// the first out-of-bounds access (indices are never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// Raw node index (stable for the lifetime of the tape).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Element-wise unary operations with closed-form derivatives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnaryKind {
    Neg,
    Abs,
    Square,
    Sqrt,
    Exp,
    Ln,
    Sigmoid,
    Tanh,
    Relu,
    Softplus,
    Recip,
}

impl UnaryKind {
    fn apply(self, x: f64) -> f64 {
        match self {
            UnaryKind::Neg => -x,
            UnaryKind::Abs => x.abs(),
            UnaryKind::Square => x * x,
            UnaryKind::Sqrt => x.sqrt(),
            UnaryKind::Exp => x.exp(),
            UnaryKind::Ln => x.ln(),
            UnaryKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryKind::Tanh => x.tanh(),
            UnaryKind::Relu => x.max(0.0),
            UnaryKind::Softplus => {
                // Numerically stable log(1 + e^x).
                if x > 30.0 {
                    x
                } else {
                    x.exp().ln_1p()
                }
            }
            UnaryKind::Recip => 1.0 / x,
        }
    }

    /// Derivative given the input `x` and the already-computed output `y`.
    fn derivative(self, x: f64, y: f64) -> f64 {
        match self {
            UnaryKind::Neg => -1.0,
            UnaryKind::Abs => {
                if x > 0.0 {
                    1.0
                } else if x < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            UnaryKind::Square => 2.0 * x,
            UnaryKind::Sqrt => 0.5 / y,
            UnaryKind::Exp => y,
            UnaryKind::Ln => 1.0 / x,
            UnaryKind::Sigmoid => y * (1.0 - y),
            UnaryKind::Tanh => 1.0 - y * y,
            UnaryKind::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            UnaryKind::Softplus => 1.0 / (1.0 + (-x).exp()),
            UnaryKind::Recip => -y * y,
        }
    }
}

/// Tape operations. Parents are stored as raw indices.
#[derive(Debug, Clone)]
enum Op {
    /// Leaf node: a trainable parameter (receives gradient).
    Parameter,
    /// Leaf node: constant data (no gradient is accumulated).
    Constant,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
    AddScalar(usize),
    MulScalar(usize, f64),
    Unary(usize, UnaryKind),
    ClampMin(usize, f64),
    ClampMax(usize, f64),
    MatMul(usize, usize),
    /// Broadcast-add a `1 × n` row to each row of a `m × n` matrix.
    AddRow(usize, usize),
    /// Broadcast-multiply each row of a `m × n` matrix by a `1 × n` row.
    MulRow(usize, usize),
    /// Broadcast-divide each row of a `m × n` matrix by a `1 × n` row.
    DivRow(usize, usize),
    /// Element-wise multiply by a constant matrix (e.g. a pruning mask).
    MulConst(usize, Matrix),
    /// Broadcast-multiply by a 1 × 1 scalar node.
    ScaleByScalar(usize, usize),
    /// Broadcast-add a 1 × 1 scalar node.
    ShiftByScalar(usize, usize),
    SumAll(usize),
    MeanAll(usize),
    /// Collapse rows: `m × n` → `1 × n`.
    SumRows(usize),
    /// Collapse columns: `m × n` → `m × 1`.
    SumCols(usize),
    /// Column-wise maximum `m × n` → `1 × n`; stores row arg-max per column.
    ColMax(usize, Vec<usize>),
    /// Row-wise maximum `m × n` → `m × 1`; stores column arg-max per row.
    RowMax(usize, Vec<usize>),
    /// Append a ones column and a zeros column: `m × n` → `m × (n+2)`.
    AppendBiasCols(usize),
    /// Horizontal concatenation; second field is the column count of lhs.
    HStack(usize, usize, usize),
    /// Fused softmax + cross-entropy against integer labels.
    /// Stores softmax probabilities for the backward pass.
    SoftmaxCrossEntropy(usize, Vec<usize>, Matrix),
}

impl Op {
    /// Parent node indices (at most two).
    fn parents(&self) -> [Option<usize>; 2] {
        match *self {
            Op::Parameter | Op::Constant => [None, None],
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::MatMul(a, b)
            | Op::AddRow(a, b)
            | Op::MulRow(a, b)
            | Op::DivRow(a, b)
            | Op::ScaleByScalar(a, b)
            | Op::ShiftByScalar(a, b)
            | Op::HStack(a, b, _) => [Some(a), Some(b)],
            Op::AddScalar(a)
            | Op::MulScalar(a, _)
            | Op::Unary(a, _)
            | Op::ClampMin(a, _)
            | Op::ClampMax(a, _)
            | Op::MulConst(a, _)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::SumRows(a)
            | Op::SumCols(a)
            | Op::ColMax(a, _)
            | Op::RowMax(a, _)
            | Op::AppendBiasCols(a)
            | Op::SoftmaxCrossEntropy(a, _, _) => [Some(a), None],
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    op: Op,
    /// Whether a [`Tape::parameter`] leaf reaches this node. Backward
    /// visits live nodes only: no gradient can flow from a dead one
    /// into a parameter.
    live: bool,
}

/// Parameter gradients produced by [`Tape::backward`].
///
/// Indexed by [`Var`]. Only [`Tape::parameter`] leaves carry a
/// gradient: a parameter the loss does not depend on, a constant, and
/// every intermediate node report `None` (backward hands intermediate
/// gradients on to their parents instead of keeping them).
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient of the backward root with respect to `var`, if any.
    pub fn get(&self, var: Var) -> Option<&Matrix> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }

    /// Like [`Gradients::get`] but panics with a clear message when the
    /// gradient is absent. Intended for optimizer loops where parameters
    /// are guaranteed to participate in the loss.
    pub fn expect(&self, var: Var) -> &Matrix {
        self.get(var)
            // lint: allow(L001, reason = "documented panic API: a missing gradient in an optimizer loop is a programming error")
            .unwrap_or_else(|| panic!("no gradient for var {}", var.0))
    }
}

/// A reverse-mode autodiff tape.
///
/// All operations validate shapes eagerly and panic with descriptive
/// messages on mismatch: shape errors on a tape are programming errors,
/// not runtime conditions.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::new() }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Discards all recorded nodes (for reuse across training steps).
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Value of a node.
    pub fn value(&self, var: Var) -> &Matrix {
        &self.nodes[var.0].value
    }

    /// Shape of a node's value.
    pub fn shape(&self, var: Var) -> (usize, usize) {
        self.nodes[var.0].value.shape()
    }

    /// Scalar value of a `1 × 1` node.
    ///
    /// # Panics
    ///
    /// Panics when the node is not `1 × 1`.
    pub fn scalar(&self, var: Var) -> f64 {
        let v = self.value(var);
        assert_eq!(v.shape(), (1, 1), "scalar: node has shape {:?}", v.shape());
        v[(0, 0)]
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        let live = match op {
            Op::Parameter => true,
            _ => op.parents().iter().flatten().any(|&p| self.nodes[p].live),
        };
        self.nodes.push(Node { value, op, live });
        Var(self.nodes.len() - 1)
    }

    /// Number of nodes a parameter reaches: the nodes a backward pass
    /// can visit.
    fn live_len(&self) -> usize {
        self.nodes.iter().filter(|n| n.live).count()
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Registers a trainable parameter leaf (participates in gradients).
    pub fn parameter(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Parameter)
    }

    /// Registers a constant leaf (no gradient accumulated).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Constant)
    }

    // ------------------------------------------------------------------
    // Binary element-wise
    // ------------------------------------------------------------------

    fn assert_same_shape(&self, op: &str, a: Var, b: Var) {
        assert_eq!(
            self.shape(a),
            self.shape(b),
            "{op}: shape mismatch {:?} vs {:?}",
            self.shape(a),
            self.shape(b)
        );
    }

    /// Element-wise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.assert_same_shape("add", a, b);
        let v = self.value(a) + self.value(b);
        self.push(v, Op::Add(a.0, b.0))
    }

    /// Element-wise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.assert_same_shape("sub", a, b);
        let v = self.value(a) - self.value(b);
        self.push(v, Op::Sub(a.0, b.0))
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.assert_same_shape("mul", a, b);
        let v = self.value(a).hadamard(self.value(b));
        self.push(v, Op::Mul(a.0, b.0))
    }

    /// Element-wise quotient.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        self.assert_same_shape("div", a, b);
        let v = self.value(a).elem_div(self.value(b));
        self.push(v, Op::Div(a.0, b.0))
    }

    // ------------------------------------------------------------------
    // Scalar-broadcast arithmetic
    // ------------------------------------------------------------------

    /// Adds a Rust scalar to every element.
    pub fn add_scalar(&mut self, a: Var, s: f64) -> Var {
        let v = self.value(a).shift(s);
        self.push(v, Op::AddScalar(a.0))
    }

    /// Multiplies every element by a Rust scalar.
    pub fn mul_scalar(&mut self, a: Var, s: f64) -> Var {
        let v = self.value(a).scale(s);
        self.push(v, Op::MulScalar(a.0, s))
    }

    // ------------------------------------------------------------------
    // Unary element-wise
    // ------------------------------------------------------------------

    fn unary(&mut self, a: Var, kind: UnaryKind) -> Var {
        let v = self.value(a).map(|x| kind.apply(x));
        self.push(v, Op::Unary(a.0, kind))
    }

    /// `-x`.
    pub fn neg(&mut self, a: Var) -> Var {
        self.unary(a, UnaryKind::Neg)
    }

    /// `|x|` (sub-gradient 0 at the kink).
    pub fn abs(&mut self, a: Var) -> Var {
        self.unary(a, UnaryKind::Abs)
    }

    /// `x²`.
    pub fn square(&mut self, a: Var) -> Var {
        self.unary(a, UnaryKind::Square)
    }

    /// `√x`.
    pub fn sqrt(&mut self, a: Var) -> Var {
        self.unary(a, UnaryKind::Sqrt)
    }

    /// `eˣ`.
    pub fn exp(&mut self, a: Var) -> Var {
        self.unary(a, UnaryKind::Exp)
    }

    /// `ln x`.
    pub fn ln(&mut self, a: Var) -> Var {
        self.unary(a, UnaryKind::Ln)
    }

    /// Logistic sigmoid `1 / (1 + e⁻ˣ)`.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.unary(a, UnaryKind::Sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.unary(a, UnaryKind::Tanh)
    }

    /// Rectifier `max(x, 0)` (sub-gradient 0 at the kink).
    pub fn relu(&mut self, a: Var) -> Var {
        self.unary(a, UnaryKind::Relu)
    }

    /// Softplus `ln(1 + eˣ)` (numerically stable).
    pub fn softplus(&mut self, a: Var) -> Var {
        self.unary(a, UnaryKind::Softplus)
    }

    /// Reciprocal `1 / x`.
    pub fn recip(&mut self, a: Var) -> Var {
        self.unary(a, UnaryKind::Recip)
    }

    /// `max(x, lo)` element-wise against a Rust scalar.
    pub fn clamp_min(&mut self, a: Var, lo: f64) -> Var {
        let v = self.value(a).map(|x| x.max(lo));
        self.push(v, Op::ClampMin(a.0, lo))
    }

    /// `min(x, hi)` element-wise against a Rust scalar.
    pub fn clamp_max(&mut self, a: Var, hi: f64) -> Var {
        let v = self.value(a).map(|x| x.min(hi));
        self.push(v, Op::ClampMax(a.0, hi))
    }

    // ------------------------------------------------------------------
    // Linear algebra & broadcasting
    // ------------------------------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self
            .value(a)
            .try_matmul(self.value(b))
            // lint: allow(L001, reason = "shape errors on a tape are documented programming errors (see type docs)")
            .expect("matmul: inner dimension mismatch");
        self.push(v, Op::MatMul(a.0, b.0))
    }

    /// Adds a `1 × n` row `b` to every row of `a`.
    pub fn add_row(&mut self, a: Var, b: Var) -> Var {
        let v = self
            .value(a)
            .add_row_broadcast(self.value(b))
            // lint: allow(L001, reason = "shape errors on a tape are documented programming errors (see type docs)")
            .expect("add_row: shape mismatch");
        self.push(v, Op::AddRow(a.0, b.0))
    }

    /// Multiplies every row of `a` element-wise by a `1 × n` row `b`.
    pub fn mul_row(&mut self, a: Var, b: Var) -> Var {
        let v = self
            .value(a)
            .mul_row_broadcast(self.value(b))
            // lint: allow(L001, reason = "shape errors on a tape are documented programming errors (see type docs)")
            .expect("mul_row: shape mismatch");
        self.push(v, Op::MulRow(a.0, b.0))
    }

    /// Divides every row of `a` element-wise by a `1 × n` row `b`.
    pub fn div_row(&mut self, a: Var, b: Var) -> Var {
        let bv = self.value(b);
        assert_eq!(bv.rows(), 1, "div_row: divisor must be 1 × n");
        let v = self
            .value(a)
            .zip_row_div(bv)
            // lint: allow(L001, reason = "shape errors on a tape are documented programming errors (see type docs)")
            .expect("div_row: shape mismatch");
        self.push(v, Op::DivRow(a.0, b.0))
    }

    /// Broadcast-multiplies every element of `a` by a `1 × 1` scalar
    /// node `s` (used to scale a whole matrix by a learnable scalar,
    /// e.g. activation-transfer coefficients).
    pub fn scale_by(&mut self, a: Var, s: Var) -> Var {
        assert_eq!(self.shape(s), (1, 1), "scale_by: s must be 1 × 1");
        let sv = self.value(s)[(0, 0)];
        let v = self.value(a).scale(sv);
        self.push(v, Op::ScaleByScalar(a.0, s.0))
    }

    /// Broadcast-adds a `1 × 1` scalar node `s` to every element of `a`.
    pub fn shift_by(&mut self, a: Var, s: Var) -> Var {
        assert_eq!(self.shape(s), (1, 1), "shift_by: s must be 1 × 1");
        let sv = self.value(s)[(0, 0)];
        let v = self.value(a).shift(sv);
        self.push(v, Op::ShiftByScalar(a.0, s.0))
    }

    /// Element-wise product with a constant matrix (masking).
    pub fn mul_const(&mut self, a: Var, mask: &Matrix) -> Var {
        assert_eq!(
            self.shape(a),
            mask.shape(),
            "mul_const: shape mismatch {:?} vs {:?}",
            self.shape(a),
            mask.shape()
        );
        let v = self.value(a).hadamard(mask);
        self.push(v, Op::MulConst(a.0, mask.clone()))
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements → `1 × 1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let v = Matrix::filled(1, 1, self.value(a).sum());
        self.push(v, Op::SumAll(a.0))
    }

    /// Mean of all elements → `1 × 1`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let v = Matrix::filled(1, 1, self.value(a).mean());
        self.push(v, Op::MeanAll(a.0))
    }

    /// Column sums: `m × n` → `1 × n`.
    pub fn sum_rows(&mut self, a: Var) -> Var {
        let v = self.value(a).sum_rows();
        self.push(v, Op::SumRows(a.0))
    }

    /// Row sums: `m × n` → `m × 1`.
    pub fn sum_cols(&mut self, a: Var) -> Var {
        let v = self.value(a).sum_cols();
        self.push(v, Op::SumCols(a.0))
    }

    /// Column-wise maximum: `m × n` → `1 × n`. The gradient flows to the
    /// first (smallest row index) arg-max of each column.
    pub fn col_max(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let (m, n) = av.shape();
        assert!(m > 0, "col_max: empty matrix");
        let mut arg = vec![0usize; n];
        let mut v = Matrix::zeros(1, n);
        for j in 0..n {
            let mut best = av[(0, j)];
            let mut bi = 0usize;
            for i in 1..m {
                if av[(i, j)] > best {
                    best = av[(i, j)];
                    bi = i;
                }
            }
            arg[j] = bi;
            v[(0, j)] = best;
        }
        self.push(v, Op::ColMax(a.0, arg))
    }

    /// Row-wise maximum: `m × n` → `m × 1`. The gradient flows to the
    /// first (smallest column index) arg-max of each row.
    pub fn row_max(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let (m, n) = av.shape();
        assert!(n > 0, "row_max: empty matrix");
        let mut arg = vec![0usize; m];
        let mut v = Matrix::zeros(m, 1);
        for i in 0..m {
            let row = av.row_slice(i);
            let mut best = row[0];
            let mut bj = 0usize;
            for (j, &x) in row.iter().enumerate().skip(1) {
                if x > best {
                    best = x;
                    bj = j;
                }
            }
            arg[i] = bj;
            v[(i, 0)] = best;
        }
        self.push(v, Op::RowMax(a.0, arg))
    }

    // ------------------------------------------------------------------
    // Structure
    // ------------------------------------------------------------------

    /// Appends a ones column and a zeros column (crossbar input
    /// augmentation for the bias conductance `g_b` and the grounded
    /// conductance `g_d`): `m × n` → `m × (n + 2)`.
    pub fn append_bias_cols(&mut self, a: Var) -> Var {
        let av = self.value(a);
        let (m, n) = av.shape();
        let mut v = Matrix::zeros(m, n + 2);
        for i in 0..m {
            v.row_slice_mut(i)[..n].copy_from_slice(av.row_slice(i));
            v[(i, n)] = 1.0;
            // column n+1 stays 0.0 (conductance to ground)
        }
        self.push(v, Op::AppendBiasCols(a.0))
    }

    /// Horizontal concatenation of two nodes with equal row counts.
    pub fn hstack(&mut self, a: Var, b: Var) -> Var {
        let v = self
            .value(a)
            .hstack(self.value(b))
            // lint: allow(L001, reason = "shape errors on a tape are documented programming errors (see type docs)")
            .expect("hstack: row count mismatch");
        let ac = self.shape(a).1;
        self.push(v, Op::HStack(a.0, b.0, ac))
    }

    // ------------------------------------------------------------------
    // Loss
    // ------------------------------------------------------------------

    /// Fused softmax + mean cross-entropy against integer class labels.
    ///
    /// `logits` is `batch × classes`; `labels[i] ∈ 0..classes`. Returns
    /// a `1 × 1` scalar: `−(1/B) Σᵢ ln softmax(logitsᵢ)[labelᵢ]`.
    ///
    /// # Panics
    ///
    /// Panics when `labels.len()` differs from the batch size or a label
    /// is out of range.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let lv = self.value(logits);
        let (b, c) = lv.shape();
        assert_eq!(labels.len(), b, "softmax_ce: label count mismatch");
        let mut probs = Matrix::zeros(b, c);
        let mut loss = 0.0;
        for i in 0..b {
            let row = lv.row_slice(i);
            let m = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mut z = 0.0;
            for &x in row {
                z += (x - m).exp();
            }
            let label = labels[i];
            assert!(label < c, "softmax_ce: label {label} out of range 0..{c}");
            for j in 0..c {
                probs[(i, j)] = (row[j] - m).exp() / z;
            }
            loss -= (probs[(i, label)]).max(1e-300).ln();
        }
        loss /= b as f64;
        let v = Matrix::filled(1, 1, loss);
        self.push(v, Op::SoftmaxCrossEntropy(logits.0, labels.to_vec(), probs))
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// [`Tape::backward`] under a `tape_backward` profiling scope
    /// carrying the tape length (`nodes`) and the number of nodes a
    /// parameter reaches (`live_nodes`, the nodes backward can visit)
    /// as span attributes. With a disabled profiler this is exactly
    /// [`Tape::backward`].
    ///
    /// # Panics
    ///
    /// Panics when `root` is not `1 × 1`.
    pub fn backward_profiled(&self, root: Var, prof: &pnc_telemetry::Profiler) -> Gradients {
        let mut scope = prof.scope("tape_backward");
        if scope.is_recording() {
            scope.set_u64("nodes", self.len() as u64);
            scope.set_u64("live_nodes", self.live_len() as u64);
        }
        self.backward(root)
    }

    /// Runs backpropagation from a scalar root, returning the gradient
    /// of every parameter the root depends on.
    ///
    /// Only nodes a parameter reaches are visited, and no gradient is
    /// computed for a parent no parameter reaches: constant-only
    /// branches (fixed data and whatever is derived from it alone) cost
    /// nothing. Each intermediate gradient is moved on to its parents,
    /// so [`Gradients`] holds parameter leaves only. Skipping dead
    /// branches changes no parameter gradient: every live node sums
    /// the same contributions in the same order.
    ///
    /// # Panics
    ///
    /// Panics when `root` is not `1 × 1`.
    pub fn backward(&self, root: Var) -> Gradients {
        assert_eq!(
            self.shape(root),
            (1, 1),
            "backward: root must be a scalar, got {:?}",
            self.shape(root)
        );
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        if self.nodes[root.0].live {
            grads[root.0] = Some(Matrix::ones(1, 1));
        }
        let live = |i: usize| self.nodes[i].live;

        for idx in (0..=root.0).rev() {
            let node = &self.nodes[idx];
            // Parameter leaves keep their gradient; every other node
            // hands its own on. Only live nodes ever receive one.
            if matches!(node.op, Op::Parameter) {
                continue;
            }
            let Some(g) = grads[idx].take() else {
                continue;
            };

            match &node.op {
                Op::Parameter | Op::Constant => {}
                Op::Add(a, b) => {
                    if live(*a) && live(*b) {
                        accumulate(&mut grads, *a, g.clone());
                        accumulate(&mut grads, *b, g);
                    } else {
                        accumulate(&mut grads, if live(*a) { *a } else { *b }, g);
                    }
                }
                Op::Sub(a, b) => {
                    let gb = live(*b).then(|| -&g);
                    if live(*a) {
                        accumulate(&mut grads, *a, g);
                    }
                    if let Some(gb) = gb {
                        accumulate(&mut grads, *b, gb);
                    }
                }
                Op::Mul(a, b) => {
                    if live(*a) {
                        accumulate(&mut grads, *a, g.hadamard(&self.nodes[*b].value));
                    }
                    if live(*b) {
                        accumulate(&mut grads, *b, g.hadamard(&self.nodes[*a].value));
                    }
                }
                Op::Div(a, b) => {
                    let bv = &self.nodes[*b].value;
                    if live(*a) {
                        accumulate(&mut grads, *a, g.elem_div(bv));
                    }
                    if live(*b) {
                        let av = &self.nodes[*a].value;
                        let gb = g
                            .hadamard(av)
                            .zip_map(bv, |num, den| -num / (den * den))
                            // lint: allow(L001, reason = "backward shapes mirror the forward pass, which validated them")
                            .expect("div backward shape");
                        accumulate(&mut grads, *b, gb);
                    }
                }
                Op::AddScalar(a) => accumulate(&mut grads, *a, g),
                Op::MulScalar(a, s) => {
                    let mut ga = g;
                    ga.map_inplace(|v| v * *s);
                    accumulate(&mut grads, *a, ga);
                }
                Op::Unary(a, kind) => {
                    let x = &self.nodes[*a].value;
                    let y = &node.value;
                    let mut ga = g;
                    for (i, gi) in ga.as_mut_slice().iter_mut().enumerate() {
                        let xi = x.as_slice()[i];
                        let yi = y.as_slice()[i];
                        *gi *= kind.derivative(xi, yi);
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::ClampMin(a, lo) => {
                    let x = &self.nodes[*a].value;
                    let mut ga = g;
                    for (i, gi) in ga.as_mut_slice().iter_mut().enumerate() {
                        if x.as_slice()[i] <= *lo {
                            *gi = 0.0;
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::ClampMax(a, hi) => {
                    let x = &self.nodes[*a].value;
                    let mut ga = g;
                    for (i, gi) in ga.as_mut_slice().iter_mut().enumerate() {
                        if x.as_slice()[i] >= *hi {
                            *gi = 0.0;
                        }
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::MatMul(a, b) => {
                    // y = a·b  ⇒  ∂a = g·bᵀ, ∂b = aᵀ·g
                    if live(*a) {
                        let bv = &self.nodes[*b].value;
                        // lint: allow(L001, reason = "backward shapes mirror the forward pass, which validated them")
                        let ga = g.matmul_t(bv).expect("matmul backward lhs");
                        accumulate(&mut grads, *a, ga);
                    }
                    if live(*b) {
                        let av = &self.nodes[*a].value;
                        // lint: allow(L001, reason = "backward shapes mirror the forward pass, which validated them")
                        let gb = av.t_matmul(&g).expect("matmul backward rhs");
                        accumulate(&mut grads, *b, gb);
                    }
                }
                Op::AddRow(a, b) => {
                    let gb = live(*b).then(|| g.sum_rows());
                    if live(*a) {
                        accumulate(&mut grads, *a, g);
                    }
                    if let Some(gb) = gb {
                        accumulate(&mut grads, *b, gb);
                    }
                }
                Op::MulRow(a, b) => {
                    if live(*a) {
                        let bv = &self.nodes[*b].value;
                        // lint: allow(L001, reason = "backward shapes mirror the forward pass, which validated them")
                        let ga = g.mul_row_broadcast(bv).expect("mul_row backward");
                        accumulate(&mut grads, *a, ga);
                    }
                    if live(*b) {
                        let gb = g.hadamard(&self.nodes[*a].value).sum_rows();
                        accumulate(&mut grads, *b, gb);
                    }
                }
                Op::DivRow(a, b) => {
                    let bv = &self.nodes[*b].value;
                    // y = a / row(b): ∂a = g / row(b); ∂b_j = -Σ_i g_ij a_ij / b_j²
                    if live(*a) {
                        // lint: allow(L001, reason = "backward shapes mirror the forward pass, which validated them")
                        let ga = g.zip_row_div(bv).expect("div_row backward lhs");
                        accumulate(&mut grads, *a, ga);
                    }
                    if live(*b) {
                        let mut gb = g.hadamard(&self.nodes[*a].value).sum_rows();
                        for (j, v) in gb.as_mut_slice().iter_mut().enumerate() {
                            let d = bv[(0, j)];
                            *v = -*v / (d * d);
                        }
                        accumulate(&mut grads, *b, gb);
                    }
                }
                Op::MulConst(a, mask) => {
                    accumulate(&mut grads, *a, g.hadamard(mask));
                }
                Op::ScaleByScalar(a, s) => {
                    let gs = live(*s).then(|| g.hadamard(&self.nodes[*a].value).sum());
                    if live(*a) {
                        let sv = self.nodes[*s].value[(0, 0)];
                        let mut ga = g;
                        ga.map_inplace(|v| v * sv);
                        accumulate(&mut grads, *a, ga);
                    }
                    if let Some(gs) = gs {
                        accumulate(&mut grads, *s, Matrix::filled(1, 1, gs));
                    }
                }
                Op::ShiftByScalar(a, s) => {
                    let gs = live(*s).then(|| g.sum());
                    if live(*a) {
                        accumulate(&mut grads, *a, g);
                    }
                    if let Some(gs) = gs {
                        accumulate(&mut grads, *s, Matrix::filled(1, 1, gs));
                    }
                }
                Op::SumAll(a) => {
                    let (m, n) = self.nodes[*a].value.shape();
                    accumulate(&mut grads, *a, Matrix::filled(m, n, g[(0, 0)]));
                }
                Op::MeanAll(a) => {
                    let (m, n) = self.nodes[*a].value.shape();
                    let scale = g[(0, 0)] / (m * n) as f64;
                    accumulate(&mut grads, *a, Matrix::filled(m, n, scale));
                }
                Op::SumRows(a) => {
                    let (m, n) = self.nodes[*a].value.shape();
                    let ga = Matrix::from_fn(m, n, |_, j| g[(0, j)]);
                    accumulate(&mut grads, *a, ga);
                }
                Op::SumCols(a) => {
                    let (m, n) = self.nodes[*a].value.shape();
                    let ga = Matrix::from_fn(m, n, |i, _| g[(i, 0)]);
                    accumulate(&mut grads, *a, ga);
                }
                Op::ColMax(a, arg) => {
                    let (m, n) = self.nodes[*a].value.shape();
                    let mut ga = Matrix::zeros(m, n);
                    for j in 0..n {
                        ga[(arg[j], j)] = g[(0, j)];
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::RowMax(a, arg) => {
                    let (m, n) = self.nodes[*a].value.shape();
                    let mut ga = Matrix::zeros(m, n);
                    for i in 0..m {
                        ga[(i, arg[i])] = g[(i, 0)];
                    }
                    accumulate(&mut grads, *a, ga);
                }
                Op::AppendBiasCols(a) => {
                    let (m, n2) = node.value.shape();
                    let n = n2 - 2;
                    let ga = Matrix::from_fn(m, n, |i, j| g[(i, j)]);
                    accumulate(&mut grads, *a, ga);
                }
                Op::HStack(a, b, ac) => {
                    let m = node.value.rows();
                    if live(*a) {
                        let ga = Matrix::from_fn(m, *ac, |i, j| g[(i, j)]);
                        accumulate(&mut grads, *a, ga);
                    }
                    if live(*b) {
                        let bc = self.nodes[*b].value.cols();
                        let gb = Matrix::from_fn(m, bc, |i, j| g[(i, ac + j)]);
                        accumulate(&mut grads, *b, gb);
                    }
                }
                Op::SoftmaxCrossEntropy(a, labels, probs) => {
                    let b = probs.rows();
                    let scale = g[(0, 0)] / b as f64;
                    let mut ga = probs.clone();
                    for i in 0..b {
                        ga[(i, labels[i])] -= 1.0;
                    }
                    for v in ga.as_mut_slice() {
                        *v *= scale;
                    }
                    accumulate(&mut grads, *a, ga);
                }
            }
        }
        Gradients { grads }
    }
}

fn accumulate(grads: &mut [Option<Matrix>], idx: usize, g: Matrix) {
    match &mut grads[idx] {
        Some(existing) => *existing += &g,
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_tape(x: f64) -> (Tape, Var) {
        let mut t = Tape::new();
        let v = t.parameter(Matrix::filled(1, 1, x));
        (t, v)
    }

    #[test]
    fn add_and_mul_gradients() {
        let mut t = Tape::new();
        let a = t.parameter(Matrix::filled(1, 1, 3.0));
        let b = t.parameter(Matrix::filled(1, 1, 4.0));
        let s = t.add(a, b);
        let p = t.mul(s, b); // (a+b)*b = 28
        assert_eq!(t.scalar(p), 28.0);
        let g = t.backward(p);
        assert_eq!(g.expect(a)[(0, 0)], 4.0); // d/da = b
        assert_eq!(g.expect(b)[(0, 0)], 11.0); // d/db = (a+b) + b
    }

    #[test]
    fn sub_div_gradients() {
        let mut t = Tape::new();
        let a = t.parameter(Matrix::filled(1, 1, 6.0));
        let b = t.parameter(Matrix::filled(1, 1, 2.0));
        let d = t.div(a, b);
        let e = t.sub(d, b); // a/b - b = 1
        assert_eq!(t.scalar(e), 1.0);
        let g = t.backward(e);
        assert!((g.expect(a)[(0, 0)] - 0.5).abs() < 1e-12);
        assert!((g.expect(b)[(0, 0)] - (-6.0 / 4.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn unary_derivatives_match_analytic() {
        let (mut t, x) = scalar_tape(0.7);
        let y = t.tanh(x);
        let g = t.backward(y);
        let expect = 1.0 - 0.7f64.tanh().powi(2);
        assert!((g.expect(x)[(0, 0)] - expect).abs() < 1e-12);

        let (mut t, x) = scalar_tape(0.7);
        let y = t.sigmoid(x);
        let g = t.backward(y);
        let s = 1.0 / (1.0 + (-0.7f64).exp());
        assert!((g.expect(x)[(0, 0)] - s * (1.0 - s)).abs() < 1e-12);

        let (mut t, x) = scalar_tape(2.0);
        let y = t.recip(x);
        let g = t.backward(y);
        assert!((g.expect(x)[(0, 0)] + 0.25).abs() < 1e-12);
    }

    #[test]
    fn abs_subgradient_at_zero_is_zero() {
        let (mut t, x) = scalar_tape(0.0);
        let y = t.abs(x);
        let g = t.backward(y);
        assert_eq!(g.expect(x)[(0, 0)], 0.0);
    }

    #[test]
    fn relu_gates_gradient() {
        let (mut t, x) = scalar_tape(-1.0);
        let y = t.relu(x);
        let g = t.backward(y);
        assert_eq!(g.expect(x)[(0, 0)], 0.0);

        let (mut t, x) = scalar_tape(1.5);
        let y = t.relu(x);
        let g = t.backward(y);
        assert_eq!(g.expect(x)[(0, 0)], 1.0);
    }

    #[test]
    fn clamp_min_max_gradients() {
        let mut t = Tape::new();
        let x = t.parameter(Matrix::row(&[-1.0, 0.5, 2.0]));
        let lo = t.clamp_min(x, 0.0);
        let hi = t.clamp_max(lo, 1.0);
        let s = t.sum_all(hi);
        let g = t.backward(s);
        assert_eq!(g.expect(x).as_slice(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn matmul_gradients() {
        let mut t = Tape::new();
        let a = t.parameter(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = t.parameter(Matrix::from_rows(&[&[5.0], &[6.0]]));
        let y = t.matmul(a, b); // 2×1
        let s = t.sum_all(y);
        let g = t.backward(s);
        // ∂s/∂a = 1·bᵀ broadcast over rows
        assert!(g
            .expect(a)
            .approx_eq(&Matrix::from_rows(&[&[5.0, 6.0], &[5.0, 6.0]]), 1e-12));
        // ∂s/∂b = aᵀ·1
        assert!(g
            .expect(b)
            .approx_eq(&Matrix::from_rows(&[&[4.0], &[6.0]]), 1e-12));
    }

    #[test]
    fn broadcast_row_ops_gradients() {
        let mut t = Tape::new();
        let a = t.parameter(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let r = t.parameter(Matrix::row(&[10.0, 20.0]));
        let y = t.add_row(a, r);
        let s = t.sum_all(y);
        let g = t.backward(s);
        assert!(g.expect(r).approx_eq(&Matrix::row(&[2.0, 2.0]), 1e-12));

        let mut t = Tape::new();
        let a = t.parameter(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let r = t.parameter(Matrix::row(&[2.0, 4.0]));
        let y = t.div_row(a, r);
        let s = t.sum_all(y);
        let g = t.backward(s);
        // ∂s/∂r_j = -Σ_i a_ij / r_j²
        assert!(g
            .expect(r)
            .approx_eq(&Matrix::row(&[-4.0 / 4.0, -6.0 / 16.0]), 1e-12));
        assert!(g
            .expect(a)
            .approx_eq(&Matrix::from_rows(&[&[0.5, 0.25], &[0.5, 0.25]]), 1e-12));
    }

    #[test]
    fn reductions_gradients() {
        let mut t = Tape::new();
        let a = t.parameter(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let m = t.mean_all(a);
        let g = t.backward(m);
        assert!(g.expect(a).approx_eq(&Matrix::filled(2, 2, 0.25), 1e-12));

        let mut t = Tape::new();
        let a = t.parameter(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let sr = t.sum_rows(a); // 1×2
        let sq = t.square(sr);
        let s = t.sum_all(sq); // (1+3)² + (2+4)² = 52
        assert_eq!(t.scalar(s), 52.0);
        let g = t.backward(s);
        assert!(g
            .expect(a)
            .approx_eq(&Matrix::from_rows(&[&[8.0, 12.0], &[8.0, 12.0]]), 1e-12));
    }

    #[test]
    fn col_max_routes_gradient_to_argmax() {
        let mut t = Tape::new();
        let a = t.parameter(Matrix::from_rows(&[&[1.0, 5.0], &[3.0, 2.0]]));
        let m = t.col_max(a); // [3, 5]
        assert_eq!(t.value(m).as_slice(), &[3.0, 5.0]);
        let s = t.sum_all(m);
        let g = t.backward(s);
        assert!(g
            .expect(a)
            .approx_eq(&Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]), 1e-12));
    }

    #[test]
    fn row_max_routes_gradient_to_argmax() {
        let mut t = Tape::new();
        let a = t.parameter(Matrix::from_rows(&[&[1.0, 5.0], &[3.0, 2.0]]));
        let m = t.row_max(a); // [5, 3]ᵀ
        assert_eq!(t.value(m).as_slice(), &[5.0, 3.0]);
        let s = t.sum_all(m);
        let g = t.backward(s);
        assert!(g
            .expect(a)
            .approx_eq(&Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]), 1e-12));
    }

    #[test]
    fn scale_and_shift_by_scalar_var() {
        let mut t = Tape::new();
        let a = t.parameter(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let s = t.parameter(Matrix::filled(1, 1, 2.0));
        let o = t.parameter(Matrix::filled(1, 1, -1.0));
        let scaled = t.scale_by(a, s);
        let shifted = t.shift_by(scaled, o);
        // 2a − 1 summed = 2·10 − 4 = 16
        let y = t.sum_all(shifted);
        assert_eq!(t.scalar(y), 16.0);
        let g = t.backward(y);
        assert!(g.expect(a).approx_eq(&Matrix::filled(2, 2, 2.0), 1e-12));
        assert_eq!(g.expect(s)[(0, 0)], 10.0); // Σ a
        assert_eq!(g.expect(o)[(0, 0)], 4.0); // count
    }

    #[test]
    fn append_bias_cols_shapes_and_grad() {
        let mut t = Tape::new();
        let a = t.parameter(Matrix::from_rows(&[&[0.3, 0.7]]));
        let aug = t.append_bias_cols(a);
        assert_eq!(t.value(aug).as_slice(), &[0.3, 0.7, 1.0, 0.0]);
        let sq = t.square(aug);
        let s = t.sum_all(sq);
        let g = t.backward(s);
        assert!(g.expect(a).approx_eq(&Matrix::row(&[0.6, 1.4]), 1e-12));
    }

    #[test]
    fn hstack_gradient_splits() {
        let mut t = Tape::new();
        let a = t.parameter(Matrix::from_rows(&[&[1.0], &[2.0]]));
        let b = t.parameter(Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let h = t.hstack(a, b); // 2×3
        let w = t.constant(Matrix::column(&[1.0, 10.0, 100.0]));
        let y = t.matmul(h, w);
        let s = t.sum_all(y);
        let g = t.backward(s);
        assert!(g.expect(a).approx_eq(&Matrix::column(&[1.0, 1.0]), 1e-12));
        assert!(g
            .expect(b)
            .approx_eq(&Matrix::from_rows(&[&[10.0, 100.0], &[10.0, 100.0]]), 1e-12));
    }

    #[test]
    fn softmax_ce_value_and_gradient() {
        let mut t = Tape::new();
        let logits = t.parameter(Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]));
        let loss = t.softmax_cross_entropy(logits, &[0, 1]);
        // loss = -½ [ln σ₀(2,0) + ln σ₁(0,3)]
        let p0 = (2.0f64).exp() / ((2.0f64).exp() + 1.0);
        let p1 = (3.0f64).exp() / ((3.0f64).exp() + 1.0);
        let expect = -(p0.ln() + p1.ln()) / 2.0;
        assert!((t.scalar(loss) - expect).abs() < 1e-12);
        let g = t.backward(loss);
        let gl = g.expect(logits);
        // row 0: (p - onehot)/B
        assert!((gl[(0, 0)] - (p0 - 1.0) / 2.0).abs() < 1e-12);
        assert!((gl[(0, 1)] - (1.0 - p0) / 2.0).abs() < 1e-12);
        assert!((gl[(1, 1)] - (p1 - 1.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let mut t = Tape::new();
        let c = t.constant(Matrix::filled(1, 1, 2.0));
        let p = t.parameter(Matrix::filled(1, 1, 3.0));
        let y = t.mul(c, p);
        let g = t.backward(y);
        assert!(g.get(c).is_none());
        assert_eq!(g.expect(p)[(0, 0)], 2.0);
    }

    #[test]
    fn diamond_graph_accumulates() {
        // y = x² + x² through two separate square nodes.
        let (mut t, x) = scalar_tape(3.0);
        let a = t.square(x);
        let b = t.square(x);
        let y = t.add(a, b);
        let g = t.backward(y);
        assert_eq!(g.expect(x)[(0, 0)], 12.0); // 2·2x
    }

    #[test]
    fn deep_chain_exponent() {
        // y = ((x²)²)² = x⁸, dy/dx = 8x⁷
        let (mut t, x) = scalar_tape(1.1);
        let mut y = x;
        for _ in 0..3 {
            y = t.square(y);
        }
        let g = t.backward(y);
        let expect = 8.0 * 1.1f64.powi(7);
        assert!((g.expect(x)[(0, 0)] - expect).abs() < 1e-9);
    }

    #[test]
    fn unreachable_nodes_have_no_gradient() {
        let mut t = Tape::new();
        let a = t.parameter(Matrix::filled(1, 1, 1.0));
        let b = t.parameter(Matrix::filled(1, 1, 2.0));
        let _orphan = t.square(b);
        let y = t.square(a);
        let g = t.backward(y);
        assert!(g.get(b).is_none());
    }

    #[test]
    fn nodes_no_parameter_reaches_have_no_gradient() {
        let mut t = Tape::new();
        let c = t.constant(Matrix::row(&[0.5, -0.25]));
        let folded = t.tanh(c);
        let p = t.parameter(Matrix::row(&[2.0, 3.0]));
        let y = t.mul(folded, p);
        let s = t.sum_all(y);
        assert_eq!(t.live_len(), 3); // p, y, s
        let g = t.backward(s);
        assert!(g.get(c).is_none());
        assert!(g.get(folded).is_none());
        // Intermediate gradients are handed on, not kept.
        assert!(g.get(y).is_none());
        assert!(g.get(s).is_none());
        assert_eq!(g.expect(p).as_slice(), t.value(folded).as_slice());
    }

    #[test]
    fn root_no_parameter_reaches_has_no_gradients() {
        let mut t = Tape::new();
        let p = t.parameter(Matrix::filled(1, 1, 1.0));
        let c = t.constant(Matrix::filled(1, 1, 2.0));
        let y = t.square(c);
        let g = t.backward(y);
        assert!(g.get(p).is_none());
        assert!(g.get(c).is_none());
    }

    /// A long constant-only branch costs nothing in backward and moves
    /// no parameter gradient: the same loss with the branch pre-folded
    /// into one constant yields bit-identical gradients.
    #[test]
    fn constant_branch_gradients_equal_the_prefolded_branch() {
        let x = Matrix::from_rows(&[&[0.3, -0.7, 0.1], &[0.9, 0.2, -0.4]]);
        let theta = Matrix::from_rows(&[&[0.5, -1.0], &[0.25, 0.75], &[-0.6, 0.4]]);
        let row = Matrix::row(&[1.5, -0.5]);
        let loss = |t: &mut Tape, branch: Var| {
            let w = t.parameter(theta.clone());
            let r = t.parameter(row.clone());
            let y = t.matmul(branch, w);
            let z = t.mul_row(y, r);
            let q = t.hstack(z, branch);
            let sq = t.square(q);
            let s = t.sum_all(sq);
            let e = t.mul(branch, branch);
            let es = t.sum_all(e);
            (t.add(s, es), w, r)
        };

        let mut long = Tape::new();
        let mut branch = long.constant(x.clone());
        for k in 0..12 {
            branch = long.add_scalar(branch, -0.1 * k as f64);
            branch = long.tanh(branch);
            branch = long.mul_scalar(branch, 1.3);
        }
        let folded_value = long.value(branch).clone();
        let (l1, w1, r1) = loss(&mut long, branch);
        let g1 = long.backward(l1);

        let mut short = Tape::new();
        let folded = short.constant(folded_value);
        let (l2, w2, r2) = loss(&mut short, folded);
        let g2 = short.backward(l2);

        assert_eq!(long.scalar(l1).to_bits(), short.scalar(l2).to_bits());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(g1.expect(w1)), bits(g2.expect(w2)));
        assert_eq!(bits(g1.expect(r1)), bits(g2.expect(r2)));
        assert_eq!(long.live_len(), short.live_len());
    }

    #[test]
    #[should_panic(expected = "backward: root must be a scalar")]
    fn backward_requires_scalar_root() {
        let mut t = Tape::new();
        let a = t.parameter(Matrix::zeros(2, 2));
        let b = t.square(a);
        let _ = t.backward(b);
    }

    #[test]
    fn sqrt_ln_exp_chain() {
        let (mut t, x) = scalar_tape(2.0);
        let a = t.sqrt(x); // √2
        let b = t.ln(a); // ½ ln 2
        let y = t.exp(b); // √2
        assert!((t.scalar(y) - 2.0f64.sqrt()).abs() < 1e-12);
        let g = t.backward(y);
        // d√x/dx = 1/(2√x)
        assert!((g.expect(x)[(0, 0)] - 0.5 / 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn hstack_same_node_doubles_gradient() {
        let mut t = Tape::new();
        let a = t.parameter(Matrix::from_rows(&[&[1.0, 2.0]]));
        let h = t.hstack(a, a); // 1×4
        let s = t.sum_all(h);
        assert_eq!(t.scalar(s), 6.0);
        let g = t.backward(s);
        assert!(g.expect(a).approx_eq(&Matrix::row(&[2.0, 2.0]), 1e-12));
    }

    #[test]
    fn softplus_matches_closed_form() {
        let (mut t, x) = scalar_tape(1.3);
        let y = t.softplus(x);
        assert!((t.scalar(y) - (1.0 + 1.3f64.exp()).ln()).abs() < 1e-12);
        let g = t.backward(y);
        let sig = 1.0 / (1.0 + (-1.3f64).exp());
        assert!((g.expect(x)[(0, 0)] - sig).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_tape() {
        let mut t = Tape::new();
        let _ = t.parameter(Matrix::zeros(2, 2));
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn mul_const_masks_gradient() {
        let mut t = Tape::new();
        let x = t.parameter(Matrix::row(&[1.0, 2.0, 3.0]));
        let mask = Matrix::row(&[1.0, 0.0, 1.0]);
        let y = t.mul_const(x, &mask);
        let s = t.sum_all(y);
        assert_eq!(t.scalar(s), 4.0);
        let g = t.backward(s);
        assert_eq!(g.expect(x).as_slice(), &[1.0, 0.0, 1.0]);
    }
}
