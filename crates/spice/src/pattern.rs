//! Topology-keyed circuit sparsity patterns.
//!
//! The MNA stamp sequence is a pure function of circuit topology (see
//! [`crate::mna::JacobianSink`]), so a single value-free assembly walk
//! can record, once per topology, both the sparsity pattern of the
//! Jacobian and the mapping from each stamp call to its CSC value
//! position. Subsequent solves of *any* circuit sharing the topology
//! reuse the pattern, its fill-reducing ordering, and its symbolic
//! factorization — only the numeric stamping and (re)factorization run
//! per Newton iteration.
//!
//! Patterns are cached process-wide, keyed by the same FNV-1a topology
//! fingerprint the solver observatory stamps into every
//! [`crate::observe::SolveTrace`]. The cache holds *pure symbolic*
//! objects only — no per-solve numeric state — so sharing it across
//! threads cannot perturb solve trajectories or break the workspace's
//! bit-identical-for-any-thread-count invariant.

use crate::mna::{assemble_into, unknown_count, JacobianSink};
use crate::netlist::Circuit;
use crate::{observe, stats};
use pnc_linalg::sparse::{PatternBuilder, SparsityPattern, SymbolicLu};
use std::sync::{Arc, Mutex, OnceLock};

/// One circuit topology's reusable solve structure: the CSC sparsity
/// pattern, the stamp-call→value-position map, and the symbolic LU.
/// The topology fingerprint lives in the cache entry, not here.
#[derive(Debug)]
pub(crate) struct CircuitPattern {
    pattern: SparsityPattern,
    /// CSC value position of the k-th `add` call in assembly order.
    positions: Vec<usize>,
    symbolic: Arc<SymbolicLu>,
}

/// Recording sink: allocates a pattern slot per stamp call.
struct RecordSink {
    builder: PatternBuilder,
    slots: Vec<usize>,
}

impl JacobianSink for RecordSink {
    fn add(&mut self, row: usize, col: usize, _v: f64) {
        self.slots.push(self.builder.slot(row, col));
    }
}

/// Stamping sink: accumulates values into preallocated CSC positions,
/// consuming the recorded position list in assembly order.
struct StampSink<'a> {
    positions: &'a [usize],
    next: usize,
    values: &'a mut [f64],
}

impl JacobianSink for StampSink<'_> {
    fn add(&mut self, _row: usize, _col: usize, v: f64) {
        self.values[self.positions[self.next]] += v;
        self.next += 1;
    }
}

impl CircuitPattern {
    /// Records the pattern of `circuit` with one value-free assembly
    /// walk and runs the symbolic analysis.
    fn build(circuit: &Circuit) -> CircuitPattern {
        let n = unknown_count(circuit);
        let x = vec![0.0; n];
        let mut f = vec![0.0; n];
        let mut sink = RecordSink {
            builder: PatternBuilder::new(n),
            slots: Vec::new(),
        };
        assemble_into(circuit, &x, &mut sink, &mut f);
        let RecordSink { builder, slots } = sink;
        let pattern = builder.build();
        let positions = slots.iter().map(|&s| pattern.slot_position(s)).collect();
        let symbolic = Arc::new(SymbolicLu::analyze(&pattern));
        CircuitPattern {
            pattern,
            positions,
            symbolic,
        }
    }

    /// Matrix dimension (number of MNA unknowns).
    pub(crate) fn dim(&self) -> usize {
        self.pattern.dim()
    }

    /// Structural non-zero count of the Jacobian.
    pub(crate) fn nnz(&self) -> usize {
        self.pattern.nnz()
    }

    /// The shared symbolic factorization.
    pub(crate) fn symbolic(&self) -> &Arc<SymbolicLu> {
        &self.symbolic
    }

    /// Fresh zeroed CSC value buffer sized for this pattern.
    pub(crate) fn new_values(&self) -> Vec<f64> {
        self.pattern.new_values()
    }

    /// Stamps the Jacobian values and residual of `circuit` at guess
    /// `x` into preallocated buffers. `values` and `f` are zeroed here;
    /// callers reuse them across Newton iterations without clearing.
    ///
    /// # Panics
    ///
    /// Panics when the buffers do not match this pattern's shape or the
    /// circuit's topology differs from the one the pattern was built
    /// for.
    pub(crate) fn stamp(&self, circuit: &Circuit, x: &[f64], values: &mut [f64], f: &mut [f64]) {
        assert_eq!(
            values.len(),
            self.pattern.nnz(),
            "stamp: value buffer mismatch"
        );
        for v in values.iter_mut() {
            *v = 0.0;
        }
        for r in f.iter_mut() {
            *r = 0.0;
        }
        let mut sink = StampSink {
            positions: &self.positions,
            next: 0,
            values,
        };
        assemble_into(circuit, x, &mut sink, f);
        assert_eq!(
            sink.next,
            self.positions.len(),
            "stamp: stamp-call count diverged from recorded topology"
        );
    }
}

/// Cached patterns keyed by sparsity fingerprint, in insertion order.
type PatternCache = Mutex<Vec<(u64, Arc<CircuitPattern>)>>;

// lint: allow(L003, reason = "process-wide cache of pure-topology symbolic objects; holds no per-solve numeric state, so sharing cannot perturb solve trajectories")
static PATTERN_CACHE: OnceLock<PatternCache> = OnceLock::new();

/// Returns the cached pattern for the circuit's topology, building and
/// inserting it on first sight. Hits and misses feed the process-wide
/// solver counters.
pub(crate) fn cached_pattern(circuit: &Circuit) -> Arc<CircuitPattern> {
    let fp = observe::pattern_fingerprint(circuit);
    let n = unknown_count(circuit);
    let cache = PATTERN_CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let mut guard = cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some((_, p)) = guard.iter().find(|(k, p)| *k == fp && p.dim() == n) {
        stats::record_pattern_hit();
        return Arc::clone(p);
    }
    stats::record_pattern_miss();
    let built = Arc::new(CircuitPattern::build(circuit));
    guard.push((fp, Arc::clone(&built)));
    built
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mna::assemble;

    fn inverter() -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource(vdd, Circuit::GROUND, 1.0);
        c.vsource(vin, Circuit::GROUND, 0.5);
        c.resistor(vdd, out, 100_000.0);
        c.egt(out, vin, Circuit::GROUND, 2e-4, 2e-5);
        c
    }

    #[test]
    fn stamped_values_match_dense_assembly() {
        let c = inverter();
        let pat = CircuitPattern::build(&c);
        let n = unknown_count(&c);
        let x: Vec<f64> = (0..n).map(|i| 0.1 * i as f64).collect();
        let mut vals = pat.new_values();
        let mut f = vec![0.0; n];
        pat.stamp(&c, &x, &mut vals, &mut f);

        let sys = assemble(&c, &x);
        let dense = pat.pattern.to_dense(&vals);
        for r in 0..n {
            for col in 0..n {
                let d = (dense[(r, col)] - sys.jacobian[(r, col)]).abs();
                assert!(d < 1e-15, "J[{r}][{col}] diverged by {d}");
            }
        }
        for (k, (a, b)) in f.iter().zip(&sys.residual).enumerate() {
            assert!((a - b).abs() < 1e-15, "f[{k}]: {a} vs {b}");
        }
    }

    #[test]
    fn stamp_reuses_buffers_without_manual_clearing() {
        let c = inverter();
        let pat = CircuitPattern::build(&c);
        let n = unknown_count(&c);
        let mut vals = pat.new_values();
        let mut f = vec![0.0; n];
        let x1 = vec![0.3; n];
        pat.stamp(&c, &x1, &mut vals, &mut f);
        let first = vals.clone();
        let x2 = vec![0.7; n];
        pat.stamp(&c, &x2, &mut vals, &mut f);
        pat.stamp(&c, &x1, &mut vals, &mut f);
        assert_eq!(vals, first, "re-stamping the same guess must be idempotent");
    }

    #[test]
    fn cache_hits_on_shared_topology() {
        // Two circuits with identical topology but different values
        // share one pattern object; a different topology gets its own.
        let a = inverter();
        let mut b = inverter();
        b.set_vsource(1, 0.9).unwrap();
        let pa = cached_pattern(&a);
        let pb = cached_pattern(&b);
        assert!(
            Arc::ptr_eq(&pa, &pb),
            "same topology must share the pattern"
        );

        let mut other = Circuit::new();
        let p = other.node("p");
        other.vsource(p, Circuit::GROUND, 1.0);
        other.resistor(p, Circuit::GROUND, 50.0);
        let po = cached_pattern(&other);
        assert!(!Arc::ptr_eq(&pa, &po));
    }
}
