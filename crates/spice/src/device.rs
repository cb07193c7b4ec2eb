//! Compact model of the printed inorganic N-type electrolyte-gated
//! transistor (nEGT).
//!
//! The paper's circuits are built from nEGTs because they operate below
//! 1 V (Sec. II-A). We model them with an EKV-style single-expression
//! charge-sheet approximation:
//!
//! ```text
//! I_D = I_spec · [ ℓ(v_f)² − ℓ(v_r)² ],    ℓ(x) = ln(1 + eˣ)
//! v_f = (V_P − V_S) / (2 φ_t),   v_r = (V_P − V_D) / (2 φ_t)
//! V_P = (V_G − V_th) / n,        I_spec = 2 n β φ_t²,   β = K_p · W / L
//! ```
//!
//! This expression is smooth (C^∞) in all terminal voltages and in the
//! geometry `(W, L)`, covers sub-threshold through saturation, and
//! handles drain–source reversal symmetrically — exactly the properties
//! that make Newton iteration robust and that the paper's differentiable
//! power pipeline needs. Parameter magnitudes are representative of
//! published inkjet-printed inorganic EGT measurements (sub-1V
//! operation, µA–mA currents at W/L ≈ 1); they are *not* a calibrated
//! pPDK fit (see DESIGN.md §3 for the substitution rationale).

/// EKV-style nEGT compact model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EgtModel {
    /// Threshold voltage in volts.
    pub vth_volts: f64,
    /// Sub-threshold slope factor `n` (dimensionless, ≥ 1).
    // lint: dimensionless
    pub slope: f64,
    /// Thermal-equivalent voltage `φ_t` in volts. EGTs switch over a
    /// wider voltage range than silicon; we use an effective 60 mV.
    pub phi_t_volts: f64,
    /// Transconductance parameter `K_p` in A/V² at `W/L = 1`.
    // lint: allow(L004, reason = "A/V² has no single-unit suffix; units are pinned in the doc comment")
    pub kp: f64,
}

impl Default for EgtModel {
    fn default() -> Self {
        EgtModel {
            vth_volts: 0.40,
            slope: 1.25,
            phi_t_volts: 0.045,
            kp: 8.0e-4,
        }
    }
}

/// Drain current and its partial derivatives at an operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EgtEval {
    /// Drain current in amperes (positive = drain → source).
    pub id_amps: f64,
    /// `∂I_D/∂V_G`, in siemens.
    pub gm_siemens: f64,
    /// `∂I_D/∂V_D`, in siemens.
    pub gd_siemens: f64,
    /// `∂I_D/∂V_S`, in siemens.
    pub gs_siemens: f64,
}

/// Numerically stable `ln(1 + eˣ)`.
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Logistic sigmoid, the derivative of [`softplus`].
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl EgtModel {
    /// Evaluates drain current and conductances for terminal voltages
    /// `(vg, vd, vs)` and geometry `(w, l)` in meters.
    ///
    /// # Panics
    ///
    /// Panics when `w` or `l` is non-positive (design-space bounds are
    /// enforced upstream; a non-positive geometry is a programming
    /// error).
    // lint: allow(L004, reason = "only the W/L ratio enters the model; any consistent length unit works")
    pub fn eval(&self, vg_volts: f64, vd_volts: f64, vs_volts: f64, w: f64, l: f64) -> EgtEval {
        assert!(w > 0.0 && l > 0.0, "EgtModel::eval: non-positive geometry");
        let beta = self.kp * w / l;
        let ispec = 2.0 * self.slope * beta * self.phi_t_volts * self.phi_t_volts;
        let inv2phi = 1.0 / (2.0 * self.phi_t_volts);
        // Source-referenced pinch-off: EGTs have no bulk terminal, so
        // the channel charge is controlled by V_GS alone.
        let vp = (vg_volts - vs_volts - self.vth_volts) / self.slope;
        let vds = vd_volts - vs_volts;

        let af = vp * inv2phi;
        let ar = (vp - vds) * inv2phi;
        let lf = softplus(af);
        let lr = softplus(ar);
        let sf = sigmoid(af);
        let sr = sigmoid(ar);

        let id = ispec * (lf * lf - lr * lr);
        // d(ℓ²)/darg = 2 ℓ σ
        let dlf = 2.0 * lf * sf;
        let dlr = 2.0 * lr * sr;
        // arg derivatives:
        //   ∂af/∂vg = inv2phi/n     ∂af/∂vs = −inv2phi/n   ∂af/∂vd = 0
        //   ∂ar/∂vg = inv2phi/n     ∂ar/∂vd = −inv2phi
        //   ∂ar/∂vs = inv2phi·(1 − 1/n)
        let dvpn = inv2phi / self.slope;
        let gm = ispec * (dlf - dlr) * dvpn;
        let gd = ispec * dlr * inv2phi;
        let gs = ispec * (-dlf * dvpn + dlr * (dvpn - inv2phi));

        EgtEval {
            id_amps: id,
            gm_siemens: gm,
            gd_siemens: gd,
            gs_siemens: gs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: f64 = 100e-6;
    const L: f64 = 50e-6;

    #[test]
    fn off_below_threshold() {
        let m = EgtModel::default();
        let e = m.eval(0.0, 1.0, 0.0, W, L);
        // Deep sub-threshold: orders of magnitude below on-current.
        let on = m.eval(1.0, 1.0, 0.0, W, L);
        assert!(
            e.id_amps < on.id_amps * 1e-2,
            "off {} vs on {}",
            e.id_amps,
            on.id_amps
        );
        assert!(e.id_amps >= 0.0);
    }

    #[test]
    fn on_current_magnitude_is_physical() {
        // Printed EGT at ~0.7 V overdrive: tens of µA to ~mA.
        let m = EgtModel::default();
        let id = m.eval(1.0, 1.0, 0.0, W, L).id_amps;
        assert!(id > 1e-6 && id < 1e-2, "id = {id}");
    }

    #[test]
    fn current_increases_with_gate_voltage() {
        let m = EgtModel::default();
        let mut last = -1.0;
        for k in 0..20 {
            let vg = -0.5 + k as f64 * 0.1;
            let id = m.eval(vg, 1.0, 0.0, W, L).id_amps;
            assert!(id > last, "non-monotone at vg={vg}");
            last = id;
        }
    }

    #[test]
    fn current_scales_with_geometry() {
        let m = EgtModel::default();
        let a = m.eval(0.8, 1.0, 0.0, W, L).id_amps;
        let b = m.eval(0.8, 1.0, 0.0, 2.0 * W, L).id_amps;
        let c = m.eval(0.8, 1.0, 0.0, W, 2.0 * L).id_amps;
        assert!((b / a - 2.0).abs() < 1e-9, "W doubling should double I_D");
        assert!((c / a - 0.5).abs() < 1e-9, "L doubling should halve I_D");
    }

    #[test]
    fn reverse_bias_reverses_current() {
        // Swapping drain below source flips the current sign (the
        // source-referenced model is not magnitude-symmetric, but the
        // direction must reverse).
        let m = EgtModel::default();
        let fwd = m.eval(0.8, 0.6, 0.2, W, L).id_amps;
        let rev = m.eval(0.8, 0.2, 0.6, W, L).id_amps;
        assert!(fwd > 0.0);
        assert!(rev < 0.0, "reverse current should be negative: {rev}");
    }

    #[test]
    fn terminal_shift_invariance() {
        // Shifting all terminals by the same offset leaves I_D unchanged
        // (no bulk terminal), hence gm + gd + gs = 0.
        let m = EgtModel::default();
        let a = m.eval(0.7, 0.5, 0.1, W, L);
        let b = m.eval(0.7 - 0.4, 0.5 - 0.4, 0.1 - 0.4, W, L);
        assert!((a.id_amps - b.id_amps).abs() < 1e-18 + 1e-12 * a.id_amps.abs());
        assert!(
            (a.gm_siemens + a.gd_siemens + a.gs_siemens).abs()
                < 1e-12 * a.gm_siemens.abs().max(1e-12)
        );
    }

    #[test]
    fn zero_vds_means_zero_current() {
        let m = EgtModel::default();
        let e = m.eval(0.9, 0.4, 0.4, W, L);
        assert!(e.id_amps.abs() < 1e-18);
    }

    #[test]
    fn saturation_flattens_current() {
        let m = EgtModel::default();
        let i1 = m.eval(0.8, 0.9, 0.0, W, L).id_amps;
        let i2 = m.eval(0.8, 1.8, 0.0, W, L).id_amps;
        // Ideal EKV without channel-length modulation: fully flat.
        assert!((i2 - i1) / i1 < 0.01, "saturation not flat: {i1} {i2}");
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let m = EgtModel::default();
        let (vg, vd, vs) = (0.62, 0.47, 0.11);
        let e = m.eval(vg, vd, vs, W, L);
        let h = 1e-7;
        let num_gm = (m.eval(vg + h, vd, vs, W, L).id_amps - m.eval(vg - h, vd, vs, W, L).id_amps)
            / (2.0 * h);
        let num_gd = (m.eval(vg, vd + h, vs, W, L).id_amps - m.eval(vg, vd - h, vs, W, L).id_amps)
            / (2.0 * h);
        let num_gs = (m.eval(vg, vd, vs + h, W, L).id_amps - m.eval(vg, vd, vs - h, W, L).id_amps)
            / (2.0 * h);
        assert!(
            (e.gm_siemens - num_gm).abs() < 1e-6 * num_gm.abs().max(1e-9),
            "gm {} vs {num_gm}",
            e.gm_siemens
        );
        assert!(
            (e.gd_siemens - num_gd).abs() < 1e-6 * num_gd.abs().max(1e-9),
            "gd {} vs {num_gd}",
            e.gd_siemens
        );
        assert!(
            (e.gs_siemens - num_gs).abs() < 1e-6 * num_gs.abs().max(1e-9),
            "gs {} vs {num_gs}",
            e.gs_siemens
        );
    }

    #[test]
    fn conductance_signs() {
        let m = EgtModel::default();
        let e = m.eval(0.7, 0.8, 0.0, W, L);
        assert!(e.gm_siemens > 0.0, "more gate drive, more current");
        assert!(e.gd_siemens > 0.0, "more drain voltage, more current");
        assert!(e.gs_siemens < 0.0, "raising source reduces current");
    }

    #[test]
    #[should_panic(expected = "non-positive geometry")]
    fn rejects_bad_geometry() {
        let m = EgtModel::default();
        let _ = m.eval(0.5, 0.5, 0.0, 0.0, L);
    }

    #[test]
    fn softplus_stability_extremes() {
        assert_eq!(softplus(100.0), 100.0);
        assert!(softplus(-100.0) > 0.0);
        assert!(softplus(-100.0) < 1e-30);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
    }
}
