//! Plain-text persistence for fitted surrogate models.
//!
//! Paper-scale surrogate fitting costs minutes to hours (10,000 SPICE
//! samples per activation); nobody wants to pay that per process.
//! This module serializes fitted [`PowerSurrogate`]s and
//! [`TransferModel`]s to a simple line-oriented text format (no external
//! serialization crates — see DESIGN.md §6) and restores them exactly:
//! round-tripped models produce bit-identical predictions.
//!
//! Format: `key value…` lines; vectors are space-separated with full
//! hex-float precision (`f64::to_bits` as hex) so round-trips are exact.

use crate::error::SurrogateError;
use crate::mlp::Mlp;
use crate::power_model::PowerSurrogate;
use crate::transfer::TransferModel;
use pnc_linalg::stats::Standardizer;
use pnc_spice::AfKind;

fn kind_name(kind: AfKind) -> &'static str {
    match kind {
        AfKind::PRelu => "p-relu",
        AfKind::PClippedRelu => "p-clipped-relu",
        AfKind::PSigmoid => "p-sigmoid",
        AfKind::PTanh => "p-tanh",
    }
}

fn kind_from_name(name: &str) -> Result<AfKind, SurrogateError> {
    match name {
        "p-relu" => Ok(AfKind::PRelu),
        "p-clipped-relu" => Ok(AfKind::PClippedRelu),
        "p-sigmoid" => Ok(AfKind::PSigmoid),
        "p-tanh" => Ok(AfKind::PTanh),
        other => Err(SurrogateError::FitDiverged {
            context: format!("unknown activation kind '{other}' in model file"),
        }),
    }
}

fn write_floats(out: &mut String, key: &str, values: &[f64]) {
    out.push_str(key);
    for v in values {
        out.push(' ');
        out.push_str(&format!("{:016x}", v.to_bits()));
    }
    out.push('\n');
}

fn write_usizes(out: &mut String, key: &str, values: &[usize]) {
    out.push_str(key);
    for v in values {
        out.push(' ');
        out.push_str(&v.to_string());
    }
    out.push('\n');
}

/// One parsed `key value…` line.
struct Line<'a> {
    key: &'a str,
    rest: Vec<&'a str>,
}

fn parse_lines(text: &str) -> Vec<Line<'_>> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut it = l.split_whitespace();
            let key = it.next().unwrap_or("");
            Line {
                key,
                rest: it.collect(),
            }
        })
        .collect()
}

fn find<'a, 'b>(lines: &'a [Line<'b>], key: &str) -> Result<&'a Line<'b>, SurrogateError> {
    lines
        .iter()
        .find(|l| l.key == key)
        .ok_or_else(|| SurrogateError::FitDiverged {
            context: format!("missing '{key}' in model file"),
        })
}

fn floats(line: &Line<'_>) -> Result<Vec<f64>, SurrogateError> {
    line.rest
        .iter()
        .map(|s| {
            u64::from_str_radix(s, 16).map(f64::from_bits).map_err(|_| {
                SurrogateError::FitDiverged {
                    context: format!("bad float field '{s}'"),
                }
            })
        })
        .collect()
}

fn usizes(line: &Line<'_>) -> Result<Vec<usize>, SurrogateError> {
    line.rest
        .iter()
        .map(|s| {
            s.parse().map_err(|_| SurrogateError::FitDiverged {
                context: format!("bad integer field '{s}'"),
            })
        })
        .collect()
}

/// Serializes a fitted power surrogate.
pub fn power_to_string(model: &PowerSurrogate) -> String {
    let (kind, scaler, mlp, y_mean, y_std, r2) = model.parts();
    let mut out = String::from("# pnc power surrogate v1\n");
    out.push_str(&format!("kind {}\n", kind_name(kind)));
    write_floats(&mut out, "x_mean", scaler.mean());
    write_floats(&mut out, "x_std", scaler.std());
    write_floats(&mut out, "y_stats", &[y_mean, y_std, r2]);
    write_usizes(&mut out, "mlp_dims", &mlp.dims());
    write_floats(&mut out, "mlp_flat", &mlp.to_flat());
    out
}

/// Restores a power surrogate written by [`power_to_string`].
///
/// # Errors
///
/// Returns [`SurrogateError::FitDiverged`] with context on any format
/// problem.
pub fn power_from_string(text: &str) -> Result<PowerSurrogate, SurrogateError> {
    let lines = parse_lines(text);
    let kind = kind_from_name(
        find(&lines, "kind")?
            .rest
            .first()
            .copied()
            .unwrap_or_default(),
    )?;
    let x_mean = floats(find(&lines, "x_mean")?)?;
    let x_std = floats(find(&lines, "x_std")?)?;
    let y = floats(find(&lines, "y_stats")?)?;
    if y.len() != 3 {
        return Err(SurrogateError::FitDiverged {
            context: "y_stats must have 3 fields".to_string(),
        });
    }
    let dims = usizes(find(&lines, "mlp_dims")?)?;
    let flat = floats(find(&lines, "mlp_flat")?)?;
    let mlp = Mlp::from_flat(&dims, &flat);
    let scaler = Standardizer::from_parts(x_mean, x_std);
    Ok(PowerSurrogate::from_parts(
        kind, scaler, mlp, y[0], y[1], y[2],
    ))
}

/// Serializes a fitted transfer surrogate.
pub fn transfer_to_string(model: &TransferModel) -> String {
    let (kind, scaler, mlp, coef_mean, coef_std, rmse) = model.parts();
    let mut out = String::from("# pnc transfer surrogate v1\n");
    out.push_str(&format!("kind {}\n", kind_name(kind)));
    write_floats(&mut out, "x_mean", scaler.mean());
    write_floats(&mut out, "x_std", scaler.std());
    write_floats(&mut out, "coef_mean", &coef_mean);
    write_floats(&mut out, "coef_std", &coef_std);
    write_floats(&mut out, "rmse", &[rmse]);
    write_usizes(&mut out, "mlp_dims", &mlp.dims());
    write_floats(&mut out, "mlp_flat", &mlp.to_flat());
    out
}

/// Restores a transfer surrogate written by [`transfer_to_string`].
///
/// # Errors
///
/// Returns [`SurrogateError::FitDiverged`] with context on any format
/// problem.
pub fn transfer_from_string(text: &str) -> Result<TransferModel, SurrogateError> {
    let lines = parse_lines(text);
    let kind = kind_from_name(
        find(&lines, "kind")?
            .rest
            .first()
            .copied()
            .unwrap_or_default(),
    )?;
    let x_mean = floats(find(&lines, "x_mean")?)?;
    let x_std = floats(find(&lines, "x_std")?)?;
    let cm = floats(find(&lines, "coef_mean")?)?;
    let cs = floats(find(&lines, "coef_std")?)?;
    if cm.len() != 4 || cs.len() != 4 {
        return Err(SurrogateError::FitDiverged {
            context: "coef stats must have 4 fields".to_string(),
        });
    }
    let rmse = floats(find(&lines, "rmse")?)?
        .first()
        .copied()
        .unwrap_or(f64::NAN);
    let dims = usizes(find(&lines, "mlp_dims")?)?;
    let flat = floats(find(&lines, "mlp_flat")?)?;
    let mlp = Mlp::from_flat(&dims, &flat);
    let scaler = Standardizer::from_parts(x_mean, x_std);
    Ok(TransferModel::from_parts(
        kind,
        scaler,
        mlp,
        [cm[0], cm[1], cm[2], cm[3]],
        [cs[0], cs[1], cs[2], cs[3]],
        rmse,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_model::PowerSurrogateConfig;
    use crate::transfer::fit_transfer;
    use pnc_linalg::Matrix;
    use pnc_telemetry::Telemetry;

    #[test]
    fn power_roundtrip_is_exact() {
        let model = PowerSurrogate::fit(
            AfKind::PRelu,
            &PowerSurrogateConfig::smoke(),
            &Telemetry::disabled(),
        )
        .unwrap();
        let text = power_to_string(&model);
        let restored = power_from_string(&text).unwrap();
        let d = AfKind::PRelu.default_design();
        assert_eq!(model.predict(d.q()), restored.predict(d.q()));
        assert_eq!(model.validation_r2(), restored.validation_r2());
        assert_eq!(model.kind(), restored.kind());
    }

    #[test]
    fn transfer_roundtrip_is_exact() {
        let model = fit_transfer(AfKind::PTanh, 12, 9, &Telemetry::disabled()).unwrap();
        let text = transfer_to_string(&model);
        let restored = transfer_from_string(&text).unwrap();
        let d = AfKind::PTanh.default_design();
        let v = Matrix::row(&[-0.5, 0.0, 0.5]);
        assert_eq!(
            model.eval(&v, d.q()).as_slice(),
            restored.eval(&v, d.q()).as_slice()
        );
        assert_eq!(model.fit_rmse(), restored.fit_rmse());
    }

    #[test]
    fn corrupted_files_are_rejected_with_context() {
        let model = PowerSurrogate::fit(
            AfKind::PRelu,
            &PowerSurrogateConfig::smoke(),
            &Telemetry::disabled(),
        )
        .unwrap();
        let text = power_to_string(&model);

        let missing_key = text.replace("x_mean", "x_nope");
        let e = power_from_string(&missing_key).unwrap_err();
        assert!(e.to_string().contains("x_mean"), "{e}");

        let bad_kind = text.replace("p-relu", "p-gelu");
        let e = power_from_string(&bad_kind).unwrap_err();
        assert!(e.to_string().contains("p-gelu"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let model = PowerSurrogate::fit(
            AfKind::PRelu,
            &PowerSurrogateConfig::smoke(),
            &Telemetry::disabled(),
        )
        .unwrap();
        let text = format!("# header\n\n{}\n# trailer\n", power_to_string(&model));
        assert!(power_from_string(&text).is_ok());
    }
}
