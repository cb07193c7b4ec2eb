//! Mask-based fine-tuning (paper Sec. IV-A1).
//!
//! "Following the primary training phase, a fine-tuning step was
//! conducted to enhance accuracy while strictly adhering to power
//! constraints. During this process, masks m^C were generated to
//! deactivate inactive components […] The model was then retrained
//! using cross-entropy loss, optimizing accuracy without violating the
//! power constraints."
//!
//! Implementation: build pruning masks from the converged parameters,
//! retrain with cross-entropy only, and track the best model that
//! remains within the budget; if no epoch of the fine-tune stays
//! feasible, the pre-fine-tune parameters are restored.

use crate::auglag::hard_power;
use crate::error::TrainError;
use crate::multi::{epoch_measure, ConstraintKind};
use crate::observer::NoopObserver;
use crate::trainer::{fit_instrumented, DataRefs, FitContext, Iterate, TrainConfig};
use pnc_core::PrintedNetwork;

/// Result of the fine-tuning phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinetuneReport {
    /// Crossbar entries pruned by the masks.
    pub pruned_entries: usize,
    /// Validation accuracy before fine-tuning.
    pub val_accuracy_before: f64,
    /// Validation accuracy after fine-tuning (restored model).
    pub val_accuracy_after: f64,
    /// Hard power after fine-tuning, watts.
    pub power_watts: f64,
    /// Whether the final model satisfies the budget.
    pub feasible: bool,
}

/// Prunes and fine-tunes `net` under the power budget, in place.
///
/// # Errors
///
/// Returns [`TrainError::Core`] when data shapes disagree with the
/// network topology, and [`TrainError::NonFinite`] on numerical
/// collapse during the retrain.
pub fn finetune(
    net: &mut PrintedNetwork,
    data: &DataRefs<'_>,
    budget_watts: f64,
    cfg: &TrainConfig,
) -> Result<FinetuneReport, TrainError> {
    let before_acc = net.accuracy(data.x_val, data.y_val)?;
    let before_params = net.param_values();
    let before_power = hard_power(net, data.x_train)?;

    let pruned = net.build_masks();
    let budget = [ConstraintKind::Power { budget_watts }];
    let measure = |it: &Iterate<'_>| epoch_measure(&budget, it);
    let report = fit_instrumented(
        net,
        data,
        cfg,
        &|_tape, _bound, ce| ce,
        &measure,
        &FitContext::default(),
        &mut NoopObserver,
    )?;

    // If fine-tuning never found a feasible iterate (and we started
    // feasible), roll back.
    let power = hard_power(net, data.x_train)?;
    if power > budget_watts && before_power <= budget_watts {
        net.clear_masks();
        net.set_param_values(&before_params);
        return Ok(FinetuneReport {
            pruned_entries: pruned,
            val_accuracy_before: before_acc,
            val_accuracy_after: before_acc,
            power_watts: before_power,
            feasible: true,
        });
    }

    Ok(FinetuneReport {
        pruned_entries: pruned,
        val_accuracy_before: before_acc,
        val_accuracy_after: report.best_val_accuracy,
        power_watts: power,
        feasible: power <= budget_watts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auglag::{train_auglag_observed, AugLagConfig};
    use crate::trainer::fit_cross_entropy;
    use crate::trainer::test_support::tiny_network;
    use pnc_datasets::{Dataset, DatasetId};

    #[test]
    fn finetune_respects_budget() {
        let ds = Dataset::generate(DatasetId::Iris, 9);
        let split = ds.split(5);
        let data = DataRefs::from_split(&split);

        let mut ref_net = tiny_network(4, 3, 51);
        fit_cross_entropy(&mut ref_net, &data, &TrainConfig::smoke()).unwrap();
        let p_max = hard_power(&ref_net, data.x_train).unwrap();
        let budget = 0.4 * p_max;

        let mut net = tiny_network(4, 3, 51);
        let al = train_auglag_observed(
            &mut net,
            &data,
            &AugLagConfig::smoke(budget),
            &mut NoopObserver,
        )
        .unwrap();
        let ft = finetune(&mut net, &data, budget, &TrainConfig::smoke()).unwrap();

        assert!(ft.feasible, "fine-tune must stay within budget: {ft:?}");
        assert!(ft.power_watts <= budget * 1.02);
        // Fine-tuning must not destroy the model.
        assert!(
            ft.val_accuracy_after >= al.val_accuracy - 0.15,
            "fine-tune regressed too far: {} → {}",
            al.val_accuracy,
            ft.val_accuracy_after
        );
    }

    #[test]
    fn finetune_reports_pruning() {
        let ds = Dataset::generate(DatasetId::Iris, 10);
        let split = ds.split(6);
        let data = DataRefs::from_split(&split);
        let mut net = tiny_network(4, 3, 53);
        // Push some weights under the pruning threshold.
        let mut values = net.param_values();
        for v in values[0].as_mut_slice().iter_mut().take(5) {
            *v *= 1e-4;
        }
        net.set_param_values(&values);
        let p0 = hard_power(&net, data.x_train).unwrap();
        let ft = finetune(
            &mut net,
            &data,
            p0 * 10.0,
            &TrainConfig {
                max_epochs: 10,
                ..TrainConfig::smoke()
            },
        )
        .unwrap();
        assert!(ft.pruned_entries >= 5, "{ft:?}");
    }
}
