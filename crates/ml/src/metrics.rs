//! Model-quality metrics. The paper reports test error as RMSE
//! ("nodes mean RMSE", §IV-A4).

use crate::model::Model;
use rex_data::Rating;

/// Root mean square error of `model` over `test`; `None` for an empty set.
#[must_use]
pub fn rmse<M: Model>(model: &M, test: &[Rating]) -> Option<f64> {
    if test.is_empty() {
        return None;
    }
    Some((model.squared_error(test) / test.len() as f64).sqrt())
}

/// Mean absolute error of `model` over `test`; `None` for an empty set.
#[must_use]
pub fn mae<M: Model>(model: &M, test: &[Rating]) -> Option<f64> {
    if test.is_empty() {
        return None;
    }
    let sae: f64 = test
        .iter()
        .map(|r| (f64::from(model.predict(r.user, r.item)) - f64::from(r.value)).abs())
        .sum();
    Some(sae / test.len() as f64)
}

/// Mean of per-node RMSEs, the paper's y-axis ("nodes mean RMSE"). Nodes
/// with empty test sets are skipped.
#[must_use]
pub fn nodes_mean_rmse<M: Model>(models: &[M], tests: &[Vec<Rating>]) -> Option<f64> {
    assert_eq!(models.len(), tests.len());
    let values: Vec<f64> = models
        .iter()
        .zip(tests)
        .filter_map(|(m, t)| rmse(m, t))
        .collect();
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mf::{MfHyperParams, MfModel};

    fn constant_model(mean: f32) -> MfModel {
        // A fresh MF model predicts its global mean for unseen pairs.
        MfModel::new(10, 10, MfHyperParams::default(), mean, 0)
    }

    #[test]
    fn rmse_of_constant_predictor() {
        let model = constant_model(3.0);
        let test = vec![
            Rating {
                user: 0,
                item: 0,
                value: 4.0,
            },
            Rating {
                user: 1,
                item: 1,
                value: 2.0,
            },
        ];
        // Errors are ±1 -> RMSE = 1.
        assert!((rmse(&model, &test).unwrap() - 1.0).abs() < 1e-9);
        assert!((mae(&model, &test).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_test_gives_none() {
        let model = constant_model(3.0);
        assert!(rmse(&model, &[]).is_none());
        assert!(mae(&model, &[]).is_none());
    }

    #[test]
    fn nodes_mean_skips_empty() {
        let models = vec![constant_model(3.0), constant_model(3.0)];
        let tests = vec![
            vec![Rating {
                user: 0,
                item: 0,
                value: 5.0,
            }], // err 2
            vec![],
        ];
        assert!((nodes_mean_rmse(&models, &tests).unwrap() - 2.0).abs() < 1e-9);
    }
}
