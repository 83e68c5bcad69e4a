//! Figure 6: training and validation loss curves of the two models
//! (power: 100 epochs, performance: 25 epochs).

use super::Lab;
use serde::{Deserialize, Serialize};

/// The Figure 6 report: both models' loss histories. Training wall time
/// is not part of it (it differs from run to run); [`run`] logs it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Report {
    /// Power-model training loss per epoch (panel a).
    pub power_train: Vec<f64>,
    /// Power-model validation loss per epoch.
    pub power_val: Vec<f64>,
    /// Time-model training loss per epoch (panel b).
    pub time_train: Vec<f64>,
    /// Time-model validation loss per epoch.
    pub time_val: Vec<f64>,
}

/// Extracts the loss histories from the lab's trained pipeline, and logs
/// each model's training wall time (paper: ~6.5 s and ~2.6 s) to stderr.
pub fn run(lab: &Lab) -> Fig6Report {
    let m = &lab.pipeline.models;
    obs::log!(
        Info,
        "[fig6] power model trained in {:.1}s wall, performance model in {:.1}s wall",
        m.power_history.train_seconds,
        m.time_history.train_seconds
    );
    Fig6Report {
        power_train: m.power_history.train_loss.clone(),
        power_val: m.power_history.val_loss.clone(),
        time_train: m.time_history.train_loss.clone(),
        time_val: m.time_history.val_loss.clone(),
    }
}

impl Fig6Report {
    /// Renders the two loss curves.
    pub fn render(&self) -> String {
        let mut out = String::from("== Figure 6: model training losses ==\n");
        out.push_str(&format!(
            "(a) power model: {} epochs\n",
            self.power_train.len()
        ));
        render_curve(&mut out, &self.power_train, &self.power_val);
        out.push_str(&format!(
            "(b) performance model: {} epochs\n",
            self.time_train.len()
        ));
        render_curve(&mut out, &self.time_train, &self.time_val);
        out
    }
}

fn render_curve(out: &mut String, train: &[f64], val: &[f64]) {
    let step = (train.len() / 10).max(1);
    for i in (0..train.len()).step_by(step) {
        out.push_str(&format!(
            "  epoch {:>3}  train {:.5}  val {:.5}\n",
            i + 1,
            train[i],
            val.get(i).copied().unwrap_or(f64::NAN)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::super::testlab;
    use super::*;

    #[test]
    fn epoch_counts_match_paper() {
        let r = run(testlab::shared());
        assert_eq!(r.power_train.len(), 100);
        assert_eq!(r.time_train.len(), 25);
        assert_eq!(r.power_val.len(), 100);
    }

    #[test]
    fn losses_converge() {
        let r = run(testlab::shared());
        assert!(r.power_train.last().unwrap() < &(r.power_train[0] / 5.0));
        assert!(r.time_train.last().unwrap() < &(r.time_train[0] / 2.0));
    }

    #[test]
    fn validation_tracks_training_without_blowup() {
        let r = run(testlab::shared());
        let last_train = *r.power_train.last().unwrap();
        let last_val = *r.power_val.last().unwrap();
        // Validation close to training at convergence (Figure 6a shows the
        // two curves coinciding).
        assert!(
            last_val < 6.0 * last_train + 1e-4,
            "val {last_val} vs train {last_train}"
        );
    }

    #[test]
    fn training_is_fast_like_the_paper() {
        // Paper reports 6.5 s / 2.6 s; the simulator-scale dataset should
        // train in the same order of magnitude.
        let m = &testlab::shared().pipeline.models;
        let (power_s, time_s) = (m.power_history.train_seconds, m.time_history.train_seconds);
        // Debug-build tests run the un-optimized trainer; keep the bounds
        // loose and rely on the relative ordering (100 epochs > 25 epochs,
        // matching the paper's 6.5 s vs 2.6 s split).
        assert!(power_s < 1200.0);
        assert!(time_s < 600.0);
        assert!(power_s > time_s);
    }
}
