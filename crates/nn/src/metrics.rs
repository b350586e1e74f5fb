use crate::NnError;

/// Fraction of predictions equal to the labels.
///
/// # Errors
///
/// Returns [`NnError::BadLabels`] if the slices have different lengths or
/// are empty.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> Result<f64, NnError> {
    if predictions.len() != labels.len() || predictions.is_empty() {
        return Err(NnError::BadLabels {
            reason: format!(
                "{} predictions vs {} labels",
                predictions.len(),
                labels.len()
            ),
        });
    }
    let correct = predictions
        .iter()
        .zip(labels.iter())
        .filter(|(p, l)| p == l)
        .count();
    Ok(correct as f64 / labels.len() as f64)
}

/// A `classes × classes` confusion matrix; `matrix[true][pred]` counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<usize>,
}

impl ConfusionMatrix {
    /// Builds the matrix from prediction/label pairs.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadLabels`] on length mismatch or out-of-range
    /// entries.
    pub fn from_predictions(
        predictions: &[usize],
        labels: &[usize],
        classes: usize,
    ) -> Result<Self, NnError> {
        if predictions.len() != labels.len() {
            return Err(NnError::BadLabels {
                reason: "prediction/label length mismatch".to_string(),
            });
        }
        let mut counts = vec![0usize; classes * classes];
        for (&p, &l) in predictions.iter().zip(labels.iter()) {
            if p >= classes || l >= classes {
                return Err(NnError::BadLabels {
                    reason: format!("entry ({l}, {p}) out of range for {classes} classes"),
                });
            }
            counts[l * classes + p] += 1;
        }
        Ok(ConfusionMatrix { classes, counts })
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Count of samples with true class `t` predicted as `p`.
    pub fn count(&self, t: usize, p: usize) -> usize {
        self.counts[t * self.classes + p]
    }

    /// Per-class recall (diagonal over row sums); `None` when a class has
    /// no samples.
    pub fn recall(&self, class: usize) -> Option<f64> {
        let row: usize = (0..self.classes).map(|p| self.count(class, p)).sum();
        if row == 0 {
            None
        } else {
            Some(self.count(class, class) as f64 / row as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[0, 1, 2], &[0, 1, 1]).unwrap(), 2.0 / 3.0);
        assert!(accuracy(&[0], &[0, 1]).is_err());
        assert!(accuracy(&[], &[]).is_err());
    }

    #[test]
    fn confusion_matrix_counts_and_recall() {
        let cm = ConfusionMatrix::from_predictions(&[0, 1, 1, 0], &[0, 1, 0, 0], 2).unwrap();
        assert_eq!(cm.count(0, 0), 2);
        assert_eq!(cm.count(0, 1), 1);
        assert_eq!(cm.count(1, 1), 1);
        assert_eq!(cm.recall(0), Some(2.0 / 3.0));
        assert_eq!(cm.recall(1), Some(1.0));
        assert!(ConfusionMatrix::from_predictions(&[5], &[0], 2).is_err());
    }
}
