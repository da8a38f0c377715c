//! Field-major batching: turning sparse instances into per-field index
//! columns for embedding gathers.

use gmlfm_data::Instance;
use gmlfm_tensor::Matrix;

/// Transposes a batch of instances into per-field index columns:
/// `result[f][b]` is the global feature index of field `f` in instance
/// `b`. Every graph model gathers its embeddings this way.
///
/// # Panics
/// Panics when instances disagree on the number of fields (all instances
/// of a dataset/mask share a field count by construction).
pub fn field_index_columns(batch: &[&Instance]) -> Vec<Vec<usize>> {
    let Some(first) = batch.first() else { return Vec::new() };
    let m = first.n_fields();
    let mut cols = vec![Vec::with_capacity(batch.len()); m];
    for inst in batch {
        assert_eq!(
            inst.n_fields(),
            m,
            "field_index_columns: ragged batch ({} vs {m} fields)",
            inst.n_fields()
        );
        for (f, &idx) in inst.feats.iter().enumerate() {
            cols[f].push(idx as usize);
        }
    }
    cols
}

/// The sorted distinct values of one index column and, for each row, the
/// position of its value among them: `col[b] == uniq[inv[b]]`. A model
/// whose per-row work depends only on the row's feature computes it once
/// per entry of `uniq` and gathers the result back with `inv`.
pub fn unique_with_inverse(col: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut uniq = col.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    let inv = col
        .iter()
        .map(|x| uniq.binary_search(x).expect("value taken from col"))
        .collect();
    (uniq, inv)
}

/// Labels of a batch as a `B x 1` column.
pub fn labels_column(batch: &[&Instance]) -> Matrix {
    Matrix::from_vec(batch.len(), 1, batch.iter().map(|i| i.label).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_transpose_the_batch() {
        let a = Instance::new(vec![0, 5, 9], 1.0);
        let b = Instance::new(vec![1, 6, 9], -1.0);
        let batch = [&a, &b];
        let cols = field_index_columns(&batch);
        assert_eq!(cols, vec![vec![0, 1], vec![5, 6], vec![9, 9]]);
        let labels = labels_column(&batch);
        assert_eq!(labels.as_slice(), &[1.0, -1.0]);
    }

    #[test]
    fn empty_batch_yields_no_columns() {
        let cols = field_index_columns(&[]);
        assert!(cols.is_empty());
    }

    #[test]
    fn unique_with_inverse_of_empty_duplicate_and_unique_columns() {
        let cases: [(&[usize], (Vec<usize>, _)); 3] = [
            (&[], (vec![], vec![])),
            (&[7; 5], (vec![7], vec![0; 5])),
            (&[4, 1, 9], (vec![1, 4, 9], vec![1, 0, 2])),
        ];
        for (col, want) in cases {
            assert_eq!(unique_with_inverse(col), want, "{col:?}");
        }
    }

    #[test]
    fn unique_with_inverse_reconstructs_the_column() {
        let col = [5, 3, 5, 12, 0, 3, 3, 12, 8];
        let (uniq, inv) = unique_with_inverse(&col);
        assert!(uniq.windows(2).all(|w| w[0] < w[1]), "{uniq:?} not strictly sorted");
        assert_eq!(inv.len(), col.len());
        for (b, &x) in col.iter().enumerate() {
            assert_eq!(uniq[inv[b]], x);
        }
    }

    #[test]
    #[should_panic(expected = "ragged batch")]
    fn ragged_batches_are_rejected() {
        let a = Instance::new(vec![0, 5], 1.0);
        let b = Instance::new(vec![1], -1.0);
        let _ = field_index_columns(&[&a, &b]);
    }
}
