//! Section 3.3: the O(k²n) efficient evaluation vs the naive O(k²n²)
//! double loop, measured on dense inputs for both the Mahalanobis
//! (Eq. 10) and DNN (Eq. 11) distances — a wall-clock sweep for
//! EXPERIMENTS.md.

use crate::runner::ExpConfig;
use gmlfm_core::{DenseGmlFm, DenseTransform, DnnTransform};
use gmlfm_eval::Table;
use gmlfm_tensor::init::normal;
use gmlfm_tensor::seeded_rng;
use std::time::Instant;

/// Times both evaluation paths of both distances over growing `n`;
/// writes `efficiency.csv`.
pub fn run(cfg: &ExpConfig) {
    println!("\n== Section 3.3: naive O(k²n²) vs efficient O(k²n) second-order evaluation ==\n");
    let k = cfg.k.max(8);
    let mut table = Table::new(&[
        "n",
        "Eq. 10 naive (µs)",
        "Eq. 10 efficient (µs)",
        "speedup",
        "Eq. 11 naive (µs)",
        "Eq. 11 efficient (µs)",
        "speedup",
    ]);
    let mut csv = Table::new(&["n", "naive_us", "efficient_us", "dnn_naive_us", "dnn_efficient_us"]);
    for n in [64usize, 128, 256, 512, 1024, 2048] {
        let mut rng = seeded_rng(cfg.seed ^ n as u64);
        let v = normal(&mut rng, n, k, 0.0, 0.3);
        let h = normal(&mut rng, 1, k, 0.0, 0.3).into_vec();
        let l = normal(&mut rng, k, k, 0.0, 0.3);
        let x: Vec<f64> = normal(&mut rng, 1, n, 0.0, 1.0).into_vec();
        let dnn = DnnTransform {
            weights: vec![normal(&mut rng, k, k, 0.0, 0.4)],
            biases: vec![normal(&mut rng, 1, k, 0.0, 0.1)],
        };

        let reps = (200_000 / n).max(1);
        let mut row = vec![n.to_string()];
        let mut csv_row = row.clone();
        for transform in [DenseTransform::Mahalanobis(l.matmul_tn(&l)), DenseTransform::Dnn(dnn)] {
            let model = DenseGmlFm { v: v.clone(), h: h.clone(), transform };
            let t0 = Instant::now();
            let mut acc = 0.0;
            for _ in 0..reps {
                acc += model.second_order_naive(&x);
            }
            let naive_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
            let t1 = Instant::now();
            for _ in 0..reps {
                acc -= model.second_order_efficient(&x);
            }
            let efficient_us = t1.elapsed().as_secs_f64() * 1e6 / reps as f64;
            assert!(acc.abs() < 1e-3 * reps as f64, "paths disagree: residual {acc}");
            let timings = [format!("{naive_us:.1}"), format!("{efficient_us:.1}")];
            row.extend_from_slice(&timings);
            row.push(format!("{:.1}x", naive_us / efficient_us));
            csv_row.extend(timings);
        }
        table.push_row(row);
        csv.push_row(csv_row);
    }
    println!("{}", table.to_markdown());
    println!("Expected shape: naive time grows ~4x per doubling of n, efficient ~2x; the gap widens linearly in n.");
    csv.write_csv(cfg.out_dir.join("efficiency.csv")).expect("write efficiency.csv");
}
