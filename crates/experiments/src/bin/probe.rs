//! Hyper-parameter probe used while calibrating the reproduction; kept as
//! a tuning utility. Prints the ground-truth oracle bound plus
//! train-loss trajectories and test metrics for GML-FM_dnn on
//! Mercari-Ticket across learning rates and dropout settings.

use gmlfm_core::{GmlFm, GmlFmConfig};
use gmlfm_data::{generate_with_truth, loo_split, rating_split, DatasetSpec, FieldMask};
use gmlfm_eval::{evaluate_rating, evaluate_topn};
use gmlfm_train::{fit_regression, TrainConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: f64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(0.35);
    let spec = DatasetSpec::MercariTicket;
    let (dataset, truth) = generate_with_truth(&spec.config(2023).scaled(scale));
    let mask = FieldMask::all(&dataset.schema);
    let rating = rating_split(&dataset, &mask, 2, 7);
    let loo = loo_split(&dataset, &mask, 2, 99, 8);
    println!(
        "{}: {} train rating instances, {} loo-train, {} test users",
        spec.name(),
        rating.train.len(),
        loo.train.len(),
        loo.test.len()
    );

    // Oracle bound: fit a*score+b on train, evaluate on test.
    {
        let codec = gmlfm_models::PairCodec::from_schema(&dataset.schema);
        let fit = |insts: &[gmlfm_data::Instance]| -> (f64, f64) {
            let xs: Vec<f64> = insts
                .iter()
                .map(|i| {
                    let (u, it) = codec.decode(i);
                    truth.score(u, it)
                })
                .collect();
            let ys: Vec<f64> = insts.iter().map(|i| i.label).collect();
            let mx = xs.iter().sum::<f64>() / xs.len() as f64;
            let my = ys.iter().sum::<f64>() / ys.len() as f64;
            let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
            let var: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
            let a = cov / var.max(1e-12);
            (a, my - a * mx)
        };
        let (a, b) = fit(&rating.train);
        let mse: f64 = rating
            .test
            .iter()
            .map(|i| {
                let (u, it) = codec.decode(i);
                let p = (a * truth.score(u, it) + b).clamp(-1.0, 1.0);
                (p - i.label).powi(2)
            })
            .sum::<f64>()
            / rating.test.len() as f64;
        println!("ORACLE linear-in-truth test RMSE: {:.4}", mse.sqrt());
    }

    for (lr, dropout) in [(0.003, 0.2), (0.003, 0.5), (0.01, 0.5), (0.001, 0.2)] {
        {
            let (epochs, k) = (120usize, 32usize);
            let mut gcfg = GmlFmConfig::dnn(k, 1).with_seed(11).with_init_std(0.05);
            gcfg.dropout = dropout;
            let init_std = lr; // reuse the printed column for lr
            let _ = init_std;
            let mut model = GmlFm::new(dataset.schema.total_dim(), &gcfg);
            let tc = TrainConfig { lr, epochs, batch_size: 256, weight_decay: 1e-4, patience: 12, seed: 5 };
            let report = fit_regression(&mut model, &rating.train, Some(&rating.val), &tc);
            let m = evaluate_rating(&model, &rating.test);

            let mut topn_model = GmlFm::new(dataset.schema.total_dim(), &gcfg);
            let t_report = fit_regression(&mut topn_model, &loo.train, None, &tc);
            let t = evaluate_topn(&topn_model, &dataset, &mask, &loo.test, 10);
            println!(
                "lr {lr:<6} drop {dropout:<4} ran {:<3} k={k:<3} loss {:.4}->{:.4} best-val {:.4} | RMSE {:.4} | HR {:.4} NDCG {:.4} (topn loss ->{:.4})",
                report.epochs_run,
                report.train_losses[0],
                report.train_losses.last().unwrap(),
                report.best_val_rmse,
                m.rmse,
                t.hr,
                t.ndcg,
                t_report.train_losses.last().unwrap(),
            );
        }
    }
}
