//! Figure 4: cold-start rating prediction on MovieLens — GML-FM vs the
//! MAMO-lite meta-learning baseline across the four warm/cold quadrants.
//!
//! Protocol (adapted to the synthetic substrate — "Substitutions" in the
//! [`gmlfm_models`] crate docs): a MovieLens-like dataset
//! is generated with per-user activity down to a single interaction. For
//! every user, 30% of interactions (at least one) are held out as
//! queries; the rest are the support set. Users are *warm* when their
//! support has ≥ 6 interactions, items are *warm* when they appear in
//! ≥ 3 supports. RMSE (on ±1 implicit targets, one sampled negative per
//! query) is reported per support-size bucket 1..=15 for each quadrant:
//! W-W, W-C, C-W, C-C.

use crate::runner::{default_dnn_cfg, ExpConfig};
use gmlfm_data::{generate, DatasetSpec, FieldMask, Instance, NegativeSampler};
use gmlfm_engine::{FitData, ModelSpec};
use gmlfm_eval::Table;
use gmlfm_models::{
    mamo::{MamoConfig, MamoTask},
    MamoLite,
};
use gmlfm_tensor::seeded_rng;
use gmlfm_train::TrainConfig;
use std::collections::{HashMap, HashSet};

const WARM_USER_MIN: usize = 6;
const WARM_ITEM_MIN: usize = 3;

struct ColdStartData {
    dataset: gmlfm_data::Dataset,
    /// Per-user support positives.
    support: Vec<Vec<u32>>,
    /// Per-user query positives.
    queries: Vec<Vec<u32>>,
    /// Items counted warm by support frequency.
    warm_items: HashSet<u32>,
}

fn build(cfg: &ExpConfig) -> ColdStartData {
    let spec = DatasetSpec::MovieLens
        .config(cfg.seed ^ 0x8888)
        .scaled(cfg.scale)
        .with_interactions(1, 25);
    let dataset = generate(&spec);
    let mut rng = seeded_rng(cfg.seed ^ 0x8889);
    let mut support = vec![Vec::new(); dataset.n_users];
    let mut queries = vec![Vec::new(); dataset.n_users];
    let mut by_user: Vec<Vec<(u32, u32)>> = vec![Vec::new(); dataset.n_users];
    for it in &dataset.interactions {
        by_user[it.user as usize].push((it.ts, it.item));
    }
    for (u, mut items) in by_user.into_iter().enumerate() {
        items.sort_unstable();
        let n_query = (items.len() as f64 * 0.3).ceil() as usize;
        let n_query = n_query.clamp(1, items.len().saturating_sub(0));
        for (i, (_, item)) in items.into_iter().enumerate().rev() {
            if queries[u].len() < n_query && i > 0 {
                queries[u].push(item);
            } else {
                support[u].push(item);
            }
        }
        // Users whose every interaction would be a query keep one support.
        if support[u].is_empty() && !queries[u].is_empty() {
            support[u].push(queries[u].pop().expect("non-empty"));
        }
    }
    let mut item_counts: HashMap<u32, usize> = HashMap::new();
    for items in &support {
        for &i in items {
            *item_counts.entry(i).or_default() += 1;
        }
    }
    let warm_items = item_counts
        .iter()
        .filter(|(_, &c)| c >= WARM_ITEM_MIN)
        .map(|(&i, _)| i)
        .collect();
    let _ = &mut rng;
    ColdStartData { dataset, support, queries, warm_items }
}

/// Per-(quadrant, bucket) squared-error accumulators.
#[derive(Default, Clone)]
struct Cell {
    sum_sq: f64,
    n: usize,
}

fn quadrant(user_warm: bool, item_warm: bool) -> usize {
    match (user_warm, item_warm) {
        (true, true) => 0,   // W-W
        (true, false) => 1,  // W-C
        (false, true) => 2,  // C-W
        (false, false) => 3, // C-C
    }
}

const QUADRANTS: [&str; 4] = ["W-W", "W-C", "C-W", "C-C"];

/// Runs the cold-start comparison; writes `fig4.csv`.
pub fn run(cfg: &ExpConfig) {
    println!("\n== Figure 4: cold-start RMSE vs #support interactions (MAMO-lite vs GML-FM) ==\n");
    let data = build(cfg);
    let d = &data.dataset;
    let mask = FieldMask::all(&d.schema);
    let sampler = NegativeSampler::new(d.n_items);
    let mut rng = seeded_rng(cfg.seed ^ 0x88aa);
    let user_sets = d.user_item_sets();

    // --- Train GML-FM on all support positives + sampled negatives -------
    let mut train: Vec<Instance> = Vec::new();
    for (u, items) in data.support.iter().enumerate() {
        for &item in items {
            train.push(d.instance_masked(u as u32, item, 1.0, &mask));
            for neg in sampler.sample(&mut rng, &user_sets[u], 2) {
                train.push(d.instance_masked(u as u32, neg, -1.0, &mask));
            }
        }
    }
    let spec = ModelSpec::gml_fm(default_dnn_cfg(cfg.k, cfg.seed ^ 0x8b));
    let mut gml = spec.build(&d.schema, &mask);
    let tc = TrainConfig { patience: 0, seed: cfg.seed ^ 0x8c, ..cfg.train_config() };
    gml.fit(&FitData::instances(&train), &tc)
        .expect("cold-start support set is non-empty");

    // --- Meta-train MAMO-lite on warm users' support tasks ----------------
    let profile_cards: Vec<usize> =
        d.user_attr_fields.iter().map(|&f| d.schema.fields()[f].cardinality).collect();
    let tasks: Vec<MamoTask> = data
        .support
        .iter()
        .enumerate()
        .filter(|(_, items)| !items.is_empty())
        .map(|(u, items)| {
            let mut support: Vec<(usize, f64)> = items.iter().map(|&i| (i as usize, 1.0)).collect();
            for neg in sampler.sample(&mut rng, &user_sets[u], items.len().min(3)) {
                support.push((neg as usize, -1.0));
            }
            MamoTask { profile: d.user_attrs[u].clone(), support }
        })
        .collect();
    let mut mamo = MamoLite::new(
        d.n_items,
        &profile_cards,
        MamoConfig { k: cfg.k, epochs: cfg.epochs.min(8), ..MamoConfig::default() },
    );
    mamo.fit(&tasks);

    // --- Evaluate both on queries, bucketed by support size ---------------
    let mut gml_cells = vec![vec![Cell::default(); 15]; 4];
    let mut mamo_cells = vec![vec![Cell::default(); 15]; 4];
    for (u, queries) in data.queries.iter().enumerate() {
        if queries.is_empty() || data.support[u].is_empty() {
            continue;
        }
        let n_support = data.support[u].len();
        let bucket = n_support.min(15) - 1;
        let user_warm = n_support >= WARM_USER_MIN;
        // Query set: each positive paired with one sampled negative.
        let mut query_items: Vec<(u32, f64)> = Vec::new();
        for &q in queries {
            query_items.push((q, 1.0));
            let neg = sampler.sample(&mut rng, &user_sets[u], 1)[0];
            query_items.push((neg, -1.0));
        }
        // GML-FM predictions.
        let instances: Vec<Instance> = query_items
            .iter()
            .map(|&(item, label)| d.instance_masked(u as u32, item, label, &mask))
            .collect();
        let gml_preds = gml.scorer().scores(&instances);
        // MAMO predictions (adapting on the user's support).
        let support: Vec<(usize, f64)> = data.support[u].iter().map(|&i| (i as usize, 1.0)).collect();
        let items: Vec<usize> = query_items.iter().map(|&(i, _)| i as usize).collect();
        let mamo_preds = mamo.predict(&d.user_attrs[u], &support, &items);

        for ((&(item, label), gp), mp) in query_items.iter().zip(&gml_preds).zip(&mamo_preds) {
            let item_warm = data.warm_items.contains(&item);
            let q = quadrant(user_warm, item_warm);
            let gcell = &mut gml_cells[q][bucket];
            gcell.sum_sq += (gp - label) * (gp - label);
            gcell.n += 1;
            let mcell = &mut mamo_cells[q][bucket];
            mcell.sum_sq += (mp - label) * (mp - label);
            mcell.n += 1;
        }
    }

    let mut csv = Table::new(&["quadrant", "support_size", "model", "rmse", "n"]);
    for (q, qname) in QUADRANTS.iter().enumerate() {
        println!("--- {qname} ---");
        let mut table = Table::new(&["#interactions", "MAMO-lite RMSE", "GML-FM RMSE", "n"]);
        let mut gml_wins = 0usize;
        let mut buckets = 0usize;
        for b in 0..15 {
            let (g, m) = (&gml_cells[q][b], &mamo_cells[q][b]);
            if g.n < 4 {
                continue;
            }
            let g_rmse = (g.sum_sq / g.n as f64).sqrt();
            let m_rmse = (m.sum_sq / m.n as f64).sqrt();
            table.push_row(vec![
                (b + 1).to_string(),
                format!("{m_rmse:.4}"),
                format!("{g_rmse:.4}"),
                g.n.to_string(),
            ]);
            csv.push_row(vec![
                qname.to_string(),
                (b + 1).to_string(),
                "MAMO-lite".into(),
                format!("{m_rmse:.4}"),
                m.n.to_string(),
            ]);
            csv.push_row(vec![
                qname.to_string(),
                (b + 1).to_string(),
                "GML-FM".into(),
                format!("{g_rmse:.4}"),
                g.n.to_string(),
            ]);
            buckets += 1;
            if g_rmse < m_rmse {
                gml_wins += 1;
            }
        }
        println!("{}", table.to_markdown());
        println!("GML-FM beats MAMO-lite on {gml_wins}/{buckets} populated buckets (paper: consistently).\n");
    }
    csv.write_csv(cfg.out_dir.join("fig4.csv")).expect("write fig4.csv");
}
