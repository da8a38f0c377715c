//! Persistence: train through the engine, save the versioned artifact,
//! reload it on the "serving side", and verify the restored recommender
//! scores and ranks the whole catalogue bit-identically — the
//! deployment workflow. Works for every freezable spec (GML-FM, FM,
//! TransFM), not just GML-FM.
//!
//! ```sh
//! cargo run --release --example save_load
//! ```

use gml_fm::data::{generate, DatasetSpec};
use gml_fm::engine::{Engine, ModelSpec, SplitPlan};
use gml_fm::models::fm::FmConfig;
use gml_fm::models::transfm::TransFmConfig;
use gml_fm::train::TrainConfig;

fn main() {
    let dataset = generate(&DatasetSpec::AmazonAuto.config(42).scaled(0.4));

    // Every spec with a frozen serving form persists through the same
    // artifact format — persistence is no longer a GML-FM-only feature.
    let specs = [
        ModelSpec::gml_fm_dnn(16, 1),
        ModelSpec::fm(FmConfig { epochs: 20, ..FmConfig::default() }),
        ModelSpec::trans_fm(TransFmConfig::default()),
    ];

    for spec in specs {
        let name = spec.display_name();
        let rec = Engine::builder()
            .dataset(dataset.clone())
            .split(SplitPlan::rating(7))
            .spec(spec)
            .train_config(TrainConfig { epochs: 10, ..TrainConfig::default() })
            .fit()
            .expect("rating pipeline");
        let before = rec.evaluate_rating().expect("rating holdout");

        let path = std::env::temp_dir().join(format!("gmlfm_example_artifact_{name}.json"));
        rec.save(&path).expect("save");
        let bytes = std::fs::metadata(&path).expect("metadata").len();

        // The serving side: restore without the autograd/training crates
        // ever being touched.
        let served = Engine::load(&path).expect("load");
        let probe = served.score_pair(0, 1).expect("catalog travels with the artifact");
        let original = rec.score_pair(0, 1).expect("catalog");
        assert_eq!(original.to_bits(), probe.to_bits(), "{name}: round trip must be bit-exact");
        // The catalogue travels too, so the serving side ranks all of it
        // for a user without any training machinery.
        let ranked = served.top_n(0, 10).expect("rank");
        assert_eq!(rec.top_n(0, 10).expect("rank"), ranked, "{name}: rankings must survive the round trip");

        println!(
            "{name:<12} test RMSE {:.4} | artifact {:>5} KiB | reload score {:+.4} (bit-exact) | \
             catalogue-wide top item {}",
            before.rmse,
            bytes / 1024,
            probe,
            ranked[0].0
        );
        let _ = std::fs::remove_file(path);
    }
    println!("\nall freezable specs round-trip through the versioned artifact format");
}
