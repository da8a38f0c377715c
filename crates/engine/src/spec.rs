//! [`ModelSpec`]: every model in the workspace behind one declarative,
//! serialisable constructor.
//!
//! A spec is pure data — hyper-parameters, seeds, the transform/distance
//! choice — with no trained state. [`ModelSpec::build`] instantiates the
//! matching untrained model wrapped in an [`Estimator`], so autograd
//! trainers, hand-derived SGD and pairwise BPR all hide behind the same
//! `fit` call. Specs serialise as a tagged JSON object (a `"model"` tag
//! plus the flattened hyper-parameters), which is what the versioned
//! [`crate::Artifact`] embeds so a loaded model knows what it is.
//!
//! ## Task / serving support matrix
//!
//! | variant | rating | top-n | freezable (servable artifact) |
//! |---|---|---|---|
//! | [`GmlFm`](ModelSpec::GmlFm) (md / dnn / plain) | ✓ | ✓ | ✓ |
//! | [`Fm`](ModelSpec::Fm) (LibFM) | ✓ | ✓ | ✓ |
//! | [`TransFm`](ModelSpec::TransFm) | ✓ | ✓ | ✓ |
//! | [`Mf`](ModelSpec::Mf) | ✓ | — | — |
//! | [`Pmf`](ModelSpec::Pmf) | ✓ | — | — |
//! | [`BprMf`](ModelSpec::BprMf) | — | ✓ | — |
//! | [`Ngcf`](ModelSpec::Ngcf) | — | ✓ | — |
//! | [`Ncf`](ModelSpec::Ncf) | — | ✓ | — |
//! | [`Nfm`](ModelSpec::Nfm) | ✓ | ✓ | — |
//! | [`Afm`](ModelSpec::Afm) | ✓ | ✓ | — |
//! | [`DeepFm`](ModelSpec::DeepFm) | ✓ | ✓ | — |
//! | [`XDeepFm`](ModelSpec::XDeepFm) | ✓ | ✓ | — |
//!
//! "Freezable" means [`ModelSpec::build`]'s estimator returns a
//! [`gmlfm_serve::FrozenModel`] from `freeze_if_supported`, which is the
//! precondition for [`crate::Recommender::save`].

use crate::estimator::adapters;
use crate::estimator::Estimator;
use gmlfm_core::{Distance, GmlFmConfig, TransformKind};
use gmlfm_data::{FieldMask, Schema};
use gmlfm_models::afm::AfmConfig;
use gmlfm_models::deepfm::DeepFmConfig;
use gmlfm_models::fm::FmConfig;
use gmlfm_models::mf::MfConfig;
use gmlfm_models::ncf::NcfConfig;
use gmlfm_models::nfm::NfmConfig;
use gmlfm_models::transfm::TransFmConfig;
use gmlfm_models::xdeepfm::XDeepFmConfig;
use serde::json::{self, first, required, Reader, Typed};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A declarative, serialisable model constructor — see the [module
/// docs](self) for the task / serving support matrix.
#[derive(Debug, Clone)]
pub enum ModelSpec {
    /// GML-FM in any transform/distance/weight configuration (the paper's
    /// GML-FM_md and GML-FM_dnn variants included).
    GmlFm {
        /// Full GML-FM configuration.
        config: GmlFmConfig,
    },
    /// LibFM-style vanilla FM, trained with hand-derived per-instance SGD.
    Fm {
        /// FM hyper-parameters (including SGD knobs).
        config: FmConfig,
    },
    /// Translation-based FM.
    TransFm {
        /// TransFM hyper-parameters.
        config: TransFmConfig,
    },
    /// Biased matrix factorization (rating only).
    Mf {
        /// MF hyper-parameters (including SGD knobs).
        config: MfConfig,
    },
    /// Probabilistic MF (rating only).
    Pmf {
        /// PMF hyper-parameters.
        config: MfConfig,
    },
    /// BPR-MF, trained pairwise on `(user, item)` interactions (top-n
    /// only).
    BprMf {
        /// BPR-MF hyper-parameters.
        config: MfConfig,
    },
    /// NGCF with simplified (LightGCN-style) propagation (top-n only).
    Ngcf {
        /// NGCF hyper-parameters.
        config: MfConfig,
    },
    /// NCF / NeuMF (top-n only in the paper).
    Ncf {
        /// NCF hyper-parameters.
        config: NcfConfig,
    },
    /// Neural FM.
    Nfm {
        /// NFM hyper-parameters.
        config: NfmConfig,
    },
    /// Attentional FM.
    Afm {
        /// AFM hyper-parameters.
        config: AfmConfig,
    },
    /// DeepFM.
    DeepFm {
        /// DeepFM hyper-parameters.
        config: DeepFmConfig,
    },
    /// xDeepFM (CIN).
    XDeepFm {
        /// xDeepFM hyper-parameters.
        config: XDeepFmConfig,
    },
}

impl ModelSpec {
    /// GML-FM from a full configuration.
    pub fn gml_fm(config: GmlFmConfig) -> Self {
        ModelSpec::GmlFm { config }
    }

    /// The paper's GML-FM_md: Mahalanobis transform, transformation
    /// weight on.
    pub fn gml_fm_md(k: usize) -> Self {
        ModelSpec::GmlFm { config: GmlFmConfig::mahalanobis(k) }
    }

    /// The paper's GML-FM_dnn: deep non-linear transform with `layers`
    /// tanh layers.
    pub fn gml_fm_dnn(k: usize, layers: usize) -> Self {
        ModelSpec::GmlFm { config: GmlFmConfig::dnn(k, layers) }
    }

    /// Vanilla FM from a full configuration.
    pub fn fm(config: FmConfig) -> Self {
        ModelSpec::Fm { config }
    }

    /// TransFM from a full configuration.
    pub fn trans_fm(config: TransFmConfig) -> Self {
        ModelSpec::TransFm { config }
    }

    /// The paper's display name for this spec (matches the table rows).
    pub fn display_name(&self) -> &'static str {
        match self {
            ModelSpec::GmlFm { config } => match config.transform {
                TransformKind::Mahalanobis => "GML-FM_md",
                TransformKind::Dnn(_) => "GML-FM_dnn",
                TransformKind::Identity => "GML-FM_plain",
            },
            ModelSpec::Fm { .. } => "LibFM",
            ModelSpec::TransFm { .. } => "TransFM",
            ModelSpec::Mf { .. } => "MF",
            ModelSpec::Pmf { .. } => "PMF",
            ModelSpec::BprMf { .. } => "BPR-MF",
            ModelSpec::Ngcf { .. } => "NGCF",
            ModelSpec::Ncf { .. } => "NCF",
            ModelSpec::Nfm { .. } => "NFM",
            ModelSpec::Afm { .. } => "AFM",
            ModelSpec::DeepFm { .. } => "DeepFM",
            ModelSpec::XDeepFm { .. } => "xDeepFM",
        }
    }

    /// Whether the model can be trained and evaluated on the
    /// rating-prediction task (Table 3).
    pub fn supports_rating(&self) -> bool {
        !matches!(self, ModelSpec::BprMf { .. } | ModelSpec::Ngcf { .. } | ModelSpec::Ncf { .. })
    }

    /// Whether the model can be trained and evaluated on the top-n task
    /// (Table 4).
    pub fn supports_topn(&self) -> bool {
        !matches!(self, ModelSpec::Mf { .. } | ModelSpec::Pmf { .. })
    }

    /// Whether [`ModelSpec::build`]'s estimator yields a
    /// [`gmlfm_serve::FrozenModel`] — the precondition for saving a
    /// servable [`crate::Artifact`].
    pub fn supports_freezing(&self) -> bool {
        matches!(self, ModelSpec::GmlFm { .. } | ModelSpec::Fm { .. } | ModelSpec::TransFm { .. })
    }

    /// Instantiates the untrained model behind the unified
    /// [`Estimator`] interface. `schema` fixes the one-hot feature space;
    /// `mask` selects the active attribute subset (it determines the
    /// field count deep models embed per instance).
    pub fn build(&self, schema: &Schema, mask: &FieldMask) -> Box<dyn Estimator> {
        adapters::build(self, schema, mask)
    }
}

/// Encodes a [`Distance`] by its display name.
pub(crate) fn distance_name(d: Distance) -> &'static str {
    d.name()
}

/// Decodes a [`Distance`] from its display name.
pub(crate) fn distance_from_name(name: &str) -> Result<Distance, json::Error> {
    match name {
        "Euclidean" => Ok(Distance::SquaredEuclidean),
        "Manhattan" => Ok(Distance::Manhattan),
        "Chebyshev" => Ok(Distance::Chebyshev),
        "Cosine" => Ok(Distance::Cosine),
        other => Err(json::Error::new(format!("unknown distance '{other}'"))),
    }
}

/// A spec is a tagged JSON object: `{"model": <tag>, <fields>...}`.
impl Serialize for ModelSpec {
    fn serialize_json(&self, out: &mut String) {
        match self {
            ModelSpec::GmlFm { config } => {
                let (transform, dnn_layers): (&str, usize) = match config.transform {
                    TransformKind::Identity => ("identity", 0),
                    TransformKind::Mahalanobis => ("mahalanobis", 0),
                    TransformKind::Dnn(l) => ("dnn", l),
                };
                json::write_object(
                    out,
                    &[
                        ("model", &"gml_fm"),
                        ("k", &config.k),
                        ("transform", &transform),
                        ("dnn_layers", &dnn_layers),
                        ("distance", &distance_name(config.distance)),
                        ("use_weight", &config.use_weight),
                        ("dropout", &config.dropout),
                        ("init_std", &config.init_std),
                        ("seed", &config.seed),
                    ],
                );
            }
            ModelSpec::Fm { config } => json::write_object(
                out,
                &[
                    ("model", &"fm"),
                    ("k", &config.k),
                    ("lr", &config.lr),
                    ("reg", &config.reg),
                    ("epochs", &config.epochs),
                    ("seed", &config.seed),
                ],
            ),
            ModelSpec::TransFm { config } => {
                json::write_object(out, &[("model", &"trans_fm"), ("k", &config.k), ("seed", &config.seed)])
            }
            ModelSpec::Mf { config } => write_mf(out, "mf", config),
            ModelSpec::Pmf { config } => write_mf(out, "pmf", config),
            ModelSpec::BprMf { config } => write_mf(out, "bpr_mf", config),
            ModelSpec::Ngcf { config } => write_mf(out, "ngcf", config),
            ModelSpec::Ncf { config } => {
                write_deep(out, "ncf", config.k, config.layers, config.dropout, config.seed)
            }
            ModelSpec::Nfm { config } => {
                write_deep(out, "nfm", config.k, config.layers, config.dropout, config.seed)
            }
            ModelSpec::Afm { config } => json::write_object(
                out,
                &[
                    ("model", &"afm"),
                    ("k", &config.k),
                    ("attention_size", &config.attention_size),
                    ("dropout", &config.dropout),
                    ("seed", &config.seed),
                ],
            ),
            ModelSpec::DeepFm { config } => {
                write_deep(out, "deep_fm", config.k, config.layers, config.dropout, config.seed)
            }
            ModelSpec::XDeepFm { config } => json::write_object(
                out,
                &[
                    ("model", &"x_deep_fm"),
                    ("k", &config.k),
                    ("cin_maps", &config.cin_maps),
                    ("cin_depth", &config.cin_depth),
                    ("layers", &config.layers),
                    ("dropout", &config.dropout),
                    ("seed", &config.seed),
                ],
            ),
        }
    }
}

/// The four MF-family variants share one field layout.
fn write_mf(out: &mut String, tag: &str, config: &MfConfig) {
    json::write_object(
        out,
        &[
            ("model", &tag),
            ("k", &config.k),
            ("lr", &config.lr),
            ("reg", &config.reg),
            ("epochs", &config.epochs),
            ("seed", &config.seed),
        ],
    );
}

/// NCF, NFM and DeepFM share one field layout too.
fn write_deep(out: &mut String, tag: &str, k: usize, layers: usize, dropout: f64, seed: u64) {
    json::write_object(
        out,
        &[("model", &tag), ("k", &k), ("layers", &layers), ("dropout", &dropout), ("seed", &seed)],
    );
}

/// The members of a spec object: every key some tag reads, each decoded
/// as the one type it has under every tag.
#[derive(Default)]
struct SpecMembers<'a> {
    model: Option<Typed<Cow<'a, str>>>,
    k: Option<Typed<usize>>,
    transform: Option<Typed<Cow<'a, str>>>,
    dnn_layers: Option<Typed<usize>>,
    distance: Option<Typed<Cow<'a, str>>>,
    use_weight: Option<Typed<bool>>,
    dropout: Option<Typed<f64>>,
    init_std: Option<Typed<f64>>,
    seed: Option<Typed<u64>>,
    lr: Option<Typed<f64>>,
    reg: Option<Typed<f64>>,
    epochs: Option<Typed<usize>>,
    layers: Option<Typed<usize>>,
    attention_size: Option<Typed<usize>>,
    cin_maps: Option<Typed<usize>>,
    cin_depth: Option<Typed<usize>>,
}

impl SpecMembers<'_> {
    /// The spec its `model` tag names, from the members that tag reads.
    fn spec(&mut self) -> Typed<ModelSpec> {
        Ok(match &*required(&mut self.model, "model")? {
            "gml_fm" => {
                let dnn_layers = required(&mut self.dnn_layers, "dnn_layers")?;
                let transform = match &*required(&mut self.transform, "transform")? {
                    "identity" => TransformKind::Identity,
                    "mahalanobis" => TransformKind::Mahalanobis,
                    "dnn" => TransformKind::Dnn(dnn_layers),
                    other => return Err(json::Error::new(format!("unknown transform '{other}'"))),
                };
                ModelSpec::GmlFm {
                    config: GmlFmConfig {
                        k: required(&mut self.k, "k")?,
                        transform,
                        distance: distance_from_name(&required(&mut self.distance, "distance")?)?,
                        use_weight: required(&mut self.use_weight, "use_weight")?,
                        dropout: required(&mut self.dropout, "dropout")?,
                        init_std: required(&mut self.init_std, "init_std")?,
                        seed: required(&mut self.seed, "seed")?,
                    },
                }
            }
            "fm" => {
                let MfConfig { k, lr, reg, epochs, seed } = self.mf()?;
                ModelSpec::Fm { config: FmConfig { k, lr, reg, epochs, seed } }
            }
            "trans_fm" => ModelSpec::TransFm {
                config: TransFmConfig {
                    k: required(&mut self.k, "k")?,
                    seed: required(&mut self.seed, "seed")?,
                },
            },
            "mf" => ModelSpec::Mf { config: self.mf()? },
            "pmf" => ModelSpec::Pmf { config: self.mf()? },
            "bpr_mf" => ModelSpec::BprMf { config: self.mf()? },
            "ngcf" => ModelSpec::Ngcf { config: self.mf()? },
            "ncf" => {
                let (k, layers, dropout, seed) = self.deep()?;
                ModelSpec::Ncf { config: NcfConfig { k, layers, dropout, seed } }
            }
            "nfm" => {
                let (k, layers, dropout, seed) = self.deep()?;
                ModelSpec::Nfm { config: NfmConfig { k, layers, dropout, seed } }
            }
            "afm" => ModelSpec::Afm {
                config: AfmConfig {
                    k: required(&mut self.k, "k")?,
                    attention_size: required(&mut self.attention_size, "attention_size")?,
                    dropout: required(&mut self.dropout, "dropout")?,
                    seed: required(&mut self.seed, "seed")?,
                },
            },
            "deep_fm" => {
                let (k, layers, dropout, seed) = self.deep()?;
                ModelSpec::DeepFm { config: DeepFmConfig { k, layers, dropout, seed } }
            }
            "x_deep_fm" => ModelSpec::XDeepFm {
                config: XDeepFmConfig {
                    k: required(&mut self.k, "k")?,
                    cin_maps: required(&mut self.cin_maps, "cin_maps")?,
                    cin_depth: required(&mut self.cin_depth, "cin_depth")?,
                    layers: required(&mut self.layers, "layers")?,
                    dropout: required(&mut self.dropout, "dropout")?,
                    seed: required(&mut self.seed, "seed")?,
                },
            },
            other => return Err(json::Error::new(format!("unknown model spec tag '{other}'"))),
        })
    }

    /// What [`write_mf`] writes (FM's layout too).
    fn mf(&mut self) -> Typed<MfConfig> {
        Ok(MfConfig {
            k: required(&mut self.k, "k")?,
            lr: required(&mut self.lr, "lr")?,
            reg: required(&mut self.reg, "reg")?,
            epochs: required(&mut self.epochs, "epochs")?,
            seed: required(&mut self.seed, "seed")?,
        })
    }

    /// What [`write_deep`] writes: `k`, `layers`, `dropout`, `seed`.
    fn deep(&mut self) -> Typed<(usize, usize, f64, u64)> {
        Ok((
            required(&mut self.k, "k")?,
            required(&mut self.layers, "layers")?,
            required(&mut self.dropout, "dropout")?,
            required(&mut self.seed, "seed")?,
        ))
    }
}

impl<'a> Deserialize<'a> for ModelSpec {
    fn deserialize(r: &mut Reader<'a>) -> Result<Typed<Self>, json::Error> {
        let mut m = SpecMembers::default();
        let read = json::object(r, "model", |key, r| match key {
            "model" => first(&mut m.model, r),
            "k" => first(&mut m.k, r),
            "transform" => first(&mut m.transform, r),
            "dnn_layers" => first(&mut m.dnn_layers, r),
            "distance" => first(&mut m.distance, r),
            "use_weight" => first(&mut m.use_weight, r),
            "dropout" => first(&mut m.dropout, r),
            "init_std" => first(&mut m.init_std, r),
            "seed" => first(&mut m.seed, r),
            "lr" => first(&mut m.lr, r),
            "reg" => first(&mut m.reg, r),
            "epochs" => first(&mut m.epochs, r),
            "layers" => first(&mut m.layers, r),
            "attention_size" => first(&mut m.attention_size, r),
            "cin_maps" => first(&mut m.cin_maps, r),
            "cin_depth" => first(&mut m.cin_depth, r),
            _ => r.skip(),
        })?;
        Ok(read.and_then(|()| m.spec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineError, FitData};
    use gmlfm_data::{FieldKind, Instance, RatingSplit};
    use gmlfm_train::TrainConfig;

    fn all_specs() -> Vec<ModelSpec> {
        vec![
            ModelSpec::gml_fm_md(8),
            ModelSpec::gml_fm_dnn(8, 2),
            ModelSpec::gml_fm(GmlFmConfig::dnn(4, 1).with_distance(Distance::Manhattan).without_weight()),
            ModelSpec::gml_fm(GmlFmConfig::euclidean_plain(4)),
            ModelSpec::fm(FmConfig::default()),
            ModelSpec::trans_fm(TransFmConfig::default()),
            ModelSpec::Mf { config: MfConfig::default() },
            ModelSpec::Pmf { config: MfConfig::default() },
            ModelSpec::BprMf { config: MfConfig::default() },
            ModelSpec::Ngcf { config: MfConfig::default() },
            ModelSpec::Ncf { config: NcfConfig::default() },
            ModelSpec::Nfm { config: NfmConfig::default() },
            ModelSpec::Afm { config: AfmConfig::default() },
            ModelSpec::DeepFm { config: DeepFmConfig::default() },
            ModelSpec::XDeepFm { config: XDeepFmConfig::default() },
        ]
    }

    #[test]
    fn every_spec_round_trips_through_json() {
        for spec in all_specs() {
            let json = json::to_string(&spec);
            let back: ModelSpec = json::from_str(&json).unwrap();
            let json2 = json::to_string(&back);
            assert_eq!(json, json2, "{} drifted through JSON", spec.display_name());
        }
    }

    #[test]
    fn unknown_tag_is_a_typed_parse_error() {
        let err = json::from_str::<ModelSpec>("{\"model\":\"word2vec\"}").unwrap_err();
        assert!(err.to_string().contains("word2vec"), "{err}");
    }

    #[test]
    fn support_matrix_is_consistent_with_the_paper_tables() {
        for spec in all_specs() {
            // Every model supports at least one task, and every freezable
            // model supports both (GML-FM, FM, TransFM appear in Tables 3
            // and 4).
            assert!(spec.supports_rating() || spec.supports_topn(), "{}", spec.display_name());
            if spec.supports_freezing() {
                assert!(spec.supports_rating() && spec.supports_topn(), "{}", spec.display_name());
            }
        }
        assert!(!ModelSpec::BprMf { config: MfConfig::default() }.supports_rating());
        assert!(!ModelSpec::Mf { config: MfConfig::default() }.supports_topn());
    }

    /// What the estimator behind every spec promises and the support
    /// matrix documents: bad training data is a typed error naming the
    /// paper's row, never a panic in the model's own `fit`, and the
    /// frozen form exists exactly where `supports_freezing` says.
    #[test]
    fn every_estimator_types_bad_fit_data_and_freezes_as_documented() {
        let schema = Schema::from_specs(&[("user", 3, FieldKind::User), ("item", 4, FieldKind::Item)]);
        let mask = FieldMask::all(&schema);
        let cfg = TrainConfig::default();
        let one = vec![Instance::new(vec![0, 3], 1.0)];
        let rating = RatingSplit { train: one.clone(), val: one.clone(), test: one };
        let no_pairs = FitData { pairs: Some(&[]), user_items: Some(&[]), ..FitData::instances(&[]) };
        for spec in all_specs() {
            let name = spec.display_name();
            let mut est = spec.build(&schema, &mask);
            assert_eq!(est.freeze_if_supported().is_some(), spec.supports_freezing(), "{name}");
            let has_factors = matches!(
                spec,
                ModelSpec::GmlFm { .. }
                    | ModelSpec::Fm { .. }
                    | ModelSpec::TransFm { .. }
                    | ModelSpec::Nfm { .. }
            );
            assert_eq!(est.factors().is_some(), has_factors, "{name}");

            let pairwise = matches!(spec, ModelSpec::BprMf { .. } | ModelSpec::Ngcf { .. });
            let empty = if pairwise { no_pairs } else { FitData::instances(&[]) };
            let err = est.fit(&empty, &cfg).unwrap_err();
            assert!(matches!(err, EngineError::EmptyTrainingSet), "{name}: {err}");
            if pairwise {
                let err = est.fit(&FitData::rating(&rating), &cfg).unwrap_err();
                assert!(
                    matches!(&err, EngineError::MissingPairData { model } if model == name),
                    "{name}: {err}"
                );
            }
        }
    }

    #[test]
    fn display_names_match_the_paper_rows() {
        assert_eq!(ModelSpec::gml_fm_md(4).display_name(), "GML-FM_md");
        assert_eq!(ModelSpec::gml_fm_dnn(4, 1).display_name(), "GML-FM_dnn");
        assert_eq!(ModelSpec::fm(FmConfig::default()).display_name(), "LibFM");
    }
}
