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
use serde::json::{self, Value};
use serde::{Deserialize, Serialize};

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

/// Writes a tagged JSON object: `{"model": <tag>, <fields>...}`.
fn write_tagged(out: &mut String, tag: &str, fields: &[(&str, &dyn Serialize)]) {
    out.push_str("{\"model\":");
    json::write_escaped(tag, out);
    for (name, value) in fields {
        out.push(',');
        json::write_escaped(name, out);
        out.push(':');
        value.serialize_json(out);
    }
    out.push('}');
}

impl Serialize for ModelSpec {
    fn serialize_json(&self, out: &mut String) {
        match self {
            ModelSpec::GmlFm { config } => {
                let (transform, dnn_layers): (&str, usize) = match config.transform {
                    TransformKind::Identity => ("identity", 0),
                    TransformKind::Mahalanobis => ("mahalanobis", 0),
                    TransformKind::Dnn(l) => ("dnn", l),
                };
                let transform = transform.to_string();
                let distance = distance_name(config.distance).to_string();
                write_tagged(
                    out,
                    "gml_fm",
                    &[
                        ("k", &config.k),
                        ("transform", &transform),
                        ("dnn_layers", &dnn_layers),
                        ("distance", &distance),
                        ("use_weight", &config.use_weight),
                        ("dropout", &config.dropout),
                        ("init_std", &config.init_std),
                        ("seed", &config.seed),
                    ],
                );
            }
            ModelSpec::Fm { config } => write_tagged(
                out,
                "fm",
                &[
                    ("k", &config.k),
                    ("lr", &config.lr),
                    ("reg", &config.reg),
                    ("epochs", &config.epochs),
                    ("seed", &config.seed),
                ],
            ),
            ModelSpec::TransFm { config } => {
                write_tagged(out, "trans_fm", &[("k", &config.k), ("seed", &config.seed)])
            }
            ModelSpec::Mf { config } => write_mf(out, "mf", config),
            ModelSpec::Pmf { config } => write_mf(out, "pmf", config),
            ModelSpec::BprMf { config } => write_mf(out, "bpr_mf", config),
            ModelSpec::Ngcf { config } => write_mf(out, "ngcf", config),
            ModelSpec::Ncf { config } => write_tagged(
                out,
                "ncf",
                &[
                    ("k", &config.k),
                    ("layers", &config.layers),
                    ("dropout", &config.dropout),
                    ("seed", &config.seed),
                ],
            ),
            ModelSpec::Nfm { config } => write_tagged(
                out,
                "nfm",
                &[
                    ("k", &config.k),
                    ("layers", &config.layers),
                    ("dropout", &config.dropout),
                    ("seed", &config.seed),
                ],
            ),
            ModelSpec::Afm { config } => write_tagged(
                out,
                "afm",
                &[
                    ("k", &config.k),
                    ("attention_size", &config.attention_size),
                    ("dropout", &config.dropout),
                    ("seed", &config.seed),
                ],
            ),
            ModelSpec::DeepFm { config } => write_tagged(
                out,
                "deep_fm",
                &[
                    ("k", &config.k),
                    ("layers", &config.layers),
                    ("dropout", &config.dropout),
                    ("seed", &config.seed),
                ],
            ),
            ModelSpec::XDeepFm { config } => write_tagged(
                out,
                "x_deep_fm",
                &[
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
    write_tagged(
        out,
        tag,
        &[
            ("k", &config.k),
            ("lr", &config.lr),
            ("reg", &config.reg),
            ("epochs", &config.epochs),
            ("seed", &config.seed),
        ],
    );
}

fn read_mf(v: &Value) -> Result<MfConfig, json::Error> {
    Ok(MfConfig {
        k: json::field(v, "k")?,
        lr: json::field(v, "lr")?,
        reg: json::field(v, "reg")?,
        epochs: json::field(v, "epochs")?,
        seed: json::field(v, "seed")?,
    })
}

impl Deserialize for ModelSpec {
    fn deserialize_json(v: &Value) -> Result<Self, json::Error> {
        let tag: String = json::field(v, "model")?;
        match tag.as_str() {
            "gml_fm" => {
                let transform: String = json::field(v, "transform")?;
                let dnn_layers: usize = json::field(v, "dnn_layers")?;
                let transform = match transform.as_str() {
                    "identity" => TransformKind::Identity,
                    "mahalanobis" => TransformKind::Mahalanobis,
                    "dnn" => TransformKind::Dnn(dnn_layers),
                    other => return Err(json::Error::new(format!("unknown transform '{other}'"))),
                };
                let distance_name: String = json::field(v, "distance")?;
                Ok(ModelSpec::GmlFm {
                    config: GmlFmConfig {
                        k: json::field(v, "k")?,
                        transform,
                        distance: distance_from_name(&distance_name)?,
                        use_weight: json::field(v, "use_weight")?,
                        dropout: json::field(v, "dropout")?,
                        init_std: json::field(v, "init_std")?,
                        seed: json::field(v, "seed")?,
                    },
                })
            }
            "fm" => Ok(ModelSpec::Fm {
                config: FmConfig {
                    k: json::field(v, "k")?,
                    lr: json::field(v, "lr")?,
                    reg: json::field(v, "reg")?,
                    epochs: json::field(v, "epochs")?,
                    seed: json::field(v, "seed")?,
                },
            }),
            "trans_fm" => Ok(ModelSpec::TransFm {
                config: TransFmConfig { k: json::field(v, "k")?, seed: json::field(v, "seed")? },
            }),
            "mf" => Ok(ModelSpec::Mf { config: read_mf(v)? }),
            "pmf" => Ok(ModelSpec::Pmf { config: read_mf(v)? }),
            "bpr_mf" => Ok(ModelSpec::BprMf { config: read_mf(v)? }),
            "ngcf" => Ok(ModelSpec::Ngcf { config: read_mf(v)? }),
            "ncf" => Ok(ModelSpec::Ncf {
                config: NcfConfig {
                    k: json::field(v, "k")?,
                    layers: json::field(v, "layers")?,
                    dropout: json::field(v, "dropout")?,
                    seed: json::field(v, "seed")?,
                },
            }),
            "nfm" => Ok(ModelSpec::Nfm {
                config: NfmConfig {
                    k: json::field(v, "k")?,
                    layers: json::field(v, "layers")?,
                    dropout: json::field(v, "dropout")?,
                    seed: json::field(v, "seed")?,
                },
            }),
            "afm" => Ok(ModelSpec::Afm {
                config: AfmConfig {
                    k: json::field(v, "k")?,
                    attention_size: json::field(v, "attention_size")?,
                    dropout: json::field(v, "dropout")?,
                    seed: json::field(v, "seed")?,
                },
            }),
            "deep_fm" => Ok(ModelSpec::DeepFm {
                config: DeepFmConfig {
                    k: json::field(v, "k")?,
                    layers: json::field(v, "layers")?,
                    dropout: json::field(v, "dropout")?,
                    seed: json::field(v, "seed")?,
                },
            }),
            "x_deep_fm" => Ok(ModelSpec::XDeepFm {
                config: XDeepFmConfig {
                    k: json::field(v, "k")?,
                    cin_maps: json::field(v, "cin_maps")?,
                    cin_depth: json::field(v, "cin_depth")?,
                    layers: json::field(v, "layers")?,
                    dropout: json::field(v, "dropout")?,
                    seed: json::field(v, "seed")?,
                },
            }),
            other => Err(json::Error::new(format!("unknown model spec tag '{other}'"))),
        }
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
            let json = serde_json::to_string(&spec).unwrap();
            let back: ModelSpec = serde_json::from_str(&json).unwrap();
            let json2 = serde_json::to_string(&back).unwrap();
            assert_eq!(json, json2, "{} drifted through JSON", spec.display_name());
        }
    }

    #[test]
    fn unknown_tag_is_a_typed_parse_error() {
        let err = serde_json::from_str::<ModelSpec>("{\"model\":\"word2vec\"}").unwrap_err();
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
