//! The artifact loader as it was before artifacts were read straight off
//! `serde::json::Reader`: parse the whole text into a tree, gate on
//! `format_version`, then look every member up with `json::field` /
//! `Value::get`. Kept verbatim — only renamed — as the oracle the
//! byte-level loader is differential-tested against. What could not stay
//! verbatim, since a test cannot build the crate's private types:
//!
//! * the `*Repr` types and the catalogue are mirrored here, with the
//!   impls the derive generated for them written out;
//! * what was decoded is re-encoded in the artifact's layout
//!   ([`TreeArtifact::to_json`]), so the two loaders compare by text;
//! * the seen sets are built through `SeenItems::new`, which sorts them:
//!   the one intended difference, since membership binary-searches.

#[path = "../../../net/tests/common/json_tree.rs"]
pub mod json_tree;

use gmlfm_core::{Distance, GmlFmConfig, TransformKind};
use gmlfm_engine::{EngineError, ModelSpec, SeenItems, ARTIFACT_VERSION, MIN_ARTIFACT_VERSION};
use gmlfm_models::afm::AfmConfig;
use gmlfm_models::deepfm::DeepFmConfig;
use gmlfm_models::fm::FmConfig;
use gmlfm_models::mf::MfConfig;
use gmlfm_models::ncf::NcfConfig;
use gmlfm_models::nfm::NfmConfig;
use gmlfm_models::transfm::TransFmConfig;
use gmlfm_models::xdeepfm::XDeepFmConfig;
use json_tree::{self as json, Deserialize, Value};
use serde::json::write_object;
use serde::Serialize;

/// A dense matrix in serialisable form.
pub struct MatrixRepr {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Deserialize for MatrixRepr {
    fn deserialize_json(v: &Value) -> Result<Self, json::Error> {
        Ok(Self {
            rows: json::field(v, "rows")?,
            cols: json::field(v, "cols")?,
            data: json::field(v, "data")?,
        })
    }
}

/// Serialisable form of `SecondOrder`, tagged by `kind`.
pub enum SecondRepr {
    Dot,
    Metric { v_hat: MatrixRepr, q: Vec<f64>, h: Option<Vec<f64>>, distance: String },
    Translated { v_trans: MatrixRepr },
}

impl Deserialize for SecondRepr {
    fn deserialize_json(v: &Value) -> Result<Self, json::Error> {
        let kind: String = json::field(v, "kind")?;
        match kind.as_str() {
            "dot" => Ok(SecondRepr::Dot),
            "metric" => Ok(SecondRepr::Metric {
                v_hat: json::field(v, "v_hat")?,
                q: json::field(v, "q")?,
                h: json::field(v, "h")?,
                distance: json::field(v, "distance")?,
            }),
            "translated" => Ok(SecondRepr::Translated { v_trans: json::field(v, "v_trans")? }),
            other => Err(json::Error::new(format!("unknown second-order kind '{other}'"))),
        }
    }
}

/// Serialisable form of a `FrozenModel`.
pub struct FrozenRepr {
    w0: f64,
    w: Vec<f64>,
    v: MatrixRepr,
    second: SecondRepr,
}

impl Deserialize for FrozenRepr {
    fn deserialize_json(v: &Value) -> Result<Self, json::Error> {
        Ok(Self {
            w0: json::field(v, "w0")?,
            w: json::field(v, "w")?,
            v: json::field(v, "v")?,
            second: json::field(v, "second")?,
        })
    }
}

/// One schema field in serialisable form.
pub struct FieldRepr {
    name: String,
    cardinality: usize,
    kind: String,
}

impl Deserialize for FieldRepr {
    fn deserialize_json(v: &Value) -> Result<Self, json::Error> {
        Ok(Self {
            name: json::field(v, "name")?,
            cardinality: json::field(v, "cardinality")?,
            kind: json::field(v, "kind")?,
        })
    }
}

/// Serialisable form of a `Schema`.
pub struct SchemaRepr {
    fields: Vec<FieldRepr>,
}

impl Deserialize for SchemaRepr {
    fn deserialize_json(v: &Value) -> Result<Self, json::Error> {
        Ok(Self { fields: json::field(v, "fields")? })
    }
}

/// Serialisable form of an `IvfIndex` (v3+).
pub struct IndexRepr {
    kind: String,
    k: usize,
    phi_mean: MatrixRepr,
    item_norms: Vec<f64>,
    assignments: Vec<u32>,
    default_nprobe: usize,
    min_candidates: usize,
}

impl Deserialize for IndexRepr {
    fn deserialize_json(v: &Value) -> Result<Self, json::Error> {
        Ok(Self {
            kind: json::field(v, "kind")?,
            k: json::field(v, "k")?,
            phi_mean: json::field(v, "phi_mean")?,
            item_norms: json::field(v, "item_norms")?,
            assignments: json::field(v, "assignments")?,
            default_nprobe: json::field(v, "default_nprobe")?,
            min_candidates: json::field(v, "min_candidates")?,
        })
    }
}

/// The serving catalogue's tables as its loader checked them.
pub struct CatalogRepr {
    item_slots: Vec<usize>,
    user_templates: Vec<Vec<u32>>,
    item_feats: Vec<Vec<u32>>,
}

impl Deserialize for CatalogRepr {
    fn deserialize_json(v: &Value) -> Result<Self, json::Error> {
        let item_slots: Vec<usize> = json::field(v, "item_slots")?;
        let user_templates: Vec<Vec<u32>> = json::field(v, "user_templates")?;
        let groups: Vec<Vec<u32>> = json::field(v, "item_feats")?;
        let w = item_slots.len();
        if let Some(bad) = groups.iter().find(|g| g.len() != w) {
            return Err(json::Error::new(format!(
                "catalog item group has {} values, expected {w} (one per item slot)",
                bad.len()
            )));
        }
        Ok(Self { item_slots, user_templates, item_feats: groups })
    }
}

impl Deserialize for SeenItems {
    fn deserialize_json(v: &Value) -> Result<Self, json::Error> {
        Ok(SeenItems::new(json::field(v, "per_user")?))
    }
}

/// Decodes a `Distance` from its display name.
fn distance_from_name(name: &str) -> Result<Distance, json::Error> {
    match name {
        "Euclidean" => Ok(Distance::SquaredEuclidean),
        "Manhattan" => Ok(Distance::Manhattan),
        "Chebyshev" => Ok(Distance::Chebyshev),
        "Cosine" => Ok(Distance::Cosine),
        other => Err(json::Error::new(format!("unknown distance '{other}'"))),
    }
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

/// A saved artifact as the tree loader decoded it.
pub struct TreeArtifact {
    pub format_version: u32,
    pub spec: ModelSpec,
    schema: SchemaRepr,
    frozen: FrozenRepr,
    catalog: Option<CatalogRepr>,
    pub seen: Option<SeenItems>,
    index: Option<IndexRepr>,
    precision: Option<String>,
}

impl Deserialize for TreeArtifact {
    fn deserialize_json(v: &Value) -> Result<Self, json::Error> {
        fn optional<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, json::Error> {
            match v.get(name) {
                Some(value) => Option::<T>::deserialize_json(value)
                    .map_err(|e| json::Error::new(format!("field '{name}': {e}"))),
                None => Ok(None),
            }
        }
        Ok(Self {
            format_version: json::field(v, "format_version")?,
            spec: json::field(v, "spec")?,
            schema: json::field(v, "schema")?,
            frozen: json::field(v, "frozen")?,
            catalog: json::field(v, "catalog")?,
            seen: optional(v, "seen")?,
            index: optional(v, "index")?,
            precision: optional(v, "precision")?,
        })
    }
}

impl TreeArtifact {
    /// Parses an artifact, validating `format_version` before decoding
    /// the body.
    pub fn from_json(text: &str) -> Result<Self, EngineError> {
        let value = json::parse(text).map_err(EngineError::Json)?;
        let raw = value
            .get("format_version")
            .and_then(Value::as_f64)
            .ok_or_else(|| EngineError::BadArtifact("missing format_version".into()))?;
        if raw.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&raw) {
            return Err(EngineError::BadArtifact(format!("format_version {raw} is not a u32")));
        }
        let version = raw as u32;
        if !(MIN_ARTIFACT_VERSION..=ARTIFACT_VERSION).contains(&version) {
            return Err(EngineError::UnsupportedVersion { found: version, supported: ARTIFACT_VERSION });
        }
        TreeArtifact::deserialize_json(&value).map_err(EngineError::Json)
    }

    /// What was decoded, in the layout `Artifact::to_json` writes.
    pub fn to_json(&self) -> String {
        serde::json::to_string(self)
    }
}

impl Serialize for MatrixRepr {
    fn serialize_json(&self, out: &mut String) {
        write_object(out, &[("rows", &self.rows), ("cols", &self.cols), ("data", &self.data)]);
    }
}

impl Serialize for SecondRepr {
    fn serialize_json(&self, out: &mut String) {
        match self {
            SecondRepr::Dot => write_object(out, &[("kind", &"dot")]),
            SecondRepr::Metric { v_hat, q, h, distance } => write_object(
                out,
                &[("kind", &"metric"), ("v_hat", v_hat), ("q", q), ("h", h), ("distance", distance)],
            ),
            SecondRepr::Translated { v_trans } => {
                write_object(out, &[("kind", &"translated"), ("v_trans", v_trans)])
            }
        }
    }
}

impl Serialize for FrozenRepr {
    fn serialize_json(&self, out: &mut String) {
        write_object(out, &[("w0", &self.w0), ("w", &self.w), ("v", &self.v), ("second", &self.second)]);
    }
}

impl Serialize for FieldRepr {
    fn serialize_json(&self, out: &mut String) {
        write_object(out, &[("name", &self.name), ("cardinality", &self.cardinality), ("kind", &self.kind)]);
    }
}

impl Serialize for SchemaRepr {
    fn serialize_json(&self, out: &mut String) {
        write_object(out, &[("fields", &self.fields)]);
    }
}

impl Serialize for IndexRepr {
    fn serialize_json(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("kind", &self.kind),
                ("k", &self.k),
                ("phi_mean", &self.phi_mean),
                ("item_norms", &self.item_norms),
                ("assignments", &self.assignments),
                ("default_nprobe", &self.default_nprobe),
                ("min_candidates", &self.min_candidates),
            ],
        );
    }
}

impl Serialize for CatalogRepr {
    fn serialize_json(&self, out: &mut String) {
        let members: [(&str, &dyn Serialize); 3] = [
            ("item_slots", &self.item_slots),
            ("user_templates", &self.user_templates),
            ("item_feats", &self.item_feats),
        ];
        write_object(out, &members);
    }
}

impl Serialize for TreeArtifact {
    fn serialize_json(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("format_version", &self.format_version),
                ("spec", &self.spec),
                ("schema", &self.schema),
                ("frozen", &self.frozen),
                ("catalog", &self.catalog),
                ("seen", &self.seen),
                ("index", &self.index),
                ("precision", &self.precision),
            ],
        );
    }
}
