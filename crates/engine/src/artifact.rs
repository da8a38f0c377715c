//! The versioned, servable artifact: spec + schema + frozen matrices
//! (+ optional serving catalog) in one JSON file.
//!
//! An artifact is everything a serving process needs and nothing it does
//! not: no autograd tape, no optimizer state, no training data. Loading
//! one (`Engine::load`) reconstructs a [`gmlfm_serve::FrozenModel`]
//! directly from the stored matrices — the training crates are never
//! touched — and the embedded [`Catalog`] (per-user templates + per-item
//! feature groups) makes `top_n` servable straight off the file.
//!
//! The `format_version` field is checked *before* the body is decoded,
//! so a bumped or unknown version fails with
//! [`EngineError::UnsupportedVersion`] rather than a parse panic deep in
//! some field.
//!
//! ## Format history
//!
//! * **v1** — spec + schema + frozen matrices + optional catalog.
//! * **v2** — adds the optional per-user `seen` sets
//!   ([`gmlfm_service::SeenItems`]) behind the serving API's default
//!   seen-item exclusion. v1 artifacts still load (the `seen` field
//!   decodes as absent, so top-n requests simply exclude nothing).
//! * **v3** — adds the optional IVF retrieval `index`
//!   ([`gmlfm_serve::IvfIndex`]: per-cluster φ-means, radii and item
//!   assignments), so load → serve needs no index rebuild. v1/v2
//!   artifacts still load (the `index` field decodes as absent, so
//!   top-n requests serve through the exact sharded-heap path).
//! * **v4** — adds the optional default scoring `precision`
//!   ([`gmlfm_serve::Precision`] name: `"f64"` / `"f32"` / `"i8"`).
//!   Only the *setting* is stored; the low-precision tables themselves
//!   are rebuilt on load from the exact matrices, so artifacts don't
//!   grow. v1–v3 artifacts still load (the field decodes as absent,
//!   meaning exact `f64` serving — exactly their old behaviour).

use crate::error::EngineError;
use crate::spec::{distance_from_name, distance_name, ModelSpec};
use gmlfm_data::schema::Field;
use gmlfm_data::{FieldKind, Schema};
use gmlfm_serve::{FrozenModel, IvfIndex, Precision, SecondOrder};
use gmlfm_service::{ModelSnapshot, SeenItems};
use gmlfm_tensor::Matrix;
use serde::json::{self, first, optional, required, Reader, Typed, Value};
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::Path;

/// The artifact format version this build writes.
pub const ARTIFACT_VERSION: u32 = 4;

/// The oldest artifact format version this build still reads.
pub const MIN_ARTIFACT_VERSION: u32 = 1;

/// A dense matrix in serialisable form.
#[derive(Debug, Clone)]
pub(crate) struct MatrixRepr {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Serialize for MatrixRepr {
    fn serialize_json(&self, out: &mut String) {
        json::write_object(out, &[("rows", &self.rows), ("cols", &self.cols), ("data", &self.data)]);
    }
}

impl Deserialize<'_> for MatrixRepr {
    fn deserialize(r: &mut Reader<'_>) -> Result<Typed<Self>, json::Error> {
        let (mut rows, mut cols, mut data) = (None, None, None);
        let read = json::object(r, "rows", |key, r| match key {
            "rows" => first(&mut rows, r),
            "cols" => first(&mut cols, r),
            "data" => first(&mut data, r),
            _ => r.skip(),
        })?;
        Ok(read.and_then(|()| {
            Ok(Self {
                rows: required(&mut rows, "rows")?,
                cols: required(&mut cols, "cols")?,
                data: required(&mut data, "data")?,
            })
        }))
    }
}

impl MatrixRepr {
    fn from_matrix(m: &Matrix) -> Self {
        Self { rows: m.rows(), cols: m.cols(), data: m.as_slice().to_vec() }
    }

    fn into_matrix(self) -> Result<Matrix, EngineError> {
        if self.data.len() != self.rows * self.cols {
            return Err(EngineError::BadArtifact(format!(
                "matrix {}x{} carries {} values",
                self.rows,
                self.cols,
                self.data.len()
            )));
        }
        Ok(Matrix::from_vec(self.rows, self.cols, self.data))
    }
}

/// Serialisable form of [`SecondOrder`], tagged by `kind`.
#[derive(Debug, Clone)]
pub(crate) enum SecondRepr {
    Dot,
    Metric { v_hat: MatrixRepr, q: Vec<f64>, h: Option<Vec<f64>>, distance: String },
    Translated { v_trans: MatrixRepr },
}

impl Serialize for SecondRepr {
    fn serialize_json(&self, out: &mut String) {
        match self {
            SecondRepr::Dot => json::write_object(out, &[("kind", &"dot")]),
            SecondRepr::Metric { v_hat, q, h, distance } => json::write_object(
                out,
                &[("kind", &"metric"), ("v_hat", v_hat), ("q", q), ("h", h), ("distance", distance)],
            ),
            SecondRepr::Translated { v_trans } => {
                json::write_object(out, &[("kind", &"translated"), ("v_trans", v_trans)])
            }
        }
    }
}

impl Deserialize<'_> for SecondRepr {
    fn deserialize(r: &mut Reader<'_>) -> Result<Typed<Self>, json::Error> {
        let (mut kind, mut v_hat, mut q, mut h, mut distance, mut v_trans) = Default::default();
        let read = json::object(r, "kind", |key, r| match key {
            "kind" => first(&mut kind, r),
            "v_hat" => first(&mut v_hat, r),
            "q" => first(&mut q, r),
            "h" => first(&mut h, r),
            "distance" => first(&mut distance, r),
            "v_trans" => first(&mut v_trans, r),
            _ => r.skip(),
        })?;
        Ok(read.and_then(|()| match required::<String>(&mut kind, "kind")?.as_str() {
            "dot" => Ok(SecondRepr::Dot),
            "metric" => Ok(SecondRepr::Metric {
                v_hat: required(&mut v_hat, "v_hat")?,
                q: required(&mut q, "q")?,
                h: required(&mut h, "h")?,
                distance: required(&mut distance, "distance")?,
            }),
            "translated" => Ok(SecondRepr::Translated { v_trans: required(&mut v_trans, "v_trans")? }),
            other => Err(json::Error::new(format!("unknown second-order kind '{other}'"))),
        }))
    }
}

/// Serialisable form of a [`FrozenModel`].
#[derive(Debug, Clone)]
pub(crate) struct FrozenRepr {
    w0: f64,
    w: Vec<f64>,
    v: MatrixRepr,
    second: SecondRepr,
}

impl Serialize for FrozenRepr {
    fn serialize_json(&self, out: &mut String) {
        json::write_object(
            out,
            &[("w0", &self.w0), ("w", &self.w), ("v", &self.v), ("second", &self.second)],
        );
    }
}

impl Deserialize<'_> for FrozenRepr {
    fn deserialize(r: &mut Reader<'_>) -> Result<Typed<Self>, json::Error> {
        let (mut w0, mut w, mut v, mut second) = (None, None, None, None);
        let read = json::object(r, "w0", |key, r| match key {
            "w0" => first(&mut w0, r),
            "w" => first(&mut w, r),
            "v" => first(&mut v, r),
            "second" => first(&mut second, r),
            _ => r.skip(),
        })?;
        Ok(read.and_then(|()| {
            Ok(Self {
                w0: required(&mut w0, "w0")?,
                w: required(&mut w, "w")?,
                v: required(&mut v, "v")?,
                second: required(&mut second, "second")?,
            })
        }))
    }
}

impl FrozenRepr {
    pub(crate) fn from_frozen(frozen: &FrozenModel) -> Self {
        let second = match frozen.second_order_kind() {
            SecondOrder::Dot => SecondRepr::Dot,
            SecondOrder::Metric { hat, h, distance } => SecondRepr::Metric {
                // The artifact keeps V̂ and q as separate fields (stable
                // format); the packed serving layout is rebuilt on load.
                v_hat: MatrixRepr::from_matrix(&hat.v_hat_matrix()),
                q: hat.q_vec(),
                h: h.clone(),
                distance: distance_name(*distance).to_string(),
            },
            SecondOrder::Translated { v_trans } => {
                SecondRepr::Translated { v_trans: MatrixRepr::from_matrix(v_trans) }
            }
        };
        Self {
            w0: frozen.bias(),
            w: frozen.linear_weights().to_vec(),
            v: MatrixRepr::from_matrix(frozen.factors()),
            second,
        }
    }

    pub(crate) fn into_frozen(self) -> Result<FrozenModel, EngineError> {
        let v = self.v.into_matrix()?;
        let (n, k) = v.shape();
        if self.w.len() != n {
            return Err(EngineError::BadArtifact(format!(
                "{} linear weights for {n} features",
                self.w.len()
            )));
        }
        let second = match self.second {
            SecondRepr::Dot => SecondOrder::Dot,
            SecondRepr::Metric { v_hat, q, h, distance } => {
                let v_hat = v_hat.into_matrix()?;
                if v_hat.shape() != (n, k) {
                    return Err(EngineError::BadArtifact("V-hat shape differs from V".into()));
                }
                if q.len() != n {
                    return Err(EngineError::BadArtifact(format!("{} norms for {n} features", q.len())));
                }
                if let Some(h) = &h {
                    if h.len() != k {
                        return Err(EngineError::BadArtifact(format!(
                            "{} transformation weights for k={k}",
                            h.len()
                        )));
                    }
                }
                let distance = distance_from_name(&distance)?;
                SecondOrder::metric(v_hat, q, h, distance)
            }
            SecondRepr::Translated { v_trans } => {
                let v_trans = v_trans.into_matrix()?;
                if v_trans.shape() != (n, k) {
                    return Err(EngineError::BadArtifact("translation table shape differs from V".into()));
                }
                SecondOrder::Translated { v_trans }
            }
        };
        Ok(FrozenModel::from_parts(self.w0, self.w, v, second))
    }
}

/// One schema field in serialisable form.
#[derive(Debug, Clone)]
pub(crate) struct FieldRepr {
    name: String,
    cardinality: usize,
    kind: String,
}

impl Serialize for FieldRepr {
    fn serialize_json(&self, out: &mut String) {
        json::write_object(
            out,
            &[("name", &self.name), ("cardinality", &self.cardinality), ("kind", &self.kind)],
        );
    }
}

impl Deserialize<'_> for FieldRepr {
    fn deserialize(r: &mut Reader<'_>) -> Result<Typed<Self>, json::Error> {
        let (mut name, mut cardinality, mut kind) = (None, None, None);
        let read = json::object(r, "name", |key, r| match key {
            "name" => first(&mut name, r),
            "cardinality" => first(&mut cardinality, r),
            "kind" => first(&mut kind, r),
            _ => r.skip(),
        })?;
        Ok(read.and_then(|()| {
            Ok(Self {
                name: required(&mut name, "name")?,
                cardinality: required(&mut cardinality, "cardinality")?,
                kind: required(&mut kind, "kind")?,
            })
        }))
    }
}

/// Serialisable form of a [`Schema`].
#[derive(Debug, Clone)]
pub(crate) struct SchemaRepr {
    fields: Vec<FieldRepr>,
}

impl Serialize for SchemaRepr {
    fn serialize_json(&self, out: &mut String) {
        json::write_object(out, &[("fields", &self.fields)]);
    }
}

impl Deserialize<'_> for SchemaRepr {
    fn deserialize(r: &mut Reader<'_>) -> Result<Typed<Self>, json::Error> {
        let mut fields = None;
        let read = json::object(r, "fields", |key, r| match key {
            "fields" => first(&mut fields, r),
            _ => r.skip(),
        })?;
        Ok(read.and_then(|()| Ok(Self { fields: required(&mut fields, "fields")? })))
    }
}

fn kind_name(kind: FieldKind) -> &'static str {
    match kind {
        FieldKind::User => "user",
        FieldKind::Item => "item",
        FieldKind::UserAttr => "user_attr",
        FieldKind::Category => "category",
        FieldKind::Condition => "condition",
        FieldKind::Shipping => "shipping",
        FieldKind::ItemAttr => "item_attr",
    }
}

fn kind_from_name(name: &str) -> Result<FieldKind, EngineError> {
    match name {
        "user" => Ok(FieldKind::User),
        "item" => Ok(FieldKind::Item),
        "user_attr" => Ok(FieldKind::UserAttr),
        "category" => Ok(FieldKind::Category),
        "condition" => Ok(FieldKind::Condition),
        "shipping" => Ok(FieldKind::Shipping),
        "item_attr" => Ok(FieldKind::ItemAttr),
        other => Err(EngineError::BadArtifact(format!("unknown field kind '{other}'"))),
    }
}

impl SchemaRepr {
    pub(crate) fn from_schema(schema: &Schema) -> Self {
        Self {
            fields: schema
                .fields()
                .iter()
                .map(|f| FieldRepr {
                    name: f.name.clone(),
                    cardinality: f.cardinality,
                    kind: kind_name(f.kind).to_string(),
                })
                .collect(),
        }
    }

    pub(crate) fn into_schema(self) -> Result<Schema, EngineError> {
        let mut fields = Vec::with_capacity(self.fields.len());
        for f in self.fields {
            fields.push(Field { name: f.name, cardinality: f.cardinality, kind: kind_from_name(&f.kind)? });
        }
        Ok(Schema::new(fields))
    }
}

/// Serialisable form of an [`IvfIndex`] (v3+): the per-cluster means
/// plus the per-item cluster assignment and deviation-norm vectors,
/// from which the member lists and cluster radii are rebuilt on load.
#[derive(Debug, Clone)]
pub(crate) struct IndexRepr {
    kind: String,
    k: usize,
    phi_mean: MatrixRepr,
    item_norms: Vec<f64>,
    assignments: Vec<u32>,
    default_nprobe: usize,
    min_candidates: usize,
}

impl Serialize for IndexRepr {
    fn serialize_json(&self, out: &mut String) {
        json::write_object(
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

impl Deserialize<'_> for IndexRepr {
    fn deserialize(r: &mut Reader<'_>) -> Result<Typed<Self>, json::Error> {
        let (mut kind, mut k, mut phi_mean, mut item_norms, mut assignments, mut nprobe, mut min) =
            Default::default();
        let read = json::object(r, "kind", |key, r| match key {
            "kind" => first(&mut kind, r),
            "k" => first(&mut k, r),
            "phi_mean" => first(&mut phi_mean, r),
            "item_norms" => first(&mut item_norms, r),
            "assignments" => first(&mut assignments, r),
            "default_nprobe" => first(&mut nprobe, r),
            "min_candidates" => first(&mut min, r),
            _ => r.skip(),
        })?;
        Ok(read.and_then(|()| {
            Ok(Self {
                kind: required(&mut kind, "kind")?,
                k: required(&mut k, "k")?,
                phi_mean: required(&mut phi_mean, "phi_mean")?,
                item_norms: required(&mut item_norms, "item_norms")?,
                assignments: required(&mut assignments, "assignments")?,
                default_nprobe: required(&mut nprobe, "default_nprobe")?,
                min_candidates: required(&mut min, "min_candidates")?,
            })
        }))
    }
}

impl IndexRepr {
    pub(crate) fn from_index(index: &IvfIndex) -> Self {
        Self {
            kind: index.kind().name().to_string(),
            k: index.k(),
            phi_mean: MatrixRepr::from_matrix(index.phi_mean()),
            item_norms: index.item_norms(),
            assignments: index.assignments(),
            default_nprobe: index.default_nprobe(),
            min_candidates: index.min_candidates(),
        }
    }

    pub(crate) fn into_index(self) -> Result<IvfIndex, EngineError> {
        let phi_mean = self.phi_mean.into_matrix()?;
        IvfIndex::from_parts(
            &self.kind,
            self.k,
            phi_mean,
            self.item_norms,
            self.assignments,
            self.default_nprobe,
            self.min_candidates,
        )
        .map_err(EngineError::BadArtifact)
    }
}

/// The serving catalog (re-exported from [`gmlfm_service`], where the
/// request path that consumes it lives).
pub use gmlfm_service::Catalog;

/// A saved, versioned, servable model: spec + schema + frozen matrices
/// (+ optional catalog and seen sets) in one JSON document.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Format version; checked before the body is decoded.
    pub format_version: u32,
    /// What the model is (restores with the artifact).
    pub spec: ModelSpec,
    pub(crate) schema: SchemaRepr,
    pub(crate) frozen: FrozenRepr,
    /// Serving catalog, when the recommender was fit from a dataset.
    pub catalog: Option<Catalog>,
    /// Per-user training-time seen sets (v2+), backing the serving API's
    /// default seen-item exclusion.
    pub seen: Option<SeenItems>,
    /// IVF retrieval index (v3+), rebuilt into a [`IvfIndex`] on load.
    pub(crate) index: Option<IndexRepr>,
    /// Default scoring precision by [`Precision::name`] (v4+); the
    /// low-precision tables are rebuilt on load, not stored.
    pub(crate) precision: Option<String>,
}

impl Serialize for Artifact {
    fn serialize_json(&self, out: &mut String) {
        json::write_object(
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

impl Artifact {
    /// Assembles an artifact from a frozen model and its provenance.
    /// [`crate::Recommender::artifact`] is the usual entry point; this
    /// constructor serves custom pipelines that freeze models themselves.
    pub fn new(
        spec: ModelSpec,
        schema: &Schema,
        frozen: &FrozenModel,
        catalog: Option<Catalog>,
        seen: Option<SeenItems>,
        index: Option<&IvfIndex>,
    ) -> Self {
        Self {
            format_version: ARTIFACT_VERSION,
            spec,
            schema: SchemaRepr::from_schema(schema),
            frozen: FrozenRepr::from_frozen(frozen),
            catalog,
            seen,
            index: index.map(IndexRepr::from_index),
            // The f64 default is omitted rather than written, keeping
            // v4 artifacts of exact models byte-identical in spirit to
            // v3 (and absent == "f64" on load either way).
            precision: match frozen.precision() {
                Precision::F64 => None,
                p => Some(p.name().to_string()),
            },
        }
    }

    /// Decodes the artifact body into the servable [`ModelSnapshot`] the
    /// serving API consumes — what [`crate::Engine::load`] wraps, and
    /// what a serving process feeds to
    /// [`gmlfm_service::ModelServer::swap`] for a zero-downtime model
    /// refresh.
    pub fn into_snapshot(self) -> Result<ModelSnapshot, EngineError> {
        let precision = match &self.precision {
            None => Precision::F64,
            Some(name) => Precision::from_name(name)
                .ok_or_else(|| EngineError::BadArtifact(format!("unknown precision '{name}'")))?,
        };
        Ok(ModelSnapshot {
            schema: self.schema.into_schema()?,
            frozen: self.frozen.into_frozen()?.with_precision(precision),
            catalog: self.catalog,
            seen: self.seen,
            index: self.index.map(IndexRepr::into_index).transpose()?,
        })
    }

    /// Serialises to a JSON string.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// Parses an artifact, validating `format_version` before any type
    /// error in the body is reported.
    ///
    /// One pass over the text reads every member in place — syntax
    /// errors anywhere end it — and the gate then reads the version as
    /// whatever number it is. The `seen` member did not exist before
    /// format version 2, nor `index` before 3, nor `precision` before 4,
    /// so all decode as `None` when absent.
    pub fn from_json(text: &str) -> Result<Self, EngineError> {
        let mut r = Reader::new(text);
        let (mut version, mut spec, mut schema, mut frozen) = (None, None, None, None);
        let (mut catalog, mut seen, mut index, mut precision) = (None, None, None, None);
        let read = json::object(&mut r, "format_version", |key, r| match key {
            "format_version" => first(&mut version, r),
            "spec" => first(&mut spec, r),
            "schema" => first(&mut schema, r),
            "frozen" => first(&mut frozen, r),
            "catalog" => first(&mut catalog, r),
            "seen" => first(&mut seen, r),
            "index" => first(&mut index, r),
            "precision" => first(&mut precision, r),
            _ => r.skip(),
        })?;
        r.finish()?;
        let raw = match (read, version) {
            (Ok(()), Some(Ok(v))) => Value::as_f64(&v),
            _ => None,
        };
        let raw = raw.ok_or_else(|| EngineError::BadArtifact("missing format_version".into()))?;
        if raw.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&raw) {
            return Err(EngineError::BadArtifact(format!("format_version {raw} is not a u32")));
        }
        let version = raw as u32;
        if !(MIN_ARTIFACT_VERSION..=ARTIFACT_VERSION).contains(&version) {
            return Err(EngineError::UnsupportedVersion { found: version, supported: ARTIFACT_VERSION });
        }
        Ok(Self {
            format_version: version,
            spec: required(&mut spec, "spec")?,
            schema: required(&mut schema, "schema")?,
            frozen: required(&mut frozen, "frozen")?,
            catalog: required(&mut catalog, "catalog")?,
            seen: optional(&mut seen, "seen")?.flatten(),
            index: optional(&mut index, "index")?.flatten(),
            precision: optional(&mut precision, "precision")?.flatten(),
        })
    }

    /// Writes the artifact as JSON, creating parent directories.
    ///
    /// The write is **crash-safe**: the bytes go to a sibling temp file,
    /// are fsynced, and only then atomically renamed over `path`. A
    /// crash or power loss mid-save leaves either the old artifact or
    /// the new one — never a truncated or interleaved file — so a
    /// serving process can always [`Artifact::load`] whatever is at
    /// `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), EngineError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        // Temp file in the same directory, so the rename below cannot
        // cross filesystems (cross-device renames are not atomic). The
        // pid keeps concurrent savers from clobbering each other's
        // partial writes; last rename wins, each one atomic.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        let result = (|| {
            let mut file = fs::File::create(&tmp)?;
            use std::io::Write;
            file.write_all(self.to_json().as_bytes())?;
            // Flush file contents to stable storage before the rename
            // makes them reachable under `path`.
            file.sync_all()?;
            drop(file);
            fs::rename(&tmp, path)?;
            Ok(())
        })();
        if result.is_err() {
            // Best-effort cleanup; the failure we report is the write's.
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Reads an artifact saved by [`Artifact::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, EngineError> {
        Self::from_json(&fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumped_version_is_a_typed_error() {
        let err = Artifact::from_json("{\"format_version\": 99}").unwrap_err();
        assert!(matches!(err, EngineError::UnsupportedVersion { found: 99, supported: ARTIFACT_VERSION }));
    }

    #[test]
    fn supported_version_range_gates_before_body_decode() {
        // v0 never existed and the next future version is unknown: both
        // rejected at the gate. Every version in the supported range
        // passes the gate — the error (if any) comes from the missing
        // body fields, proving decode was attempted.
        for version in [0u32, ARTIFACT_VERSION + 1] {
            let err = Artifact::from_json(&format!("{{\"format_version\": {version}}}")).unwrap_err();
            assert!(
                matches!(err, EngineError::UnsupportedVersion { found, supported: ARTIFACT_VERSION } if found == version),
                "{err}"
            );
        }
        for version in MIN_ARTIFACT_VERSION..=ARTIFACT_VERSION {
            let err = Artifact::from_json(&format!("{{\"format_version\": {version}}}")).unwrap_err();
            assert!(matches!(err, EngineError::Json(_)), "v{version}: {err}");
        }
    }

    #[test]
    fn missing_version_is_a_typed_error() {
        let err = Artifact::from_json("{\"spec\": {}}").unwrap_err();
        assert!(matches!(err, EngineError::BadArtifact(_)));
    }

    #[test]
    fn fractional_version_is_rejected_not_truncated() {
        // 1.5 must not be truncated to the supported version 1 in the
        // error report.
        let err = Artifact::from_json("{\"format_version\": 1.5}").unwrap_err();
        assert!(matches!(err, EngineError::BadArtifact(_)), "{err}");
    }

    #[test]
    fn malformed_json_is_a_typed_error() {
        let err = Artifact::from_json("{not json").unwrap_err();
        assert!(matches!(err, EngineError::Json(_)));
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = Artifact::load("/nonexistent/dir/artifact.json").unwrap_err();
        assert!(matches!(err, EngineError::Io(_)));
    }

    #[test]
    fn schema_round_trips() {
        let schema = Schema::from_specs(&[
            ("user", 7, FieldKind::User),
            ("item", 9, FieldKind::Item),
            ("cat", 3, FieldKind::Category),
        ]);
        let repr = SchemaRepr::from_schema(&schema);
        let back: SchemaRepr = json::from_str(&json::to_string(&repr)).unwrap();
        let restored = back.into_schema().unwrap();
        assert_eq!(restored.total_dim(), schema.total_dim());
        assert_eq!(restored.fields()[2].kind, FieldKind::Category);
        assert_eq!(restored.fields()[1].name, "item");
    }
}
