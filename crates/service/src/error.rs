//! The typed request-validation error: every way an online request can
//! be malformed, none of them a panic and none of them silent garbage.

use std::fmt;

/// Why a request (or a hot-swap) was rejected.
///
/// Every variant names the offending input and the bound it violated, so
/// a serving frontend can turn it into a precise 4xx-style reply without
/// string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestError {
    /// A raw feature index at or beyond the model's one-hot dimension.
    FeatureOutOfRange {
        /// The offending feature index.
        feature: u32,
        /// The model's one-hot dimension `n`.
        n_features: usize,
    },
    /// A user id outside the serving catalog.
    UnknownUser {
        /// The requested user.
        user: u32,
        /// Number of users in the catalog.
        n_users: usize,
    },
    /// An item id outside the serving catalog.
    UnknownItem {
        /// The requested item.
        item: u32,
        /// Number of items in the catalog.
        n_items: usize,
    },
    /// A named field that does not exist in the model's schema.
    UnknownField {
        /// The unresolved field name.
        field: String,
    },
    /// The same field was given twice in one request.
    DuplicateField {
        /// The repeated field name.
        field: String,
    },
    /// A field value at or beyond the field's cardinality.
    ValueOutOfRange {
        /// The offending field name.
        field: String,
        /// The requested value.
        value: usize,
        /// The field's cardinality.
        cardinality: usize,
    },
    /// A cold-start request named an item-side field; item-side values
    /// come from the catalog via the request's `item` id.
    ItemSideField {
        /// The offending field name.
        field: String,
    },
    /// A catalog-based request (`Pair`, `Cold`, top-n) against a model
    /// served without a catalog.
    MissingCatalog,
    /// A hot-swap (or server construction) whose snapshot is not
    /// compatible with the serving schema, or is internally inconsistent.
    SchemaMismatch {
        /// Human-readable description of the incompatibility.
        reason: String,
    },
    /// A feed event whose explicit rating is NaN or infinite: training
    /// on it would turn every weight into NaN.
    NonFiniteRating,
    /// A feed event arrived while the bounded interaction log was full.
    /// Transient: the event's seen-set fold (if any) is retained, but
    /// the event was not enqueued for retraining — retry after the next
    /// retrain drains the log.
    Backpressure {
        /// The log's capacity in events.
        capacity: usize,
    },
}

impl RequestError {
    /// A stable machine-readable code naming the variant, for wire
    /// protocols and logs. Codes are part of the public protocol: they
    /// never change meaning, and new variants get new codes.
    pub fn code(&self) -> &'static str {
        match self {
            RequestError::FeatureOutOfRange { .. } => "feature_out_of_range",
            RequestError::UnknownUser { .. } => "unknown_user",
            RequestError::UnknownItem { .. } => "unknown_item",
            RequestError::UnknownField { .. } => "unknown_field",
            RequestError::DuplicateField { .. } => "duplicate_field",
            RequestError::ValueOutOfRange { .. } => "value_out_of_range",
            RequestError::ItemSideField { .. } => "item_side_field",
            RequestError::MissingCatalog => "missing_catalog",
            RequestError::SchemaMismatch { .. } => "schema_mismatch",
            RequestError::NonFiniteRating => "non_finite_rating",
            RequestError::Backpressure { .. } => "backpressure",
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::FeatureOutOfRange { feature, n_features } => {
                write!(f, "feature index {feature} outside the model's {n_features} features")
            }
            RequestError::UnknownUser { user, n_users } => {
                write!(f, "user {user} outside the catalog's {n_users} users")
            }
            RequestError::UnknownItem { item, n_items } => {
                write!(f, "item {item} outside the catalog's {n_items} items")
            }
            RequestError::UnknownField { field } => {
                write!(f, "field '{field}' does not exist in the serving schema")
            }
            RequestError::DuplicateField { field } => {
                write!(f, "field '{field}' given more than once")
            }
            RequestError::ValueOutOfRange { field, value, cardinality } => {
                write!(f, "value {value} outside field '{field}' (cardinality {cardinality})")
            }
            RequestError::ItemSideField { field } => {
                write!(f, "field '{field}' is item-side; pass the item id instead of a field value")
            }
            RequestError::MissingCatalog => {
                write!(f, "model is served without a catalog; only feature-index requests are possible")
            }
            RequestError::SchemaMismatch { reason } => write!(f, "incompatible model snapshot: {reason}"),
            RequestError::NonFiniteRating => write!(f, "the interaction's rating is not a finite number"),
            RequestError::Backpressure { capacity } => {
                write!(f, "interaction log full ({capacity} events); retry after the next retrain")
            }
        }
    }
}

impl std::error::Error for RequestError {}
