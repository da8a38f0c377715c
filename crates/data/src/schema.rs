//! Attribute schema: how categorical fields map into the concatenated
//! one-hot feature space of a factorization machine.
//!
//! In the paper's notation an instance is a length-`n` vector `x` built by
//! concatenating the one-hot encodings of each *attribute* (user ID, item
//! ID, category, ...). A [`Schema`] records the attribute fields and their
//! cardinalities; a global feature index is `offset(field) + value`.

/// The role a field plays; used to build the attribute subsets of the
/// paper's Table 6 (`base`, `base+cty`, `base+cty+cdn`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldKind {
    /// User ID field.
    User,
    /// Item ID field.
    Item,
    /// A user-side attribute (gender, age bucket, occupation, ...).
    UserAttr,
    /// An item category attribute (`cty` in Table 6).
    Category,
    /// An item condition attribute (`cdn` in Table 6).
    Condition,
    /// A shipping attribute (`shp` in Table 6).
    Shipping,
    /// Any other item-side attribute (MovieLens genre, Amazon
    /// sub-category, ...).
    ItemAttr,
}

/// One categorical attribute field.
#[derive(Debug, Clone)]
pub struct Field {
    /// Human-readable name, e.g. `"user"`, `"ship_method"`.
    pub name: String,
    /// Number of distinct values the field can take.
    pub cardinality: usize,
    /// Role of the field (drives attribute-subset experiments).
    pub kind: FieldKind,
}

/// An ordered collection of fields defining the one-hot feature space.
#[derive(Debug, Clone)]
pub struct Schema {
    fields: Vec<Field>,
    offsets: Vec<usize>,
    total_dim: usize,
}

impl Schema {
    /// Builds a schema from `(name, cardinality, kind)` triples.
    pub fn new(fields: Vec<Field>) -> Self {
        let mut offsets = Vec::with_capacity(fields.len());
        let mut acc = 0usize;
        for f in &fields {
            offsets.push(acc);
            acc += f.cardinality;
        }
        Self { fields, offsets, total_dim: acc }
    }

    /// Convenience constructor from tuples.
    pub fn from_specs(specs: &[(&str, usize, FieldKind)]) -> Self {
        Self::new(
            specs
                .iter()
                .map(|&(name, cardinality, kind)| Field { name: name.to_string(), cardinality, kind })
                .collect(),
        )
    }

    /// Number of fields.
    pub fn n_fields(&self) -> usize {
        self.fields.len()
    }

    /// Total one-hot dimensionality `n` (the paper's "#attribute-dim").
    pub fn total_dim(&self) -> usize {
        self.total_dim
    }

    /// The fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Offset of `field` in the global index space.
    pub fn offset(&self, field: usize) -> usize {
        self.offsets[field]
    }

    /// Global feature index for `value` of `field`.
    ///
    /// # Panics
    /// Panics when the value exceeds the field's cardinality.
    pub fn feature_index(&self, field: usize, value: usize) -> u32 {
        let f = &self.fields[field];
        assert!(
            value < f.cardinality,
            "feature_index: value {value} out of range for field '{}' (cardinality {})",
            f.name,
            f.cardinality
        );
        (self.offsets[field] + value) as u32
    }

    /// Inverse of [`Schema::feature_index`]: which `(field, value)` a
    /// global index belongs to.
    pub fn decode(&self, index: u32) -> (usize, usize) {
        let idx = index as usize;
        assert!(idx < self.total_dim, "decode: index {idx} out of dimension {}", self.total_dim);
        // Fields are few (≤ 10); a linear scan beats a binary search here.
        for (field, &off) in self.offsets.iter().enumerate().rev() {
            if idx >= off {
                return (field, idx - off);
            }
        }
        unreachable!("offsets always start at 0");
    }

    /// Index of the first field with the given kind, if any.
    pub fn field_of_kind(&self, kind: FieldKind) -> Option<usize> {
        self.fields.iter().position(|f| f.kind == kind)
    }
}

/// A subset of a schema's fields, used for the attribute-effect study
/// (Table 6) where models are trained on `base`, `base+cty`, etc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldMask {
    active: Vec<bool>,
}

impl FieldMask {
    /// All fields active.
    pub fn all(schema: &Schema) -> Self {
        Self { active: vec![true; schema.n_fields()] }
    }

    /// Only the user and item fields (`base` in Table 6).
    pub fn base(schema: &Schema) -> Self {
        Self::of_kinds(schema, &[FieldKind::User, FieldKind::Item])
    }

    /// Fields whose kind appears in `kinds`.
    pub fn of_kinds(schema: &Schema, kinds: &[FieldKind]) -> Self {
        Self { active: schema.fields().iter().map(|f| kinds.contains(&f.kind)).collect() }
    }

    /// Returns a copy with every field of `kind` switched on.
    pub fn with_kind(&self, schema: &Schema, kind: FieldKind) -> Self {
        let mut active = self.active.clone();
        for (i, f) in schema.fields().iter().enumerate() {
            if f.kind == kind {
                active[i] = true;
            }
        }
        Self { active }
    }

    /// Whether `field` is active.
    pub fn is_active(&self, field: usize) -> bool {
        self.active[field]
    }

    /// Number of active fields.
    pub fn n_active(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Indices of active fields in order.
    pub fn active_fields(&self) -> Vec<usize> {
        self.active.iter().enumerate().filter(|(_, &a)| a).map(|(i, _)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn movielens_like() -> Schema {
        Schema::from_specs(&[
            ("user", 100, FieldKind::User),
            ("item", 50, FieldKind::Item),
            ("gender", 2, FieldKind::UserAttr),
            ("genre", 18, FieldKind::ItemAttr),
        ])
    }

    #[test]
    fn offsets_and_total_dim() {
        let s = movielens_like();
        assert_eq!(s.total_dim(), 170);
        assert_eq!(s.offset(0), 0);
        assert_eq!(s.offset(1), 100);
        assert_eq!(s.offset(2), 150);
        assert_eq!(s.offset(3), 152);
    }

    #[test]
    fn feature_index_round_trips() {
        let s = movielens_like();
        for field in 0..s.n_fields() {
            for value in [0usize, 1, s.fields()[field].cardinality - 1] {
                let idx = s.feature_index(field, value);
                assert_eq!(s.decode(idx), (field, value));
            }
        }
    }

    #[test]
    #[should_panic(expected = "feature_index")]
    fn feature_index_rejects_out_of_range() {
        let s = movielens_like();
        let _ = s.feature_index(2, 2);
    }

    #[test]
    fn kind_lookup() {
        let s = movielens_like();
        assert_eq!(s.field_of_kind(FieldKind::Item), Some(1));
        assert_eq!(s.field_of_kind(FieldKind::Shipping), None);
    }

    #[test]
    fn field_masks_select_subsets() {
        let s = movielens_like();
        let base = FieldMask::base(&s);
        assert_eq!(base.n_active(), 2);
        assert_eq!(base.active_fields(), vec![0, 1]);
        let with_genre = base.with_kind(&s, FieldKind::ItemAttr);
        assert_eq!(with_genre.active_fields(), vec![0, 1, 3]);
        let all = FieldMask::all(&s);
        assert_eq!(all.n_active(), 4);
    }
}
