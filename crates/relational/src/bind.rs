//! Bound constants: the execution-time face of prepared-query parameters.
//!
//! A [`BoundValues`] maps query attributes to the constants a prepared
//! query was bound to (inline literals resolved by the parser plus `$name`
//! parameters resolved by `Prepared::bind`). Every execution layer consumes
//! the same vocabulary:
//!
//! * the HCube shuffle drops tuples failing a bound equality *before*
//!   routing them ([`BoundValues::filters_for`]);
//! * the share optimizer pins bound attributes to share 1
//!   ([`BoundValues::mask`]) — a fully-bound dimension has nothing left to
//!   partition;
//! * Leapfrog seeks the constant at bound trie levels
//!   ([`BoundValues::get`]) instead of intersecting candidate runs.
//!
//! The type lives here (not in the query layer) because the shuffle and the
//! join know nothing about queries — only about attributes and values.

use crate::error::{Error, Result};
use crate::schema::{Attr, Schema};
use crate::Value;

/// A sorted, deduplicated set of `attribute = constant` equality selections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BoundValues {
    /// `(attr, value)` pairs, sorted by attribute, at most one per attr.
    pairs: Vec<(Attr, Value)>,
}

impl BoundValues {
    /// No bindings — the unbound (plain join) execution.
    pub fn none() -> Self {
        BoundValues::default()
    }

    /// Builds the set from `(attr, value)` pairs. Duplicate attributes with
    /// equal values collapse; conflicting values for one attribute are
    /// rejected (such a query is a contradiction the caller should see, not
    /// a silently-empty answer).
    pub fn new(mut pairs: Vec<(Attr, Value)>) -> Result<Self> {
        pairs.sort_unstable();
        pairs.dedup();
        for w in pairs.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(Error::DuplicateAttr(w[0].0.to_string()));
            }
        }
        Ok(BoundValues { pairs })
    }

    /// Whether no attribute is bound.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of bound attributes.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// The bound value of `attr`, if any.
    pub fn get(&self, attr: Attr) -> Option<Value> {
        self.pairs.binary_search_by_key(&attr, |&(a, _)| a).ok().map(|i| self.pairs[i].1)
    }

    /// The `(attr, value)` pairs, sorted by attribute.
    pub fn pairs(&self) -> &[(Attr, Value)] {
        &self.pairs
    }

    /// Bitmask of the bound attributes.
    pub fn mask(&self) -> u64 {
        self.pairs.iter().fold(0, |m, &(a, _)| m | a.mask())
    }

    /// The equality filters that apply to a relation with `schema`, as
    /// `(column position, required value)` pairs — what the shuffle checks
    /// per tuple before routing. Empty when the schema contains no bound
    /// attribute.
    pub fn filters_for(&self, schema: &Schema) -> Vec<(usize, Value)> {
        let mut filters: Vec<(usize, Value)> =
            self.pairs.iter().filter_map(|&(a, v)| schema.position(a).map(|p| (p, v))).collect();
        filters.sort_unstable();
        filters
    }

    /// Whether `schema` contains any bound attribute (i.e. whether its
    /// relation is filtered by this binding).
    pub fn touches(&self, schema: &Schema) -> bool {
        schema.mask() & self.mask() != 0
    }

    /// A stable fingerprint of the bindings that apply to `schema`: 0 when
    /// none do (the relation's shuffled fragments are binding-independent),
    /// odd and value-dependent otherwise — the `route_tag`-style *binding
    /// tag* that keeps bound-level index entries from ever aliasing unbound
    /// ones. (FNV-1a, stable across processes like the query fingerprint.)
    pub fn tag_for(&self, schema: &Schema) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut touched = false;
        for &(a, v) in &self.pairs {
            if !schema.contains(a) {
                continue;
            }
            touched = true;
            for b in a.0.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        if touched {
            h | 1
        } else {
            0
        }
    }

    /// Merges two binding sets (e.g. parser-resolved literals with
    /// `bind`-time parameters), rejecting conflicts.
    pub fn merged(&self, other: &BoundValues) -> Result<BoundValues> {
        let mut pairs = self.pairs.clone();
        pairs.extend_from_slice(&other.pairs);
        BoundValues::new(pairs)
    }

    /// This binding with `defaults` filling the attributes it leaves
    /// unbound; where both bind an attribute, this binding's value wins.
    /// The executors resolve a submission's values over a shared plan's
    /// inline literals this way.
    pub fn with_defaults(&self, defaults: &BoundValues) -> Result<BoundValues> {
        let mut pairs = self.pairs.clone();
        pairs.extend(defaults.pairs.iter().filter(|&&(a, _)| self.get(a).is_none()));
        BoundValues::new(pairs)
    }

    /// Whether `row` (laid out as `schema`'s columns) satisfies every bound
    /// equality that applies to the schema.
    pub fn matches(&self, schema: &Schema, row: &[Value]) -> bool {
        self.pairs.iter().all(|&(a, v)| schema.position(a).map(|p| row[p] == v).unwrap_or(true))
    }
}

impl FromIterator<(Attr, Value)> for BoundValues {
    /// Collects pairs, panicking on conflicting duplicates — use
    /// [`BoundValues::new`] for fallible construction.
    fn from_iter<T: IntoIterator<Item = (Attr, Value)>>(iter: T) -> Self {
        BoundValues::new(iter.into_iter().collect()).expect("conflicting bound values")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_dedup_and_lookup() {
        let b = BoundValues::new(vec![(Attr(2), 7), (Attr(0), 5), (Attr(2), 7)]).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.get(Attr(0)), Some(5));
        assert_eq!(b.get(Attr(2)), Some(7));
        assert_eq!(b.get(Attr(1)), None);
        assert_eq!(b.mask(), 0b101);
        assert!(!b.is_empty());
        assert!(BoundValues::none().is_empty());
    }

    #[test]
    fn conflicting_values_are_rejected() {
        let err = BoundValues::new(vec![(Attr(0), 1), (Attr(0), 2)]).unwrap_err();
        assert!(matches!(err, Error::DuplicateAttr(_)));
    }

    #[test]
    fn filters_follow_schema_positions() {
        let b = BoundValues::new(vec![(Attr(0), 5), (Attr(2), 9)]).unwrap();
        // schema (c, a): attr 2 at column 0, attr 0 at column 1
        let s = Schema::from_ids(&[2, 0]);
        assert_eq!(b.filters_for(&s), vec![(0, 9), (1, 5)]);
        assert!(b.touches(&s));
        let t = Schema::from_ids(&[1, 3]);
        assert!(b.filters_for(&t).is_empty());
        assert!(!b.touches(&t));
    }

    #[test]
    fn matches_checks_applicable_columns_only() {
        let b = BoundValues::new(vec![(Attr(0), 5)]).unwrap();
        let s = Schema::from_ids(&[0, 1]);
        assert!(b.matches(&s, &[5, 99]));
        assert!(!b.matches(&s, &[6, 99]));
        let unrelated = Schema::from_ids(&[1, 2]);
        assert!(b.matches(&unrelated, &[1, 2]));
    }

    #[test]
    fn tag_is_zero_iff_untouched_and_value_dependent() {
        let s = Schema::from_ids(&[0, 1]);
        let b5 = BoundValues::new(vec![(Attr(0), 5)]).unwrap();
        let b6 = BoundValues::new(vec![(Attr(0), 6)]).unwrap();
        assert_eq!(BoundValues::none().tag_for(&s), 0);
        assert_eq!(b5.tag_for(&Schema::from_ids(&[1, 2])), 0, "no overlap → tag 0");
        assert_ne!(b5.tag_for(&s), 0);
        assert_ne!(b5.tag_for(&s), b6.tag_for(&s), "distinct values → distinct tags");
        assert_eq!(b5.tag_for(&s) & 1, 1, "non-zero tags are odd, never colliding with 0");
    }

    #[test]
    fn merge_combines_and_rejects_conflicts() {
        let a = BoundValues::new(vec![(Attr(0), 5)]).unwrap();
        let b = BoundValues::new(vec![(Attr(1), 6)]).unwrap();
        let m = a.merged(&b).unwrap();
        assert_eq!(m.len(), 2);
        let c = BoundValues::new(vec![(Attr(0), 7)]).unwrap();
        assert!(a.merged(&c).is_err());
        assert!(a.merged(&a).unwrap() == a);
    }

    #[test]
    fn defaults_fill_only_unbound_attrs() {
        let a = BoundValues::new(vec![(Attr(0), 5)]).unwrap();
        let c = BoundValues::new(vec![(Attr(0), 7), (Attr(2), 9)]).unwrap();
        let d = a.with_defaults(&c).unwrap();
        assert_eq!(d.pairs(), &[(Attr(0), 5), (Attr(2), 9)], "the binding's own value wins");
        assert_eq!(BoundValues::none().with_defaults(&c).unwrap(), c);
    }
}
