//! Answer checks that do not share code with the paths they check.
//!
//! * [`set_hash`] fingerprints a result relation independently of its
//!   column order and row order, so an answer can be checked against an
//!   expected one without materializing both side by side.
//! * [`TriangleOracle`] keeps its own copy of the mutated relation and
//!   answers `Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)` by brute force.
//! * [`expected_answers`] computes the answers of the unbound workloads
//!   with a different algorithm: the multi-round binary join of
//!   `adj-baselines` where it stays under [`BINARY_JOIN_BUDGET`], else a
//!   1-worker Comm-First run. It runs in a child process (see
//!   `main.rs`), so its time and memory stay out of every measurement.

use crate::common::{self, Dataset, PaperQuery};
use adj_baselines::{run_binary_join, BaselineConfig};
use adj_cluster::{Cluster, ClusterConfig};
use adj_core::{Adj, Strategy};
use adj_datagen::UpdateBatch;
use adj_query::{paper_query, JoinQuery};
use adj_relational::{Attr, Database, OutputMode, Relation, Value};
use std::collections::{BTreeSet, HashMap};

/// Intermediate-tuple cap under which the binary join serves as oracle.
pub const BINARY_JOIN_BUDGET: usize = 2_000_000;

fn mix(mut x: u64) -> u64 {
    // SplitMix64 finalizer.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash of one row given as `(attribute, value)` pairs in attribute order.
fn row_hash(pairs: impl Iterator<Item = (Attr, Value)>) -> u64 {
    pairs.fold(0x9E37_79B9_7F4A_7C15, |h, (a, v)| mix(h ^ mix(((a.0 as u64) << 32) | v as u64)))
}

/// Order-free fingerprint of a relation: each row is hashed with its
/// values listed by ascending attribute id, and the row hashes are summed.
/// Two relations with the same rows over the same attributes hash equal
/// whatever their column order.
pub fn set_hash(rel: &Relation) -> u64 {
    let attrs = rel.schema().attrs();
    let mut by_attr: Vec<usize> = (0..attrs.len()).collect();
    by_attr.sort_by_key(|&i| attrs[i]);
    rel.rows()
        .map(|row| row_hash(by_attr.iter().map(|&i| (attrs[i], row[i]))))
        .fold(0u64, u64::wrapping_add)
}

/// What a checked answer must be: a row count and, for answers that
/// return rows, their [`set_hash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Result cardinality (rows returned, or the `COUNT`).
    pub count: u64,
    /// Fingerprint of the rows; `None` for `COUNT` answers.
    pub hash: Option<u64>,
}

impl Expected {
    /// Renders as one protocol line: `key count [hash]`.
    pub fn line(&self, key: &str) -> String {
        match self.hash {
            Some(h) => format!("{key} {} {h}", self.count),
            None => format!("{key} {}", self.count),
        }
    }

    /// Parses a line written by [`Expected::line`].
    pub fn parse(line: &str) -> Option<(String, Expected)> {
        let mut parts = line.split_whitespace();
        let key = parts.next()?.to_string();
        let count = parts.next()?.parse().ok()?;
        let hash = match parts.next() {
            Some(h) => Some(h.parse().ok()?),
            None => None,
        };
        Some((key, Expected { count, hash }))
    }
}

/// The full result of `query` over `db` by the oracle algorithm.
fn oracle_rows(query: &JoinQuery, db: &Database) -> Relation {
    let single = Cluster::new(ClusterConfig::with_workers(1));
    let budget =
        BaselineConfig { max_intermediate_tuples: BINARY_JOIN_BUDGET, ..Default::default() };
    match run_binary_join(&single, db, query, &budget) {
        Ok((rel, _)) => rel,
        Err(_) => comm_first(query, db, OutputMode::Rows).rows().clone(),
    }
}

/// The result cardinality of `query` over `db` by the oracle algorithm.
fn oracle_count(query: &JoinQuery, db: &Database) -> u64 {
    let single = Cluster::new(ClusterConfig::with_workers(1));
    let budget =
        BaselineConfig { max_intermediate_tuples: BINARY_JOIN_BUDGET, ..Default::default() };
    match run_binary_join(&single, db, query, &budget) {
        Ok((rel, _)) => rel.len() as u64,
        Err(_) => comm_first(query, db, OutputMode::Count)
            .count()
            .expect("a Count-mode output carries its count"),
    }
}

fn comm_first(query: &JoinQuery, db: &Database, mode: OutputMode) -> adj_relational::QueryOutput {
    let mut config = common::adj_config();
    config.cluster = ClusterConfig::with_workers(1);
    Adj::new(config)
        .execute_with(query, db, Strategy::CommFirst, mode)
        .expect("the 1-worker Comm-First oracle run succeeds")
        .output
}

/// Key of the expected `LIMIT` page for an output whose columns are
/// `attrs`, in that order.
pub fn limit_key(name: &str, attrs: &[Attr]) -> String {
    let ids: Vec<String> = attrs.iter().map(|a| a.0.to_string()).collect();
    format!("{name}/{}", ids.join(","))
}

/// Every ordering of `attrs`.
fn permutations(attrs: &[Attr]) -> Vec<Vec<Attr>> {
    if attrs.len() <= 1 {
        return vec![attrs.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..attrs.len() {
        let mut rest = attrs.to_vec();
        let first = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first);
            out.push(tail);
        }
    }
    out
}

/// The expected `LIMIT n` pages of `rows`, one per column order the
/// program may choose: a page is the `n` lexicographically smallest rows
/// under that column order.
fn limit_pages(name: &str, rows: &Relation, n: usize) -> Vec<(String, Expected)> {
    let attrs = rows.schema().attrs().to_vec();
    permutations(&attrs)
        .into_iter()
        .map(|order| {
            let pos: Vec<usize> = order
                .iter()
                .map(|a| attrs.iter().position(|b| b == a).expect("own attr"))
                .collect();
            let mut keyed: Vec<Vec<Value>> =
                rows.rows().map(|r| pos.iter().map(|&p| r[p]).collect()).collect();
            keyed.sort_unstable();
            keyed.truncate(n);
            let flat: Vec<Value> = keyed.into_iter().flatten().collect();
            let schema = adj_relational::Schema::new(order.clone()).expect("distinct attrs");
            let page = Relation::from_flat(schema, flat).expect("well-formed page");
            let expected = Expected { count: page.len() as u64, hash: Some(set_hash(&page)) };
            (limit_key(name, &order), expected)
        })
        .collect()
}

/// The expected answers of an unbound workload, as protocol lines.
pub fn expected_answers(workload: &str, seed: u64) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    match workload {
        "cold_complex" => {
            for ds in common::COLD_DATASETS {
                let graph = common::graph(ds, common::COLD_SCALE, seed);
                for q in common::COLD_QUERIES {
                    let query = paper_query(q);
                    let count = oracle_count(&query, &query.instantiate(&graph));
                    lines.push(Expected { count, hash: None }.line(&common::cold_key(ds, q)));
                }
            }
        }
        "warm_serve" => {
            let graph = common::graph(Dataset::LJ, common::WARM_SCALE, seed);
            let q1 = paper_query(PaperQuery::Q1);
            let rows = oracle_rows(&q1, &q1.instantiate(&graph));
            let q1_expected = Expected { count: rows.len() as u64, hash: Some(set_hash(&rows)) };
            lines.push(q1_expected.line("q1"));
            let q4 = paper_query(PaperQuery::Q4);
            let count = oracle_count(&q4, &q4.instantiate(&graph));
            lines.push(Expected { count, hash: None }.line("q4"));
            let q7 = paper_query(PaperQuery::Q7);
            let rows = oracle_rows(&q7, &q7.instantiate(&graph));
            for (key, e) in limit_pages("q7", &rows, common::WARM_LIMIT) {
                lines.push(e.line(&key));
            }
        }
        other => return Err(format!("no oracle for workload '{other}'")),
    }
    Ok(lines)
}

/// Brute-force answers of `Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)` over a
/// private copy of the database: `R1` follows every applied mutation,
/// `R2` and `R3` stay the base graph.
pub struct TriangleOracle {
    r1: HashMap<Value, BTreeSet<Value>>,
    /// Sorted out-neighbours in the base graph (`R2` and `R3`).
    base: HashMap<Value, Vec<Value>>,
}

impl TriangleOracle {
    /// An oracle over `graph` as all three relations.
    pub fn new(graph: &Relation) -> TriangleOracle {
        let mut r1: HashMap<Value, BTreeSet<Value>> = HashMap::new();
        let mut base: HashMap<Value, Vec<Value>> = HashMap::new();
        for row in graph.rows() {
            r1.entry(row[0]).or_default().insert(row[1]);
            base.entry(row[0]).or_default().push(row[1]);
        }
        for out in base.values_mut() {
            out.sort_unstable();
            out.dedup();
        }
        TriangleOracle { r1, base }
    }

    /// Applies one update batch to the private `R1`: inserts, then
    /// deletes, as `Service::mutate` does.
    pub fn apply(&mut self, batch: &UpdateBatch) {
        for row in &batch.inserts {
            self.r1.entry(row[0]).or_default().insert(row[1]);
        }
        for row in &batch.deletes {
            if let Some(out) = self.r1.get_mut(&row[0]) {
                out.remove(&row[1]);
            }
        }
    }

    /// Every `(b, c)` with `R1(v,b)`, `R2(b,c)` and `R3(v,c)`, sorted.
    pub fn triangles(&self, v: Value) -> Vec<(Value, Value)> {
        let (Some(r1), Some(r3)) = (self.r1.get(&v), self.base.get(&v)) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for &b in r1 {
            for &c in self.base.get(&b).map(Vec::as_slice).unwrap_or(&[]) {
                if r3.binary_search(&c).is_ok() {
                    out.push((b, c));
                }
            }
        }
        out
    }

    /// The expected answer for binding `v`, fingerprinted over the output
    /// columns `attrs` (`v_attr`, `b_attr` and `c_attr` name the query's
    /// attributes; the bound `v` column, if the output carries it, holds
    /// `v` on every row).
    pub fn expected(&self, v: Value, attrs: &[Attr], ids: [Attr; 3]) -> Expected {
        let [v_attr, b_attr, c_attr] = ids;
        let mut sorted_attrs = attrs.to_vec();
        sorted_attrs.sort();
        let rows = self.triangles(v);
        let hash = rows
            .iter()
            .map(|&(b, c)| {
                row_hash(sorted_attrs.iter().map(|&a| {
                    let value = if a == v_attr {
                        v
                    } else if a == b_attr {
                        b
                    } else {
                        debug_assert_eq!(a, c_attr);
                        c
                    };
                    (a, value)
                }))
            })
            .fold(0u64, u64::wrapping_add);
        Expected { count: rows.len() as u64, hash: Some(hash) }
    }

    /// The private `R1` as a relation (the base for the next stretch of
    /// the update stream).
    pub fn r1_relation(&self) -> Relation {
        let pairs: Vec<(Value, Value)> =
            self.r1.iter().flat_map(|(&u, out)| out.iter().map(move |&w| (u, w))).collect();
        Relation::from_pairs(Attr(0), Attr(1), &pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(pairs: &[(Value, Value)]) -> Relation {
        Relation::from_pairs(Attr(0), Attr(1), pairs)
    }

    #[test]
    fn set_hash_ignores_column_and_row_order() {
        let a = graph(&[(1, 2), (3, 4)]);
        let b = a.permute(&[Attr(1), Attr(0)]).unwrap();
        assert_eq!(set_hash(&a), set_hash(&b));
        assert_ne!(set_hash(&a), set_hash(&graph(&[(2, 1), (3, 4)])));
        assert_ne!(set_hash(&a), set_hash(&graph(&[(1, 2)])));
    }

    #[test]
    fn triangles_on_a_hand_built_graph() {
        // 1→2, 2→3, 1→3 is a triangle through 1; 1→4, 4→3 closes a second
        // one through 1 (c = 3); 2→1 and 3→1 add nothing for v = 1.
        let g = graph(&[(1, 2), (2, 3), (1, 3), (1, 4), (4, 3), (2, 1), (3, 1)]);
        let mut oracle = TriangleOracle::new(&g);
        assert_eq!(oracle.triangles(1), vec![(2, 3), (4, 3)]);
        assert_eq!(oracle.triangles(4), vec![]);
        assert_eq!(oracle.triangles(9), vec![]);

        // Deleting R1(1,4) removes the second triangle; R2's 4→3 stays.
        oracle.apply(&UpdateBatch { inserts: vec![], deletes: vec![vec![1, 4]] });
        assert_eq!(oracle.triangles(1), vec![(2, 3)]);
        // Inserting R1(4,1) closes 4→1, 1→3 (R2), 4→3 (R3).
        oracle.apply(&UpdateBatch { inserts: vec![vec![4, 1]], deletes: vec![] });
        assert_eq!(oracle.triangles(4), vec![(1, 3)]);
        assert_eq!(oracle.r1_relation().len(), 7);
    }

    #[test]
    fn expected_matches_the_hash_of_the_answer_relation() {
        let g = graph(&[(1, 2), (2, 3), (1, 3)]);
        let oracle = TriangleOracle::new(&g);
        let (v, b, c) = (Attr(0), Attr(1), Attr(2));
        let answer = Relation::from_pairs(b, c, &[(2, 3)]);
        let e = oracle.expected(1, &[c, b], [v, b, c]);
        assert_eq!(e, Expected { count: 1, hash: Some(set_hash(&answer)) });
        let line = e.line("k");
        assert_eq!(Expected::parse(&line), Some(("k".to_string(), e)));
    }

    #[test]
    fn limit_pages_cover_every_column_order() {
        let rows = graph(&[(2, 1), (1, 3), (1, 2)]);
        let pages = limit_pages("p", &rows, 2);
        assert_eq!(pages.len(), 2);
        let by_ab = &pages.iter().find(|(k, _)| k == "p/0,1").unwrap().1;
        let want = graph(&[(1, 2), (1, 3)]);
        assert_eq!(by_ab.hash, Some(set_hash(&want)));
        let by_ba = &pages.iter().find(|(k, _)| k == "p/1,0").unwrap().1;
        let want = graph(&[(2, 1), (1, 2)]);
        assert_eq!(by_ba.hash, Some(set_hash(&want)));
    }
}
