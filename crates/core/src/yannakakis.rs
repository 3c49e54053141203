//! GHD-Yannakakis evaluation — the EmptyHeaded-style combination the paper's
//! related-work section describes (\[26\], \[27\]): materialize the hypertree
//! bags, then run Yannakakis' algorithm over the (acyclic) join tree of
//! bags: a full semi-join reducer (upward + downward passes) followed by a
//! bottom-up join whose intermediates never exceed `|output| · max|bag|`.
//!
//! For acyclic queries every bag is a single atom and this is the classical
//! Yannakakis algorithm. For cyclic queries it is the "pre-compute
//! everything" extreme of ADJ's trade-off space: maximal pre-computing cost,
//! minimal computation. ADJ's Algorithm 2 interpolates between this and
//! plain HCubeJ.

use adj_query::{GhdTree, JoinQuery};
use adj_relational::{Database, Error, OutputMode, QueryOutput, Relation, Result};

/// Prepared-query semantics for the baseline path: inline literals are
/// honoured by filtering every *touched* relation at the source (selection
/// pushdown before any bag join — equivalent to filter-then-join), and
/// `$name` parameters error (this path has no binding channel). Returns an
/// overlay of only the filtered relations — untouched ones keep being read
/// from the shared database, never copied — empty when the query is
/// unbound.
fn bound_overlay(db: &Database, query: &JoinQuery) -> Result<Vec<(String, Relation)>> {
    if let Some((name, _)) = query.param_attrs().into_iter().next() {
        return Err(Error::UnboundParam { name });
    }
    let bound = query.const_bindings()?;
    let mut overlay: Vec<(String, Relation)> = Vec::new();
    if bound.is_empty() {
        return Ok(overlay);
    }
    for atom in &query.atoms {
        if overlay.iter().any(|(n, _)| n == &atom.name) {
            continue;
        }
        let rel = db.get(&atom.name)?;
        let schema = rel.schema();
        if bound.touches(schema) {
            let rows: Vec<&[adj_relational::Value]> =
                rel.rows().filter(|r| bound.matches(schema, r)).collect();
            overlay.push((atom.name.clone(), Relation::from_rows(schema.clone(), &rows)?));
        }
    }
    Ok(overlay)
}

/// Cost/diagnostic report of a Yannakakis run.
#[derive(Debug, Clone, Default)]
pub struct YannakakisReport {
    /// Tuples materialized while joining bags (the pre-computing cost).
    pub bag_tuples: u64,
    /// Total tuples removed by the two semi-join reducer passes.
    pub reduced_tuples: u64,
}

/// Evaluates `query` over `db` by GHD-Yannakakis, shaping the result by
/// `mode`. `max_intermediate` bounds every materialized relation (bags and
/// join intermediates).
///
/// Unlike [`execute_plan`](crate::execute_plan), Yannakakis' bottom-up join
/// must materialize its tree intermediates regardless of mode — the mode
/// only shapes what the *caller* receives (`Count`/`Exists` callers get no
/// relation back; `Limit(n)` gets a truncated sample). It exists so the
/// two evaluation paths expose one streaming contract.
pub fn yannakakis(
    db: &Database,
    query: &JoinQuery,
    max_intermediate: usize,
    mode: OutputMode,
) -> Result<(QueryOutput, YannakakisReport)> {
    let tree = GhdTree::decompose(&query.hypergraph(), 3);
    let mut report = YannakakisReport::default();

    // Bound terms: filter the sources up front.
    let overlay = bound_overlay(db, query)?;
    let resolve = |name: &str| -> Result<&Relation> {
        match overlay.iter().find(|(n, _)| n == name) {
            Some((_, rel)) => Ok(rel),
            None => db.get(name),
        }
    };

    // Assign every atom to one covering node (edge-coverage guarantees one
    // exists); a bag's relation joins its λ atoms plus its assigned atoms.
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); tree.len()];
    for (ai, atom) in query.atoms.iter().enumerate() {
        let m = atom.schema.mask();
        let v = tree
            .nodes
            .iter()
            .position(|n| m & !n.vertices == 0)
            .ok_or(Error::BudgetExceeded { what: "GHD does not cover an atom", limit: 0 })?;
        assigned[v].push(ai);
    }

    let mut bags: Vec<Relation> = Vec::with_capacity(tree.len());
    for (v, node) in tree.nodes.iter().enumerate() {
        let mut atom_ids = node.edge_indices();
        for &a in &assigned[v] {
            if !atom_ids.contains(&a) {
                atom_ids.push(a);
            }
        }
        let mut it = atom_ids.iter();
        let first = *it.next().expect("bags have at least one edge");
        let mut acc = resolve(&query.atoms[first].name)?.clone();
        for &ai in it {
            acc = acc.join_budgeted(resolve(&query.atoms[ai].name)?, max_intermediate)?;
        }
        report.bag_tuples += acc.len() as u64;
        bags.push(acc);
    }

    // Children lists + a bottom-up order (nodes are emitted parent-first by
    // the decomposer, so reverse index order is a valid bottom-up order).
    let n = tree.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in tree.nodes.iter().enumerate() {
        if let Some(p) = node.parent {
            children[p].push(i);
        }
    }

    // Full reducer. Upward: parent ⋉ child, leaves first.
    for v in (0..n).rev() {
        for &c in &children[v] {
            let before = bags[v].len();
            bags[v] = bags[v].semijoin(&bags[c]);
            report.reduced_tuples += (before - bags[v].len()) as u64;
        }
    }
    // Downward: child ⋉ parent, root first.
    for v in 0..n {
        for &c in &children[v] {
            let before = bags[c].len();
            bags[c] = bags[c].semijoin(&bags[v]);
            report.reduced_tuples += (before - bags[c].len()) as u64;
        }
    }

    // Bottom-up join along the tree.
    for v in (0..n).rev() {
        let cs = children[v].clone();
        for c in cs {
            let placeholder = Relation::empty(bags[c].schema().clone());
            let child = std::mem::replace(&mut bags[c], placeholder);
            bags[v] = bags[v].join_budgeted(&child, max_intermediate)?;
        }
    }
    Ok((QueryOutput::from_relation(bags.swap_remove(0), mode)?, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_query::{paper_query, PaperQuery};
    use adj_relational::{Attr, Value};

    fn db_for(q: &JoinQuery, n: u32, m: u32) -> Database {
        let edges: Vec<(Value, Value)> = (0..n)
            .flat_map(|i| vec![(i % m, (i * 7 + 1) % m), ((i * 3) % m, (i * 11 + 5) % m)])
            .collect();
        q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &edges))
    }

    fn reference(db: &Database, q: &JoinQuery) -> Relation {
        let mut it = q.atoms.iter();
        let mut acc = db.get(&it.next().unwrap().name).unwrap().clone();
        for a in it {
            acc = acc.join(db.get(&a.name).unwrap()).unwrap();
        }
        acc
    }

    #[test]
    fn acyclic_queries_match_reference() {
        for pq in [PaperQuery::Q7, PaperQuery::Q9, PaperQuery::Q11] {
            let q = paper_query(pq);
            let db = db_for(&q, 150, 31);
            let expected = reference(&db, &q);
            let (got, _) = yannakakis(&db, &q, usize::MAX, OutputMode::Rows).unwrap();
            let got = got.rows();
            assert_eq!(got.len(), expected.len(), "{pq:?}");
            assert_eq!(got.permute(expected.schema().attrs()).unwrap(), expected);
        }
    }

    #[test]
    fn cyclic_queries_via_bags_match_reference() {
        for pq in [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q5] {
            let q = paper_query(pq);
            let db = db_for(&q, 100, 23);
            let expected = reference(&db, &q);
            let (got, report) = yannakakis(&db, &q, usize::MAX, OutputMode::Rows).unwrap();
            assert_eq!(got.rows().len(), expected.len(), "{pq:?}");
            assert!(report.bag_tuples > 0);
        }
    }

    #[test]
    fn modes_agree_with_rows_output() {
        let q = paper_query(PaperQuery::Q4);
        let db = db_for(&q, 120, 23);
        let (rows, _) = yannakakis(&db, &q, usize::MAX, OutputMode::Rows).unwrap();
        let full = rows.rows();
        let (count, _) = yannakakis(&db, &q, usize::MAX, OutputMode::Count).unwrap();
        assert_eq!(count, QueryOutput::Count(full.len() as u64));
        let (exists, _) = yannakakis(&db, &q, usize::MAX, OutputMode::Exists).unwrap();
        assert_eq!(exists, QueryOutput::Exists(!full.is_empty()));
        let (limited, _) = yannakakis(&db, &q, usize::MAX, OutputMode::Limit(3)).unwrap();
        assert_eq!(limited.rows().len(), 3.min(full.len()));
    }

    #[test]
    fn reducer_removes_dangling_tuples() {
        // Path query a-b-c where most R1 tuples dangle.
        let q = paper_query(PaperQuery::Q7);
        let mut db = Database::new();
        db.insert("R1", Relation::from_pairs(Attr(0), Attr(1), &[(1, 2), (3, 9), (4, 9), (5, 9)]));
        db.insert("R2", Relation::from_pairs(Attr(1), Attr(2), &[(2, 7)]));
        let (got, report) = yannakakis(&db, &q, usize::MAX, OutputMode::Rows).unwrap();
        assert_eq!(got.rows().len(), 1);
        assert!(report.reduced_tuples >= 3, "dangling tuples must be reduced");
    }

    #[test]
    fn budget_trips_on_bag_blowup() {
        let q = paper_query(PaperQuery::Q5);
        let db = db_for(&q, 400, 13);
        let err = yannakakis(&db, &q, 10, OutputMode::Rows).unwrap_err();
        assert!(matches!(err, Error::BudgetExceeded { .. }));
    }

    #[test]
    fn empty_input_empty_output() {
        let q = paper_query(PaperQuery::Q1);
        let mut db = Database::new();
        db.insert("R1", Relation::from_pairs(Attr(0), Attr(1), &[(1, 2)]));
        db.insert("R2", Relation::from_pairs(Attr(1), Attr(2), &[(9, 9)]));
        db.insert("R3", Relation::from_pairs(Attr(0), Attr(2), &[(1, 3)]));
        let (got, _) = yannakakis(&db, &q, usize::MAX, OutputMode::Rows).unwrap();
        assert!(got.rows().is_empty());
        let (none, _) = yannakakis(&db, &q, usize::MAX, OutputMode::Exists).unwrap();
        assert_eq!(none, QueryOutput::Exists(false));
    }
}
