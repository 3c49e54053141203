//! Cross-method correctness: every join method in the workspace must return
//! exactly the same result set as a reference pairwise-hash-join evaluation,
//! for every evaluated query, on several datasets and cluster widths.

use adj::prelude::*;
use adj_baselines::{run_bigjoin, run_binary_join, run_hcubej, run_hcubej_cached, BaselineConfig};
use adj_cluster::Cluster;

/// Reference evaluation: left-deep pairwise hash joins in atom order.
fn reference(db: &Database, q: &JoinQuery) -> Relation {
    let mut it = q.atoms.iter();
    let mut acc = db.get(&it.next().unwrap().name).unwrap().clone();
    for a in it {
        acc = acc.join(db.get(&a.name).unwrap()).unwrap();
    }
    acc
}

fn check_same(label: &str, expected: &Relation, got: &Relation) {
    assert_eq!(got.len(), expected.len(), "{label}: cardinality mismatch");
    let aligned = got.permute(expected.schema().attrs()).unwrap();
    assert_eq!(&aligned, expected, "{label}: result set mismatch");
}

fn run_all_methods(query: PaperQuery, graph: &Relation, workers: usize) {
    let q = paper_query(query);
    let db = q.instantiate(graph);
    let expected = reference(&db, &q);
    let bcfg = BaselineConfig::default();

    let cluster = Cluster::new(ClusterConfig::with_workers(workers));
    let (r, _) = run_binary_join(&cluster, &db, &q, &bcfg).unwrap();
    check_same("binary", &expected, &r);

    let cluster = Cluster::new(ClusterConfig::with_workers(workers));
    let (r, _) = run_bigjoin(&cluster, &db, &q, &bcfg).unwrap();
    check_same("bigjoin", &expected, &r);

    let cluster = Cluster::new(ClusterConfig::with_workers(workers));
    let (r, _) = run_hcubej(&cluster, &db, &q, &bcfg).unwrap();
    check_same("hcubej", &expected, &r);

    let cluster = Cluster::new(ClusterConfig::with_workers(workers));
    let (r, _) = run_hcubej_cached(&cluster, &db, &q, &bcfg).unwrap();
    check_same("hcubej+cache", &expected, &r);

    let adj = Adj::with_workers(workers);
    let out = adj.execute_with(&q, &db, Strategy::CoOptimize, OutputMode::Rows).unwrap();
    check_same("adj-coopt", &expected, out.rows());
    let out = adj.execute_with(&q, &db, Strategy::CommFirst, OutputMode::Rows).unwrap();
    check_same("adj-commfirst", &expected, out.rows());
}

#[test]
fn all_methods_agree_q1_wb() {
    run_all_methods(PaperQuery::Q1, &Dataset::WB.graph(0.02), 4);
}

#[test]
fn all_methods_agree_q2_as() {
    run_all_methods(PaperQuery::Q2, &Dataset::AS.graph(0.015), 4);
}

#[test]
fn all_methods_agree_q4_lj() {
    run_all_methods(PaperQuery::Q4, &Dataset::LJ.graph(0.01), 4);
}

#[test]
fn all_methods_agree_q5_wt() {
    run_all_methods(PaperQuery::Q5, &Dataset::WT.graph(0.01), 3);
}

#[test]
fn all_methods_agree_q6_as() {
    run_all_methods(PaperQuery::Q6, &Dataset::AS.graph(0.01), 4);
}

#[test]
fn all_methods_agree_on_single_worker() {
    run_all_methods(PaperQuery::Q4, &Dataset::WB.graph(0.01), 1);
}

#[test]
fn all_methods_agree_on_wide_cluster() {
    run_all_methods(PaperQuery::Q1, &Dataset::WB.graph(0.02), 13);
}

#[test]
fn easy_queries_q7_to_q11() {
    // The acyclic/easy patterns must also be correct end to end.
    let graph = Dataset::WB.graph(0.01);
    for pq in [PaperQuery::Q7, PaperQuery::Q8, PaperQuery::Q9, PaperQuery::Q10, PaperQuery::Q11] {
        let q = paper_query(pq);
        let db = q.instantiate(&graph);
        let expected = reference(&db, &q);
        let adj = Adj::with_workers(4);
        let out = adj.execute(&q, &db).unwrap();
        check_same(pq.name(), &expected, out.rows());
    }
}

#[test]
fn running_example_database_matches_paper() {
    // The exact database of Fig. 2, query of Eq. (2). The paper's Fig. 3
    // walks server S0; here we verify the full distributed result against
    // the reference join.
    use adj::query::workload::running_example;
    let q = running_example();
    let mut db = Database::new();
    db.insert(
        "R1",
        Relation::from_rows(
            Schema::from_ids(&[0, 1, 2]),
            &[&[1, 2, 1], &[1, 2, 2], &[2, 1, 1], &[2, 1, 4]],
        )
        .unwrap(),
    );
    db.insert("R2", Relation::from_pairs(Attr(0), Attr(3), &[(1, 1), (1, 2), (1, 3), (4, 1)]));
    db.insert("R3", Relation::from_pairs(Attr(2), Attr(3), &[(1, 1), (1, 2), (2, 1), (2, 2)]));
    db.insert(
        "R4",
        Relation::from_pairs(Attr(1), Attr(4), &[(2, 3), (2, 4), (2, 5), (1, 2), (2, 2), (1, 1)]),
    );
    db.insert(
        "R5",
        Relation::from_pairs(Attr(2), Attr(4), &[(2, 4), (2, 5), (1, 3), (2, 3), (1, 1), (2, 2)]),
    );
    let expected = reference(&db, &q);
    let adj = Adj::with_workers(4);
    let out = adj.execute(&q, &db).unwrap();
    check_same("running example", &expected, out.rows());
    assert!(!out.rows().is_empty(), "the paper's example has results");
}
