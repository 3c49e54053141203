//! Prepared-query acceptance tests.
//!
//! Ground truth is the **filter-then-full-join oracle**: a query bound at
//! attribute `a = v` must return byte-for-byte the rows of the *unbound*
//! join whose `a` column equals `v` — for every paper shape, both
//! plan-search strategies, and all four output modes. On top of
//! correctness, the serving contract: one prepared plan serves 50 distinct
//! bindings with >90% plan-cache *and* index-cache hit rates, and bound
//! executions never pollute the shared cache entries.

use adj::prelude::*;

const STRATEGIES: [Strategy; 2] = [Strategy::CoOptimize, Strategy::CommFirst];

/// `(shape, bound-at-$v query text)`: the same shape with the `a` vertex
/// turned into a parameter.
const BOUND_SHAPES: [(PaperQuery, &str); 3] = [
    (PaperQuery::Q1, "Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)"),
    (PaperQuery::Q4, "Q(b,c,d,e) :- R1($v,b), R2(b,c), R3(c,d), R4(d,e), R5(e,$v), R6(b,e)"),
    (PaperQuery::Q7, "Q(b,c) :- R1($v,b), R2(b,c)"),
];

/// A deterministic test graph with plenty of matches for every shape.
fn graph() -> Relation {
    let edges: Vec<(Value, Value)> = (0..240u32)
        .flat_map(|i| vec![(i % 31, (i * 7 + 1) % 31), ((i * 3) % 31, (i * 11 + 5) % 31)])
        .collect();
    Relation::from_pairs(Attr(0), Attr(1), &edges)
}

/// The oracle: the unbound result filtered to rows whose `a` column is `v`,
/// renormalized as a relation over the unbound result's schema.
fn filter_oracle(full: &Relation, v: Value) -> Relation {
    let a_col = full.schema().position(Attr(0)).expect("a in result");
    let rows: Vec<Vec<Value>> = full.rows().filter(|r| r[a_col] == v).map(|r| r.to_vec()).collect();
    let refs: Vec<&[Value]> = rows.iter().map(|r| r.as_slice()).collect();
    Relation::from_rows(full.schema().clone(), &refs).unwrap()
}

#[test]
fn bound_results_match_the_filter_then_join_oracle() {
    let g = graph();
    let adj = Adj::with_workers(4);
    for (shape, text) in BOUND_SHAPES {
        let unbound = paper_query(shape);
        let db = unbound.instantiate(&g);
        let (bound_q, _) = parse_query(text).unwrap();
        for strategy in STRATEGIES {
            let full = adj.execute_with(&unbound, &db, strategy, OutputMode::Rows).unwrap();
            let full = full.rows();
            let prepared = adj.prepare(&bound_q, &db, strategy).unwrap();
            // A well-matched vertex, a sparse one, and an absent one.
            for v in [1u32, 17, 30, 999] {
                let oracle = filter_oracle(full, v);
                let b = Bindings::new().set("v", v);

                // Rows: byte-identical after schema alignment.
                let rows = adj.execute_bound(&prepared, &db, &b, OutputMode::Rows).unwrap();
                let aligned = rows.rows().permute(oracle.schema().attrs()).unwrap();
                assert_eq!(aligned, oracle, "{shape:?}/{strategy:?}/v={v}: rows");
                assert!(rows.report.bound_values > 0);

                // Count / Exists: counters only, same answers.
                let count = adj.execute_bound(&prepared, &db, &b, OutputMode::Count).unwrap();
                assert_eq!(
                    count.output,
                    QueryOutput::Count(oracle.len() as u64),
                    "{shape:?}/{strategy:?}/v={v}: count"
                );
                assert_eq!(count.output.tuples_returned(), 0);
                let exists = adj.execute_bound(&prepared, &db, &b, OutputMode::Exists).unwrap();
                assert_eq!(
                    exists.output,
                    QueryOutput::Exists(!oracle.is_empty()),
                    "{shape:?}/{strategy:?}/v={v}: exists"
                );

                // Limit(n): the canonical n smallest rows of the bound
                // result, under the bound plan's attribute order.
                let n = 3usize;
                let limited = adj.execute_bound(&prepared, &db, &b, OutputMode::Limit(n)).unwrap();
                let expect = oracle.permute(limited.rows().schema().attrs()).unwrap();
                let keep = n.min(expect.len());
                let canonical = Relation::from_flat(
                    expect.schema().clone(),
                    expect.flat()[..keep * expect.schema().arity()].to_vec(),
                )
                .unwrap();
                assert_eq!(
                    limited.rows(),
                    &canonical,
                    "{shape:?}/{strategy:?}/v={v}: limit rows are the canonical sample"
                );
            }
        }
    }
}

#[test]
fn inline_literals_equal_bound_params() {
    // `R1(7,b), …` must be exactly `R1($v,b), …` bound at v=7 — same
    // results, same plan-cache entry (the fingerprint ignores values and
    // treats literal and parameter positions alike).
    let g = graph();
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() },
        ..Default::default()
    });
    service.register_database("g", paper_query(PaperQuery::Q1).instantiate(&g));

    let (param_q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let prepared = service.prepare("g", &param_q).unwrap();
    let via_param =
        service.execute_bound(&prepared, &Bindings::new().set("v", 7), OutputMode::Rows).unwrap();
    let via_literal = service.execute_text("g", "Q(b,c) :- R1(7,b), R2(b,c), R3(7,c)").unwrap();
    assert!(via_literal.cache_hit, "the literal text must hit the prepared plan");
    assert_eq!(via_literal.fingerprint.plan_key, via_param.fingerprint.plan_key);
    assert_eq!(via_literal.rows(), via_param.rows());
}

#[test]
fn fifty_distinct_bindings_reuse_one_plan_and_index_family() {
    let g = graph();
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() },
        ..Default::default()
    });
    let unbound = paper_query(PaperQuery::Q1);
    let db = unbound.instantiate(&g);
    service.register_database("g", db.clone());
    let full = Adj::with_workers(4).execute(&unbound, &db).unwrap();
    let full = full.rows();

    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let prepared = service.prepare("g", &q).unwrap();

    let modes = [OutputMode::Rows, OutputMode::Count, OutputMode::Limit(2), OutputMode::Exists];
    for v in 0..50u32 {
        let b = Bindings::new().set("v", v);
        let mode = modes[v as usize % modes.len()];
        let out = service.execute_bound(&prepared, &b, mode).unwrap();
        assert!(out.cache_hit, "binding {v} must reuse the prepared plan");
        let oracle = filter_oracle(full, v);
        match mode {
            OutputMode::Rows => {
                let aligned = out.rows().permute(oracle.schema().attrs()).unwrap();
                assert_eq!(aligned, oracle, "binding {v}");
            }
            OutputMode::Count => {
                assert_eq!(out.output, QueryOutput::Count(oracle.len() as u64), "binding {v}");
            }
            OutputMode::Exists => {
                assert_eq!(out.output, QueryOutput::Exists(!oracle.is_empty()), "binding {v}");
            }
            OutputMode::Limit(n) => {
                assert_eq!(out.rows().len(), n.min(oracle.len()), "binding {v}");
            }
        }
    }

    let stats = service.stats();
    assert!(
        stats.cache.hit_rate() > 0.9,
        "plan cache hit rate {:.3} must stay above 0.9 across distinct bindings",
        stats.cache.hit_rate()
    );
    assert!(
        stats.index.hit_rate() > 0.9,
        "index cache hit rate {:.3} must stay above 0.9 — binding-independent \
         relations are one warm entry family",
        stats.index.hit_rate()
    );
    assert_eq!(stats.metrics.queries_prepared, 1);
    assert_eq!(stats.metrics.queries_ok, 50);
    assert!(stats.metrics.params_bound >= 50);
    let selectivity = stats.metrics.bound_selectivity.expect("bound shuffles ran");
    assert!(selectivity > 0.0 && selectivity < 0.5);
}

#[test]
fn bound_executions_never_pollute_shared_cache_entries() {
    // Interleave bound and unbound executions of the same shape family on
    // one service: the unbound query must keep returning the full result
    // (never a bound relation's filtered fragments), and the two shapes
    // must key separately everywhere.
    let g = graph();
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(4), ..Default::default() },
        ..Default::default()
    });
    let unbound = paper_query(PaperQuery::Q1);
    let db = unbound.instantiate(&g);
    service.register_database("g", db.clone());

    let baseline = service.execute("g", &unbound).unwrap();
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let prepared = service.prepare("g", &q).unwrap();
    assert_ne!(
        prepared.fingerprint().plan_key,
        baseline.fingerprint.plan_key,
        "bound and free shapes must not share a plan entry"
    );

    for v in [1u32, 5, 9] {
        service.execute_bound(&prepared, &Bindings::new().set("v", v), OutputMode::Rows).unwrap();
        let again = service.execute("g", &unbound).unwrap();
        assert_eq!(
            again.rows(),
            baseline.rows(),
            "unbound result drifted after binding v={v} — cache aliasing"
        );
        assert!(again.cache_hit);
    }
}

#[test]
fn unbound_param_never_borrows_a_sibling_literals_values() {
    // Regression: the shape family `R1(7,b)…` / `R1($v,b)…` shares one
    // cached plan. An unbound `$v` submission arriving *after* the literal
    // member planted the plan must still fail with UnboundParam — never
    // silently answer with the literal owner's 7.
    let g = graph();
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() },
        ..Default::default()
    });
    service.register_database("g", paper_query(PaperQuery::Q1).instantiate(&g));
    service.execute_text("g", "COUNT(R1(7,b), R2(b,c), R3(7,c))").unwrap();

    let (param_q, _) = parse_query("R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let err = service.execute("g", &param_q).unwrap_err();
    assert!(
        matches!(err, ServiceError::Exec(adj::relational::Error::UnboundParam { .. })),
        "expected UnboundParam, got {err:?}"
    );
}

#[test]
fn yannakakis_honours_literals_and_rejects_free_params() {
    use adj::core::{yannakakis, Adj};
    let g = graph();
    let q1 = paper_query(PaperQuery::Q1);
    let db = q1.instantiate(&g);

    let (lit_q, _) = parse_query("R1(7,b), R2(b,c), R3(7,c)").unwrap();
    let (out, _) = yannakakis(&db, &lit_q, usize::MAX, OutputMode::Rows).unwrap();
    let via_adj = Adj::with_workers(2).execute(&lit_q, &db).unwrap();
    let aligned = out.rows().permute(via_adj.rows().schema().attrs()).unwrap();
    assert_eq!(&aligned, via_adj.rows(), "yannakakis must apply the literal selection");

    let (param_q, _) = parse_query("R1($v,b), R2(b,c), R3($v,c)").unwrap();
    let err = yannakakis(&db, &param_q, usize::MAX, OutputMode::Rows).unwrap_err();
    assert!(matches!(err, adj::relational::Error::UnboundParam { .. }));
}

#[test]
fn baselines_reject_bound_queries_instead_of_joining_free() {
    use adj::baselines::{run_bigjoin, run_binary_join, run_hcubej, BaselineConfig};
    let g = graph();
    let db = paper_query(PaperQuery::Q1).instantiate(&g);
    let cluster = Cluster::new(ClusterConfig::with_workers(2));
    let cfg = BaselineConfig::default();
    let (lit_q, _) = parse_query("R1(7,b), R2(b,c), R3(7,c)").unwrap();
    let (param_q, _) = parse_query("R1($v,b), R2(b,c), R3($v,c)").unwrap();
    for q in [&lit_q, &param_q] {
        assert!(run_hcubej(&cluster, &db, q, &cfg).is_err(), "{q}");
        assert!(run_bigjoin(&cluster, &db, q, &cfg).is_err(), "{q}");
        assert!(run_binary_join(&cluster, &db, q, &cfg).is_err(), "{q}");
    }
}

#[test]
fn rebinding_works_across_database_reregistration() {
    // A prepared statement holds no pinned plan: re-registering the
    // database re-plans transparently and answers against the new data.
    let service = Service::new(ServiceConfig {
        adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() },
        ..Default::default()
    });
    let q7 = paper_query(PaperQuery::Q7);
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c)").unwrap();

    let g1 = Relation::from_pairs(Attr(0), Attr(1), &[(1, 2), (2, 3)]);
    service.register_database("g", q7.instantiate(&g1));
    let prepared = service.prepare("g", &q).unwrap();
    let b = Bindings::new().set("v", 1);
    let first = service.execute_bound(&prepared, &b, OutputMode::Count).unwrap();
    assert_eq!(first.output, QueryOutput::Count(1)); // 1→2→3

    let g2 = Relation::from_pairs(Attr(0), Attr(1), &[(1, 2), (2, 3), (1, 4), (4, 5), (2, 6)]);
    service.register_database("g", q7.instantiate(&g2));
    let second = service.execute_bound(&prepared, &b, OutputMode::Count).unwrap();
    assert!(!second.cache_hit, "new epoch must re-plan");
    assert_eq!(second.output, QueryOutput::Count(3)); // 1→2→{3,6}, 1→4→5
}

/// Seeds of the range-vs-scan selection sweep: a few in debug builds (the
/// tier-1 `cargo test`), a wider sweep under `cargo test --release`.
const SELECTION_SEEDS: u64 = if cfg!(debug_assertions) { 4 } else { 128 };

/// A seeded database of three relations over attributes `0..4`, each of
/// arity 2 or 3 with its own stored column order, on a small value domain
/// so bound values hit runs of several rows.
fn selection_db(rng: &mut impl rand::Rng) -> (Database, Vec<String>) {
    let mut db = Database::new();
    let mut names = Vec::new();
    for r in 0..3 {
        let mut attrs = vec![Attr(0), Attr(1), Attr(2), Attr(3)];
        for i in (1..attrs.len()).rev() {
            attrs.swap(i, rng.gen_range(0..i + 1));
        }
        attrs.truncate(rng.gen_range(2..4usize));
        let rows = if rng.gen_bool(0.1) { 0 } else { rng.gen_range(1..80usize) };
        let data: Vec<Value> = (0..rows * attrs.len()).map(|_| rng.gen_range(0..7u32)).collect();
        let name = format!("S{r}");
        db.insert(&name, Relation::from_flat(Schema::new(attrs).unwrap(), data).unwrap());
        names.push(name);
    }
    (db, names)
}

/// Bindings for one or two attributes, each at a value absent from the
/// data, the attribute's minimum or maximum, or an arbitrary present value —
/// cycling with `seed`, so any four consecutive seeds bind all four kinds.
fn selection_bindings(
    rng: &mut impl rand::Rng,
    seed: u64,
    db: &Database,
    names: &[String],
) -> BoundValues {
    let mut pairs = Vec::new();
    for i in 0..rng.gen_range(1..3u64) {
        let attr = Attr(rng.gen_range(0..4u32));
        let mut present: Vec<Value> = Vec::new();
        for name in names {
            if let Ok(values) = db.get(name).unwrap().column_values(attr) {
                present.extend(values);
            }
        }
        present.sort_unstable();
        let value = match ((seed + i) % 4, present.is_empty()) {
            (0, _) | (_, true) => 1000,
            (1, false) => present[0],
            (2, false) => present[present.len() - 1],
            _ => present[rng.gen_range(0..present.len())],
        };
        pairs.push((attr, value));
    }
    // A repeated attribute keeps its first value.
    pairs.sort_by_key(|&(a, _)| a);
    pairs.dedup_by_key(|&mut (a, _)| a);
    BoundValues::new(pairs).unwrap()
}

/// Rows of `rel` satisfying every binding on its attributes.
fn brute_force_filter(rel: &Relation, bound: &BoundValues) -> Relation {
    let filters: Vec<(usize, Value)> = bound.filters_for(rel.schema());
    let rows: Vec<&[Value]> =
        rel.rows().filter(|row| filters.iter().all(|&(c, v)| row[c] == v)).collect();
    Relation::from_rows(rel.schema().clone(), &rows).unwrap()
}

#[test]
fn range_and_scan_selection_match_a_brute_force_filter() {
    use adj::hcube::{hcube_shuffle, hcube_shuffle_cached, HCubeImpl, HCubePlan, HotValues};
    use adj::relational::Trie;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    let (mut ranged_total, mut scanned_total) = (0u64, 0u64);
    for seed in 0..SELECTION_SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let (db, names) = selection_db(&mut rng);
        let bound = selection_bindings(&mut rng, seed, &db, &names);
        let mut order = vec![Attr(0), Attr(1), Attr(2), Attr(3)];
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        let share: Vec<u32> = (0..4).map(|_| rng.gen_range(1..4u32)).collect();

        // What each atom's selection must be: binary search iff its bound
        // columns are exactly a prefix of the stored column order.
        let (mut range_atoms, mut scan_atoms, mut sizes, mut kept) = (0u64, 0u64, 0u64, 0u64);
        for name in &names {
            let rel = db.get(name).unwrap();
            let mut cols: Vec<usize> =
                bound.filters_for(rel.schema()).iter().map(|f| f.0).collect();
            if cols.is_empty() {
                continue;
            }
            cols.sort_unstable();
            if cols.iter().enumerate().all(|(i, &c)| c == i) {
                range_atoms += 1;
            } else {
                scan_atoms += 1;
            }
            sizes += rel.len() as u64;
            kept += brute_force_filter(rel, &bound).len() as u64;
        }
        ranged_total += range_atoms;
        scanned_total += scan_atoms;

        for workers in 1..=5 {
            let plan = HCubePlan::new(share.clone(), workers);
            for transport in [TransportKind::InProcess, TransportKind::Serialized] {
                let cluster = Cluster::new(ClusterConfig {
                    transport,
                    ..ClusterConfig::with_workers(workers)
                });
                for impl_ in HCubeImpl::ALL {
                    let ctx = format!("seed {seed}, {workers} workers, {transport:?}, {impl_:?}");
                    // The unbound shuffle routes every row by plain hashing;
                    // a bound row lands on the same workers, so each bound
                    // fragment is the unbound fragment, filtered.
                    let unbound = hcube_shuffle(&cluster, &db, &names, &plan, &order, impl_)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    let out = hcube_shuffle_cached(
                        &cluster,
                        &db,
                        &names,
                        &plan,
                        &order,
                        impl_,
                        None,
                        &[],
                        &[],
                        &HotValues::none(),
                        &bound,
                    )
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_eq!(out.report.bound_range_atoms, range_atoms, "{ctx}: range atoms");
                    assert_eq!(out.report.bound_scan_atoms, scan_atoms, "{ctx}: scan atoms");
                    assert_eq!(out.report.bound_scanned_tuples, sizes, "{ctx}: sizes");
                    assert_eq!(out.report.bound_kept_tuples, kept, "{ctx}: kept");
                    for (ai, name) in names.iter().enumerate() {
                        let induced = out.locals[0][ai].trie.schema().clone();
                        let whole = brute_force_filter(db.get(name).unwrap(), &bound)
                            .permute(induced.attrs())
                            .unwrap();
                        let mut union = Relation::empty(induced.clone());
                        for w in 0..workers {
                            let fragment = unbound.locals[w][ai].trie.to_relation();
                            let expect = brute_force_filter(&fragment, &bound);
                            let got = &out.locals[w][ai].trie;
                            assert_eq!(**got, Trie::build(&expect), "{ctx}: {name} trie @ {w}");
                            assert_eq!(got.to_relation(), expect, "{ctx}: {name} rows @ {w}");
                            union = union.union(&expect).unwrap();
                        }
                        assert_eq!(union, whole, "{ctx}: {name} rows across workers");
                    }
                }
            }
        }
    }
    assert!(ranged_total > 0 && scanned_total > 0, "the sweep must exercise both selections");
}
