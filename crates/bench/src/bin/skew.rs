//! Skew-hardening driver: runs the paper shapes on a Zipf(z = 1.2)
//! heavy-hitter graph under naive hashing and under heavy-hitter routing,
//! and emits `BENCH_skew.json`.
//!
//! Per query the file records, for both strategies:
//!
//! * the **partition fill** — max and mean delivered tuple copies per
//!   worker, and their ratio (1.0 = perfectly balanced; naive hashing of a
//!   heavy hitter drives this toward the worker count);
//! * end-to-end latency (best of `ADJ_REPS` runs, cold caches);
//! * whether the distributed result is **byte-identical** to the
//!   single-worker oracle (it must be — the acceptance gate);
//! * the fractional (BKS share-LP) lower bound on any share vector's
//!   fullest-partition load, as the balance yardstick.
//!
//! Environment: `ADJ_WORKERS` (default 4), `ADJ_ZIPF_NODES` (default 2000),
//! `ADJ_ZIPF_EDGES` (default 12000), `ADJ_ZIPF_Z` (default 1.2),
//! `ADJ_REPS` (default 3), `ADJ_BENCH_OUT` (default `BENCH_skew.json`).

use adj_bench::{adj_config, print_table, workers};
use adj_core::{fractional_max_cube_bound, Adj, AdjConfig, SkewConfig, Strategy};
use adj_datagen::{column_top_share, generate_zipf, ZipfConfig};
use adj_hcube::ShareInput;
use adj_query::{paper_query, PaperQuery};
use adj_relational::{OutputMode, Relation};
use adj_service::json::{array, JsonObject};
use std::time::Instant;

const SHAPES: [PaperQuery; 3] = [PaperQuery::Q1, PaperQuery::Q4, PaperQuery::Q7];

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

#[derive(Debug, Clone, Copy)]
struct Side {
    max_fill: u64,
    mean_fill: f64,
    balance: f64,
    hot_values: u64,
    hot_routed: u64,
    secs: f64,
}

/// Runs `shape` on a fresh Adj (cold caches) and reports fill + latency.
fn run_side(
    config: &AdjConfig,
    shape: PaperQuery,
    graph: &Relation,
    reps: usize,
) -> (Side, Relation) {
    let q = paper_query(shape);
    let db = q.instantiate(graph);
    let mut best: Option<(Side, Relation)> = None;
    for _ in 0..reps.max(1) {
        let adj = Adj::new(config.clone());
        let t0 = Instant::now();
        let out = adj.execute(&q, &db).expect("bench query");
        let secs = t0.elapsed().as_secs_f64();
        let side = Side {
            max_fill: out.report.max_partition_tuples(),
            mean_fill: out.report.mean_partition_tuples(),
            balance: out.report.partition_balance(),
            hot_values: out.report.hot_values,
            hot_routed: out.report.hot_routed_tuples,
            secs,
        };
        let rows = out.output.into_rows().expect("rows mode");
        if best.as_ref().is_none_or(|(b, _)| side.secs < b.secs) {
            best = Some((side, rows));
        }
    }
    best.expect("at least one rep")
}

fn main() {
    let w = workers().max(1);
    // Degenerate env values clamp instead of tripping generator asserts.
    let nodes = env_usize("ADJ_ZIPF_NODES", 2000).max(2);
    let edges = env_usize("ADJ_ZIPF_EDGES", 12_000).max(1);
    let z = env_f64("ADJ_ZIPF_Z", 1.2).clamp(0.0, 8.0);
    let reps = env_usize("ADJ_REPS", 3).max(1);
    let out_path = std::env::var("ADJ_BENCH_OUT").unwrap_or_else(|_| "BENCH_skew.json".to_string());

    let graph = generate_zipf(&ZipfConfig { nodes, edges, exponent: z, seed: 0x21BF });
    let top_share = column_top_share(&graph, 0);

    // Naive hashing: skew detection off — the pre-hardening behaviour.
    let naive_cfg = AdjConfig { skew: SkewConfig::disabled(), ..adj_config(w) };
    // Balanced: detection tuned to the Zipf head's post-dedup share.
    let balanced_cfg = AdjConfig {
        skew: SkewConfig { min_fraction: 0.05, ..Default::default() },
        ..adj_config(w)
    };
    let oracle_cfg = AdjConfig { skew: SkewConfig::disabled(), ..adj_config(1) };

    let mut rows_out: Vec<Vec<String>> = Vec::new();
    let mut per_query_json: Vec<String> = Vec::new();
    let mut worst_balanced_ratio = 0.0f64;

    for shape in SHAPES {
        let q = paper_query(shape);
        let db = q.instantiate(&graph);
        let oracle = Adj::new(oracle_cfg.clone())
            .execute_with(&q, &db, Strategy::CoOptimize, OutputMode::Rows)
            .expect("oracle run");
        let oracle_rows = oracle.rows();

        let (naive, naive_rows) = run_side(&naive_cfg, shape, &graph, reps);
        let (balanced, balanced_rows) = run_side(&balanced_cfg, shape, &graph, reps);
        let identical = |r: &Relation| {
            r.permute(oracle_rows.schema().attrs()).map(|x| &x == oracle_rows).unwrap_or(false)
        };
        let naive_ok = identical(&naive_rows);
        let balanced_ok = identical(&balanced_rows);
        assert!(naive_ok && balanced_ok, "{shape:?}: results must match the oracle");
        worst_balanced_ratio = worst_balanced_ratio.max(balanced.balance);

        // The fractional balance yardstick for the final-shuffle relations.
        let input = ShareInput {
            num_attrs: q.num_attrs(),
            relations: q
                .atoms
                .iter()
                .map(|a| (a.schema.mask(), db.get(&a.name).unwrap().len()))
                .collect(),
            num_workers: w,
            memory_limit_bytes: None,
            bytes_per_value: 4,
            hot: Vec::new(),
            require_exact_product: true,
            bound_mask: 0,
        };
        let lp_bound = fractional_max_cube_bound(&input).unwrap_or(0.0);

        rows_out.push(vec![
            format!("{shape:?}"),
            format!("{} / {:.0} = {:.2}x", naive.max_fill, naive.mean_fill, naive.balance),
            format!("{} / {:.0} = {:.2}x", balanced.max_fill, balanced.mean_fill, balanced.balance),
            format!("{:.1}", lp_bound),
            format!("{:.4}s vs {:.4}s", naive.secs, balanced.secs),
            format!("{}", balanced.hot_values),
        ]);
        let side_json = |s: &Side, ok: bool, hot: bool| {
            let mut o = JsonObject::new();
            o.u64("max_partition_tuples", s.max_fill)
                .f64("mean_partition_tuples", s.mean_fill)
                .f64("balance", s.balance)
                .f64("secs", s.secs)
                .bool("identical_to_oracle", ok);
            if hot {
                o.u64("hot_values", s.hot_values).u64("hot_routed_tuples", s.hot_routed);
            }
            o.render()
        };
        let mut q_json = JsonObject::new();
        q_json
            .str("query", &format!("{shape:?}"))
            .usize("output_tuples", oracle_rows.len())
            .raw("naive", side_json(&naive, naive_ok, false))
            .raw("balanced", side_json(&balanced, balanced_ok, true))
            .f64("fractional_max_cube_bound", lp_bound);
        per_query_json.push(q_json.render());
    }

    print_table(
        &format!(
            "skew hardening on Zipf(z={z}) — {nodes} nodes, {} edges, top source share {:.1}%",
            graph.len(),
            top_share * 100.0
        ),
        &[
            "query".to_string(),
            "naive max/mean fill".to_string(),
            "balanced max/mean fill".to_string(),
            "LP bound".to_string(),
            "latency naive vs balanced".to_string(),
            "hot values".to_string(),
        ],
        &rows_out,
    );
    println!(
        "\nworst balanced max/mean ratio: {worst_balanced_ratio:.2}x (acceptance gate: <= 2.0x)"
    );
    assert!(worst_balanced_ratio <= 2.0, "balanced shuffle exceeded the 2x fullest-partition gate");

    // The shared adj-service JSON writer — same fields the hand-rolled
    // emitter produced, one serializer for every bench artifact.
    let mut zipf = JsonObject::new();
    zipf.usize("nodes", nodes)
        .usize("edges_drawn", edges)
        .usize("edges_distinct", graph.len())
        .f64("exponent", z)
        .f64("top_source_share", top_share);
    let mut json = JsonObject::new();
    json.str("bench", "skew")
        .usize("workers", w)
        .object("zipf", &zipf)
        .usize("reps", reps)
        .f64("worst_balanced_max_over_mean", worst_balanced_ratio)
        .f64("acceptance_max_over_mean", 2.0)
        .raw("queries", array(per_query_json));
    std::fs::write(&out_path, json.render() + "\n").expect("write bench output");
    println!("wrote {out_path}");
}
