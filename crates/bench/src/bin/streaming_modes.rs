//! Output-mode latency comparison: the same high-output pattern query
//! executed under `Rows`, `Count`, `Limit(k)`, and `Exists` from one
//! prepared plan, emitting `BENCH_streaming.json`. This is the artifact
//! behind the streaming-API acceptance criterion: `Count` must beat `Rows`
//! end to end (it enumerates the same bindings but never buffers, gathers,
//! or normalizes a result relation), and `Limit`/`Exists` must beat both
//! (their enumeration short-circuits).
//!
//! Environment:
//! * `ADJ_SCALE`   — dataset scale (default 0.05, as the other binaries);
//! * `ADJ_WORKERS` — simulated cluster width (default 4);
//! * `ADJ_ITERS`   — timed iterations per mode (default 7; median reported);
//! * `ADJ_LIMIT`   — the k of `Limit(k)` (default 100);
//! * `ADJ_BENCH_OUT` — output path (default `BENCH_streaming.json`).

use adj_bench::{adj_config, print_table, scale, workers};
use adj_core::{Adj, BoundValues, ExecRequest, OutputMode, Strategy};
use adj_datagen::Dataset;
use adj_query::{paper_query, PaperQuery};
use adj_service::json::{array, JsonObject};
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    let iters = env_usize("ADJ_ITERS", 7).max(1);
    let limit_k = env_usize("ADJ_LIMIT", 100);
    let out_path =
        std::env::var("ADJ_BENCH_OUT").unwrap_or_else(|_| "BENCH_streaming.json".to_string());
    let w = workers();

    // Q7 (length-2 path) is the workload's output monster: |output| grows
    // with Σ deg²(v), exactly where full materialization hurts most.
    let query = paper_query(PaperQuery::Q7);
    let graph = Dataset::WB.graph(scale());
    let db = query.instantiate(&graph);
    let adj = Adj::new(adj_config(w));
    let plan = adj.plan(&query, &db, Strategy::CoOptimize).expect("planning");

    let modes = [
        ("rows", OutputMode::Rows),
        ("count", OutputMode::Count),
        ("limit", OutputMode::Limit(limit_k)),
        ("exists", OutputMode::Exists),
    ];

    let mut medians = Vec::new();
    let mut rows = Vec::new();
    let mut output_tuples = 0u64;
    let mut returned_by_mode = Vec::new();
    for (label, mode) in modes {
        // One warmup, then the timed iterations; report the median so one
        // scheduler hiccup can't flip the comparison.
        let _ = adj
            .execute_prepared(&plan, &db, &BoundValues::none(), &ExecRequest::new(mode))
            .expect("warmup");
        let mut secs: Vec<f64> = (0..iters)
            .map(|_| {
                let t0 = Instant::now();
                let (out, _) = adj
                    .execute_prepared(&plan, &db, &BoundValues::none(), &ExecRequest::new(mode))
                    .expect("bench run");
                let dt = t0.elapsed().as_secs_f64();
                if mode == OutputMode::Rows {
                    output_tuples = out.rows().len() as u64;
                }
                dt
            })
            .collect();
        secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = secs[secs.len() / 2];
        medians.push((label, mode, median));
        let (out, _) = adj
            .execute_prepared(&plan, &db, &BoundValues::none(), &ExecRequest::new(mode))
            .expect("stats run");
        returned_by_mode.push(out.tuples_returned());
        rows.push(vec![
            label.to_string(),
            format!("{median:.6}"),
            format!("{:.6}", secs[0]),
            format!("{}", out.tuples_returned()),
        ]);
    }

    print_table(
        &format!("streaming modes, Q7 on WB (scale {}, {} workers, median of {iters})", scale(), w),
        &["mode".into(), "median s".into(), "min s".into(), "tuples returned".into()],
        &rows,
    );

    let rows_secs = medians.iter().find(|(l, ..)| *l == "rows").unwrap().2;
    let count_secs = medians.iter().find(|(l, ..)| *l == "count").unwrap().2;
    println!(
        "\ncount/rows latency ratio: {:.3} ({} output tuples never gathered)",
        count_secs / rows_secs,
        output_tuples
    );
    assert!(
        count_secs < rows_secs,
        "acceptance: Count ({count_secs:.6}s) must beat Rows ({rows_secs:.6}s)"
    );

    // The shared adj-service JSON writer — same fields the hand-rolled
    // emitter produced, one serializer for every bench artifact.
    let mode_json = medians.iter().zip(&returned_by_mode).map(|((label, _, median), returned)| {
        let mut o = JsonObject::new();
        o.str("mode", label).f64("median_secs", *median).u64("tuples_returned", *returned);
        o.render()
    });
    let mut json = JsonObject::new();
    json.str("bench", "streaming_modes")
        .str("query", "Q7")
        .str("dataset", "WB")
        .f64("scale", scale())
        .usize("workers", w)
        .usize("iterations", iters)
        .usize("limit_k", limit_k)
        .u64("output_tuples", output_tuples)
        .f64("count_over_rows_ratio", count_secs / rows_secs)
        .raw("modes", array(mode_json));
    std::fs::write(&out_path, json.render() + "\n").expect("write bench output");
    println!("wrote {out_path}");
}
