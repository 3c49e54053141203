//! The repository benchmark: three workloads driven through the
//! `adj-service` front door, every answer checked, with a traced run that
//! attributes the time to the workspace's layers.
//!
//! ```text
//! adj-perfbench --workload <cold_complex|warm_serve|bound_rw|all>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! (`--oracle <workload> --seed <n>` is the child process that prints the
//! expected answers of an unbound workload.)
//!
//! With `--trace 0` the run measures untraced and reports the end-to-end
//! metrics; with `--trace 1` it measures half the time untraced and half
//! traced and reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The run's full record (config, tail percentiles, sample counts) goes to
//! `perfbench/out/`, and with `--trace 1` the Chrome JSON timeline of one
//! representative call too. See `README.md` for the workloads and metrics.

mod bound_rw;
mod cold;
mod common;
mod layers;
mod measure;
mod oracle;
mod spans;
mod stats;
mod warm;

use measure::{Metric, Phase};
use oracle::Expected;
use std::collections::HashMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["cold_complex", "warm_serve", "bound_rw"];

/// Where run records and timelines are written, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, oracle: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--oracle" => {
                args.workload = value()?;
                args.oracle = true;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    adj_service::json::escape(s)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                adj_service::json::fmt_f64(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The expected answers of an unbound workload, computed by a child
/// process so the oracle's time and memory stay out of this one.
fn expected_answers(workload: &str, seed: u64) -> Result<HashMap<String, Expected>, String> {
    if workload == "bound_rw" {
        return Ok(HashMap::new());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--oracle", workload, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("oracle process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "oracle process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| Expected::parse(l).ok_or_else(|| format!("bad oracle line '{l}'")))
        .collect()
}

fn run_phase(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    expected: &HashMap<String, Expected>,
) -> Phase {
    match workload {
        "cold_complex" => cold::run(seed, seconds, traced, expected),
        "warm_serve" => warm::run(seed, seconds, traced, expected),
        _ => bound_rw::run(seed, seconds, traced),
    }
}

/// Mean seconds to parse and fingerprint one of `texts`.
fn parse_secs(texts: &[String]) -> f64 {
    const ROUNDS: usize = 200;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        for text in texts {
            let (query, _, mode) = adj_query::parse_query_with_mode(std::hint::black_box(text))
                .expect("workload texts parse");
            std::hint::black_box(adj_query::QueryFingerprint::of_mode(&query, mode));
        }
    }
    t.elapsed().as_secs_f64() / (ROUNDS * texts.len().max(1)) as f64
}

fn run_workload(args: &Args) -> Result<(), String> {
    let expected = expected_answers(&args.workload, args.seed)?;
    let (metrics, untraced, traced) = if args.trace {
        let half = args.seconds / 2.0;
        let untraced = run_phase(&args.workload, args.seed, half, false, &expected);
        let traced = run_phase(&args.workload, args.seed, half, true, &expected);
        let p50 = |p: &Phase| stats::median(&p.measured.latencies);
        let overhead = p50(&traced) / p50(&untraced) - 1.0;
        let metrics = traced.layers.metrics(parse_secs(&traced.texts), overhead);
        (metrics, untraced, Some(traced))
    } else {
        let p = run_phase(&args.workload, args.seed, args.seconds, false, &expected);
        let metrics = p.measured.end_to_end(&p.setup_s, common::peak_rss_mb());
        (metrics, p, None)
    };

    let mut attempted = untraced.measured.attempted;
    let mut failed = untraced.measured.failed;
    let mut dropped = 0;
    if let Some(t) = &traced {
        attempted += t.measured.attempted;
        failed += t.measured.failed;
        dropped = t.layers.events_dropped();
    }
    if dropped > 0 {
        eprintln!("the tracer dropped {dropped} events: raise TRACE_CAPACITY");
    }
    let correct = failed == 0 && dropped == 0;

    // Human-readable lines, then the record, then the result line.
    let described = traced.as_ref().unwrap_or(&untraced);
    let tail = untraced.measured.tail();
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for m in &metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  latency tail: p{} over {} samples, {} beyond; setup repetitions {}",
        tail.percentile,
        tail.samples,
        tail.beyond,
        untraced.setup_s.len()
    );
    if tail.beyond < stats::TAIL_BEYOND {
        eprintln!("the latency tail is not resolved: {} samples beyond it", tail.beyond);
    }
    println!(
        "  operations: {attempted} attempted, {failed} failed ({:.4}% failed)",
        100.0 * failed as f64 / attempted.max(1) as f64
    );

    let mut config: Vec<(&str, String)> = vec![
        ("workload", json_string(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", adj_service::json::fmt_f64(args.seconds)),
        ("trace", (args.trace as u8).to_string()),
        ("git_revision", json_string(&common::git_revision())),
        (
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, |n| n.get()).to_string(),
        ),
        ("workers", common::WORKERS.to_string()),
        ("measure_beta", "false".into()),
        ("latency_tail_percentile", adj_service::json::fmt_f64(tail.percentile)),
        ("latency_samples", tail.samples.to_string()),
        ("latency_tail_beyond", tail.beyond.to_string()),
        ("setup_repetitions", untraced.setup_s.len().to_string()),
        ("oracle_binary_join_budget", oracle::BINARY_JOIN_BUDGET.to_string()),
    ];
    config.extend(described.notes.iter().map(|(k, v)| (*k, v.clone())));
    if let Some(t) = &traced {
        config.push(("trace_capacity", common::TRACE_CAPACITY.to_string()));
        config.push(("traced_latency_samples", t.measured.latencies.len().to_string()));
    }
    let config_json = format!(
        "{{{}}}",
        config
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    println!("config {config_json}");

    let stem = format!("{OUT_DIR}/{}-seed{}-trace{}", args.workload, args.seed, args.trace as u8);
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|_| {
            std::fs::write(
                format!("{stem}.json"),
                format!("{{\"config\": {config_json}, \"result\": {result}}}\n"),
            )
        })
        .and_then(|_| match traced.as_ref().and_then(|t| t.representative.as_ref()) {
            Some(trace) => std::fs::write(format!("{stem}.chrome.json"), trace.to_chrome_json()),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("could not write {stem}.*: {e}");
    }
    println!("{result}");
    Ok(())
}

/// `--workload all`: each workload in a process of its own (so each peak
/// RSS is that workload's), then one summary.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut lines = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            return Err(format!("{w} failed ({})", out.status));
        }
        let mut body: Vec<&str> = stdout.lines().collect();
        let last = body.pop().unwrap_or_default().to_string();
        for l in body {
            println!("{l}");
        }
        lines.push(format!("{}: {last}", json_string(w)));
    }
    println!("{{{}}}", lines.join(", "));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("adj-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.oracle {
        oracle::expected_answers(&args.workload, args.seed).map(|lines| {
            for l in lines {
                println!("{l}");
            }
        })
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run_workload(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("adj-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
