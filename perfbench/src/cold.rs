//! `cold_complex`: one-shot Co-Opt queries Q2–Q6 on the LJ and OK
//! stand-ins, `COUNT` mode, serialized transport, every query on empty
//! plan, index and result caches. One closed-loop client.
//!
//! A pass runs the ten (dataset, query) cases in order on a fresh service
//! that holds the ten databases; each case's caches are keyed by its own
//! database, so every query of a pass starts cold. The stream runs whole
//! passes until the run's time is up.

use crate::common::{self, COLD_DATASETS, COLD_QUERIES, COLD_SCALE};
use crate::measure::{ClientRate, Phase};
use crate::oracle::Expected;
use adj_query::{paper_query, JoinQuery};
use adj_relational::{OutputMode, Relation};
use adj_service::{Service, TransportKind};
use std::collections::HashMap;
use std::time::Instant;

/// The case whose timeline is kept as the representative one: the
/// paper's flagship, where Co-Opt's optimizer dominates.
const REPRESENTATIVE: &str = "OK/Q5";

/// `latency_tail_s` is p90: at about 110 queries in a 30 s run it is the
/// highest percentile that leaves at least ten beyond it.
const TAIL_TENTHS: usize = 900;

struct Case {
    key: String,
    query: JoinQuery,
    graph: usize,
}

fn register_all(service: &Service, cases: &[Case], graphs: &[Relation]) {
    for c in cases {
        service.register_database(c.key.clone(), c.query.instantiate(&graphs[c.graph]));
    }
}

/// Runs set-up and a `seconds`-long stream.
pub fn run(seed: u64, seconds: f64, traced: bool, expected: &HashMap<String, Expected>) -> Phase {
    let graphs: Vec<Relation> =
        COLD_DATASETS.iter().map(|&ds| common::graph(ds, COLD_SCALE, seed)).collect();
    let cases: Vec<Case> = COLD_DATASETS
        .iter()
        .enumerate()
        .flat_map(|(g, &ds)| {
            COLD_QUERIES.iter().map(move |&q| Case {
                key: common::cold_key(ds, q),
                query: paper_query(q),
                graph: g,
            })
        })
        .collect();
    let config = common::service_config(TransportKind::Serialized, traced);
    let mut phase = Phase {
        texts: cases.iter().map(|c| format!("COUNT({})", common::query_text(&c.query))).collect(),
        ..Default::default()
    };

    let (first, setup_s) = common::repeat_setup(|| {
        let s = Service::new(config.clone());
        register_all(&s, &cases, &graphs);
        s
    });
    phase.setup_s = setup_s;
    let mut service = Some(first);

    let m = &mut phase.measured;
    m.tail_tenths = TAIL_TENTHS;
    let mut rate = ClientRate::default();
    let start = Instant::now();
    let mut passes = 0;
    let mut index_capacity = 0;
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let service = match service.take() {
            Some(s) => s,
            None => {
                let s = Service::new(config.clone());
                register_all(&s, &cases, &graphs);
                s
            }
        };
        let before = service.stats();
        let mut pass_cost = 0.0;
        for c in &cases {
            let t = Instant::now();
            let result = service.execute_mode(&c.key, &c.query, OutputMode::Count);
            let wall = t.elapsed().as_secs_f64();
            m.attempted += 1;
            rate.calls += 1;
            rate.bindings += 1;
            rate.busy_s += wall;
            let o = match result {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{}: {e}", c.key);
                    m.failed += 1;
                    continue;
                }
            };
            m.latencies.push(wall);
            pass_cost += o.report.total_secs();
            let want = expected.get(&c.key).map(|e| e.count);
            if o.output.count() != want {
                eprintln!("{}: COUNT {:?}, expected {want:?}", c.key, o.output.count());
                m.failed += 1;
            }
            if traced {
                phase.layers.query(wall, &o);
                if c.key == REPRESENTATIVE && phase.representative.is_none() {
                    phase.representative = o.trace.as_deref().cloned();
                }
            }
        }
        let after = service.stats();
        index_capacity = after.index.capacity_bytes;
        if traced {
            phase.layers.caches(&before, &after);
        }
        m.pass_costs.push(pass_cost);
        passes += 1;
    }
    m.clients.push(rate);

    phase.notes = vec![
        ("transport", "\"serialized\"".into()),
        ("scale", COLD_SCALE.to_string()),
        ("datasets", "[\"LJ\",\"OK\"]".into()),
        ("queries", "[\"Q2\",\"Q3\",\"Q4\",\"Q5\",\"Q6\"]".into()),
        ("mode", "\"COUNT\"".into()),
        ("clients", "1".into()),
        ("passes", passes.to_string()),
        ("plan_cache_capacity", config.plan_cache_capacity.to_string()),
        ("result_cache_capacity", config.result_cache_capacity.to_string()),
        ("index_cache_capacity_bytes", index_capacity.to_string()),
        (
            "graph_edges",
            format!(
                "[{}]",
                graphs.iter().map(|g| g.len().to_string()).collect::<Vec<_>>().join(",")
            ),
        ),
    ];
    phase
}
