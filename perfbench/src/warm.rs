//! `warm_serve`: query texts through `Service::execute_text` on the LJ
//! stand-in, default in-process transport, after a warm-up pass. The mix
//! is Q1 in `Rows` mode, `COUNT` of Q4 and `LIMIT 100` of Q7; two
//! closed-loop clients each send the three texts once per pass, in a
//! seeded order per pass.
//!
//! Every shape has a database of its own (the instantiated relations of
//! one shape carry that shape's attributes), so the plan and index caches
//! hold three small entries families and always hit.

use crate::common::{self, stream, PaperQuery, WARM_LIMIT, WARM_SCALE};
use crate::layers::LayerAcc;
use crate::measure::{ClientRate, Measured, Phase};
use crate::oracle::{limit_key, set_hash, Expected};
use adj_query::paper_query;
use adj_relational::Relation;
use adj_service::{Service, ServiceOutcome, Trace, TransportKind};
use std::collections::HashMap;
use std::time::Instant;

/// Closed-loop client threads.
pub const CLIENTS: usize = 2;

/// `latency_tail_s` is p99: a 30 s run makes about 3600 calls, so p99 leaves
/// some 36 beyond it and p99.9 would leave too few.
const TAIL_TENTHS: usize = 990;

/// One text of the mix: the database it runs on and the query text.
struct Text {
    db: &'static str,
    text: String,
}

fn texts() -> Vec<Text> {
    let q = |p| common::query_text(&paper_query(p));
    vec![
        Text { db: "q1", text: q(PaperQuery::Q1) },
        Text { db: "q4", text: format!("COUNT({})", q(PaperQuery::Q4)) },
        Text { db: "q7", text: format!("LIMIT {WARM_LIMIT} ({})", q(PaperQuery::Q7)) },
    ]
}

fn setup(graph: &Relation, traced: bool, mix: &[Text]) -> Service {
    let service = Service::new(common::service_config(TransportKind::InProcess, traced));
    for (db, p) in [("q1", PaperQuery::Q1), ("q4", PaperQuery::Q4), ("q7", PaperQuery::Q7)] {
        service.register_database(db, paper_query(p).instantiate(graph));
    }
    for t in mix {
        service.execute_text(t.db, &t.text).expect("warm-up query succeeds");
    }
    service
}

/// Whether `o` is the expected answer for text `db`.
fn check(db: &str, o: &ServiceOutcome, expected: &HashMap<String, Expected>) -> bool {
    if db == "q4" {
        return o.output.count() == expected.get(db).map(|e| e.count);
    }
    let rows = o.rows();
    let key = if db == "q7" { limit_key(db, rows.schema().attrs()) } else { db.to_string() };
    let got = Expected { count: rows.len() as u64, hash: Some(set_hash(rows)) };
    expected.get(&key) == Some(&got)
}

/// The order client `id` sends the mix in on pass `pass`: a seeded
/// shuffle. With one fixed order the two clients, whose passes take the
/// same time, would lock into one phase for a whole run, and a text's
/// latency would depend on which text the other client happened to send
/// beside it from the start.
fn pass_order(seed: u64, id: usize, pass: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut x = common::derive(common::derive(seed, stream::MIX + id as u64), pass);
    for i in (1..n).rev() {
        order.swap(i, (x % (i as u64 + 1)) as usize);
        x = common::derive(x, 1);
    }
    order
}

struct Client {
    measured: Measured,
    layers: LayerAcc,
    representative: Option<Trace>,
}

fn client(
    seed: u64,
    id: usize,
    service: &Service,
    mix: &[Text],
    seconds: f64,
    traced: bool,
    expected: &HashMap<String, Expected>,
) -> Client {
    let mut c =
        Client { measured: Measured::default(), layers: LayerAcc::default(), representative: None };
    let m = &mut c.measured;
    let mut rate = ClientRate::default();
    let mut pass_cost = 0.0;
    let start = Instant::now();
    let (mut k, mut pass) = (0, 0);
    let mut order = Vec::new();
    // Whole passes: each client ends on a pass boundary.
    while k % mix.len() != 0 || start.elapsed().as_secs_f64() < seconds {
        if k % mix.len() == 0 {
            order = pass_order(seed, id, pass, mix.len());
            pass += 1;
        }
        let t = &mix[order[k % mix.len()]];
        k += 1;
        let began = Instant::now();
        let result = service.execute_text(t.db, &t.text);
        let wall = began.elapsed().as_secs_f64();
        m.attempted += 1;
        rate.calls += 1;
        rate.bindings += 1;
        rate.busy_s += wall;
        let o = match result {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: {e}", t.db);
                m.failed += 1;
                continue;
            }
        };
        m.latencies.push(wall);
        pass_cost += o.report.total_secs();
        if k % mix.len() == 0 {
            m.pass_costs.push(pass_cost);
            pass_cost = 0.0;
        }
        if !check(t.db, &o, expected) {
            eprintln!("{}: wrong answer", t.db);
            m.failed += 1;
        }
        if traced {
            c.layers.query(wall, &o);
            if t.db == "q1" && c.representative.is_none() {
                c.representative = o.trace.as_deref().cloned();
            }
        }
    }
    m.clients.push(rate);
    c
}

/// Runs set-up and a `seconds`-long stream.
pub fn run(seed: u64, seconds: f64, traced: bool, expected: &HashMap<String, Expected>) -> Phase {
    let graph = common::graph(common::Dataset::LJ, WARM_SCALE, seed);
    let mix = texts();
    let mut phase =
        Phase { texts: mix.iter().map(|t| t.text.clone()).collect(), ..Default::default() };

    let (service, setup_s) = common::repeat_setup(|| setup(&graph, traced, &mix));
    phase.setup_s = setup_s;

    phase.measured.tail_tenths = TAIL_TENTHS;
    let before = service.stats();
    let clients: Vec<Client> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (service, mix) = (&service, &mix);
                s.spawn(move || client(seed, id, service, mix, seconds, traced, expected))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    for c in clients {
        phase.measured.merge(c.measured);
        phase.layers.merge(c.layers);
        if phase.representative.is_none() {
            phase.representative = c.representative;
        }
    }
    if traced {
        phase.layers.caches(&before, &service.stats());
    }

    let cfg = service.config();
    phase.notes = vec![
        ("transport", "\"in_process\"".into()),
        ("scale", WARM_SCALE.to_string()),
        ("dataset", "\"LJ\"".into()),
        ("graph_edges", graph.len().to_string()),
        ("clients", CLIENTS.to_string()),
        ("plan_cache_capacity", cfg.plan_cache_capacity.to_string()),
        ("index_cache_capacity_bytes", service.stats().index.capacity_bytes.to_string()),
        ("result_cache_capacity", cfg.result_cache_capacity.to_string()),
    ];
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_orders_are_seeded_permutations_that_vary() {
        let orders: Vec<Vec<usize>> = (0..32).map(|p| pass_order(7, 0, p, 3)).collect();
        for o in &orders {
            let mut sorted = o.clone();
            sorted.sort();
            assert_eq!(sorted, vec![0, 1, 2]);
        }
        assert!(orders.iter().any(|o| o != &orders[0]));
        assert_eq!(orders[5], pass_order(7, 0, 5, 3));
        assert_ne!((0..8).map(|p| pass_order(7, 1, p, 3)).collect::<Vec<_>>(), orders[..8]);
    }
}
