//! `bound_rw`: one closed-loop client on the LJ stand-in at scale 1.0
//! running a periodic mix of three front-door calls:
//!
//! * single-binding `execute_bound` reads of
//!   `Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)`;
//! * `execute_batch` calls over Zipf bindings from `binding_workload`;
//! * `Service::mutate` batches on `R1` from `update_stream`, with mild
//!   insert skew so that warm index entries are patched, not dropped.
//!
//! A cycle is [`READS`] reads, a batch, [`READS`] reads, a batch, and a
//! mutation; the stream runs whole cycles. Every write re-keys the plans
//! that read `R1`, so the next read re-plans, and the overlay compacts
//! every few cycles under [`DELTA`]. The benchmark keeps its own copy of
//! `R1`, applies each mutation to it, and checks every answer by brute
//! force ([`TriangleOracle`]).

use crate::common::{self, stream, Dataset, PaperQuery, BOUND_SCALE};
use crate::measure::{ClientRate, Phase};
use crate::oracle::{Expected, TriangleOracle};
use adj_datagen::{
    binding_workload, update_stream, BindingWorkloadConfig, UpdateBatch, UpdateStreamConfig,
};
use adj_query::{paper_query, parse_query, Bindings, JoinQuery};
use adj_relational::{Attr, OutputMode, QueryOutput, Relation, Value};
use adj_service::{DeltaConfig, MutationBatch, PreparedQuery, Service, TransportKind};
use std::collections::HashSet;
use std::time::Instant;

/// The prepared statement every read and batch binds.
pub const TEXT: &str = "Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)";
/// Reads between two batches.
pub const READS: usize = 16;
/// Bindings per batch.
pub const BATCH: usize = 128;
/// Zipf exponent of the bindings over `R1`'s frequency-ranked vertices.
pub const BINDING_ZIPF: f64 = 0.5;
/// Rows inserted and deleted per mutation batch. Equal, so `R1` keeps its
/// size, and small, so that a run churns under a tenth of it: a faster
/// program, which gets through more cycles, must not meet a different
/// relation late in the run.
pub const INSERTS: usize = 16;
/// See [`INSERTS`].
pub const DELETES: usize = 16;
/// Zipf exponent of inserted edge endpoints: mild, so skew drift does not
/// invalidate the warm index entries the mutation patches.
pub const UPDATE_ZIPF: f64 = 0.5;
/// Overlay compaction once inserts + tombstones pass 2% of the base.
pub const DELTA: DeltaConfig = DeltaConfig { max_overlay_fraction: 0.02, min_overlay_tuples: 256 };

/// `latency_tail_s` is p99 of the reads: the reads that follow a write
/// (one in 32) re-plan, and p99 falls among them. A 30 s run makes over
/// 10k reads, so p99.9 would leave ten-odd beyond it, but those are the
/// host's scheduling stalls rather than anything the program does.
const TAIL_TENTHS: usize = 990;

/// Bindings and update batches drawn per generator call.
const BINDING_CHUNK: usize = 4096;
const UPDATE_CHUNK: usize = 32;

/// Seeded binding values, drawn chunk by chunk as the stream needs them.
struct BindingSource<'g> {
    graph: &'g Relation,
    seed: u64,
    chunk: u64,
    pending: Vec<Value>,
}

impl BindingSource<'_> {
    fn next(&mut self) -> Value {
        if self.pending.is_empty() {
            let cfg = BindingWorkloadConfig {
                count: BINDING_CHUNK,
                column: 0,
                exponent: BINDING_ZIPF,
                seed: common::derive(self.seed, stream::BINDINGS + self.chunk),
            };
            self.chunk += 1;
            self.pending = binding_workload(self.graph, &cfg);
            self.pending.reverse();
        }
        self.pending.pop().expect("a fresh chunk is non-empty")
    }
}

/// Seeded update batches against the oracle's current `R1`, generated
/// chunk by chunk so the deletes always target live rows.
struct UpdateSource {
    seed: u64,
    nodes: usize,
    chunk: u64,
    pending: Vec<UpdateBatch>,
}

impl UpdateSource {
    fn next(&mut self, oracle: &TriangleOracle) -> UpdateBatch {
        if self.pending.is_empty() {
            let cfg = UpdateStreamConfig {
                batches: UPDATE_CHUNK,
                inserts_per_batch: INSERTS,
                deletes_per_batch: DELETES,
                nodes: self.nodes,
                exponent: UPDATE_ZIPF,
                seed: common::derive(self.seed, stream::UPDATES + self.chunk),
            };
            self.chunk += 1;
            self.pending = update_stream(&oracle.r1_relation(), &cfg);
            self.pending.reverse();
        }
        self.pending.pop().expect("a fresh chunk is non-empty")
    }
}

/// The statement's attributes `[v, b, c]`.
fn attrs(query: &JoinQuery, names: &[String]) -> [Attr; 3] {
    let v = query.param_attrs().first().expect("the statement has a parameter").1;
    let var = |n: &str| Attr(names.iter().position(|x| x == n).expect("named variable") as u32);
    [v, var("b"), var("c")]
}

fn binding(v: Value) -> Bindings {
    Bindings::new().set("v", v)
}

fn check(oracle: &TriangleOracle, v: Value, out: &QueryOutput, ids: [Attr; 3]) -> bool {
    let rows = out.rows();
    let got = Expected { count: rows.len() as u64, hash: Some(crate::oracle::set_hash(rows)) };
    oracle.expected(v, rows.schema().attrs(), ids) == got
}

fn setup(graph: &Relation, traced: bool, warm: &[Value]) -> (Service, PreparedQuery) {
    let mut config = common::service_config(TransportKind::InProcess, traced);
    config.delta = DELTA;
    let service = Service::new(config);
    service.register_database("lj", paper_query(PaperQuery::Q1).instantiate(graph));
    let (query, _) = parse_query(TEXT).expect("the statement parses");
    let prepared = service.prepare("lj", &query).expect("prepare succeeds");
    service.execute_bound(&prepared, &binding(warm[0]), OutputMode::Rows).expect("warm-up read");
    let batch: Vec<Bindings> = warm.iter().map(|&v| binding(v)).collect();
    service.execute_batch(&prepared, &batch, OutputMode::Rows).expect("warm-up batch");
    (service, prepared)
}

/// Runs set-up and a `seconds`-long stream.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Phase {
    let graph = common::graph(Dataset::LJ, BOUND_SCALE, seed);
    let mut oracle = TriangleOracle::new(&graph);
    let (query, names) = parse_query(TEXT).expect("the statement parses");
    let ids = attrs(&query, &names);
    let mut bindings = BindingSource { graph: &graph, seed, chunk: 0, pending: Vec::new() };
    let warm: Vec<Value> = (0..BATCH).map(|_| bindings.next()).collect();
    let mut updates = UpdateSource {
        seed,
        nodes: Dataset::LJ.config(BOUND_SCALE).nodes,
        chunk: 0,
        pending: Vec::new(),
    };
    let mut phase = Phase { texts: vec![TEXT.to_string()], ..Default::default() };

    let ((service, prepared), setup_s) = common::repeat_setup(|| setup(&graph, traced, &warm));
    phase.setup_s = setup_s;

    let before = service.stats();
    let m = &mut phase.measured;
    m.tail_tenths = TAIL_TENTHS;
    let mut rate = ClientRate::default();
    let mut distinct: HashSet<Value> = HashSet::new();
    let (mut cycles, mut compactions, mut mutations) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while cycles == 0 || start.elapsed().as_secs_f64() < seconds {
        let mut cycle_cost = 0.0;
        for _ in 0..2 {
            for i in 0..READS {
                let v = bindings.next();
                distinct.insert(v);
                let t = Instant::now();
                let result = service.execute_bound(&prepared, &binding(v), OutputMode::Rows);
                let wall = t.elapsed().as_secs_f64();
                m.attempted += 1;
                rate.calls += 1;
                rate.bindings += 1;
                rate.busy_s += wall;
                match result {
                    Ok(o) => {
                        m.latencies.push(wall);
                        cycle_cost += o.report.total_secs();
                        if !check(&oracle, v, &o.output, ids) {
                            eprintln!("read v={v}: wrong answer");
                            m.failed += 1;
                        }
                        if traced {
                            phase.layers.query(wall, &o);
                            if i == 1 && phase.representative.is_none() {
                                phase.representative = o.trace.as_deref().cloned();
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("read v={v}: {e}");
                        m.failed += 1;
                    }
                }
            }

            let values: Vec<Value> = (0..BATCH).map(|_| bindings.next()).collect();
            distinct.extend(values.iter().copied());
            let batch: Vec<Bindings> = values.iter().map(|&v| binding(v)).collect();
            let t = Instant::now();
            let result = service.execute_batch(&prepared, &batch, OutputMode::Rows);
            let wall = t.elapsed().as_secs_f64();
            m.attempted += 1;
            rate.calls += 1;
            rate.bindings += BATCH as u64;
            rate.busy_s += wall;
            match result {
                Ok(o) => {
                    cycle_cost += o.report.total_secs();
                    let wrong = values.iter().zip(&o.results).any(|(&v, r)| match r {
                        Ok(out) => !check(&oracle, v, out, ids),
                        Err(_) => true,
                    });
                    if wrong {
                        eprintln!("batch: wrong or failed answer");
                        m.failed += 1;
                    }
                    if traced {
                        phase.layers.batch(wall, &o);
                    }
                }
                Err(e) => {
                    eprintln!("batch: {e}");
                    m.failed += 1;
                }
            }
        }

        let update = updates.next(&oracle);
        let batch = MutationBatch {
            relation: "R1".to_string(),
            inserts: update.inserts.clone(),
            deletes: update.deletes.clone(),
        };
        let t = Instant::now();
        let result = service.mutate("lj", &batch);
        let wall = t.elapsed().as_secs_f64();
        m.attempted += 1;
        rate.calls += 1;
        rate.busy_s += wall;
        oracle.apply(&update);
        mutations += 1;
        match result {
            Ok(o) => {
                compactions += o.compacted as u64;
                if (o.inserted, o.deleted) != (update.inserts.len(), update.deletes.len()) {
                    eprintln!("mutate: {} inserted, {} deleted", o.inserted, o.deleted);
                    m.failed += 1;
                }
                if traced {
                    phase.layers.mutation(wall, &o);
                }
            }
            Err(e) => {
                eprintln!("mutate: {e}");
                m.failed += 1;
            }
        }
        m.pass_costs.push(cycle_cost);
        cycles += 1;
    }
    m.clients.push(rate);
    let after = service.stats();
    if traced {
        phase.layers.caches(&before, &after);
    }

    phase.notes = vec![
        ("transport", "\"in_process\"".into()),
        ("scale", BOUND_SCALE.to_string()),
        ("dataset", "\"LJ\"".into()),
        ("graph_edges", graph.len().to_string()),
        ("statement", crate::json_string(TEXT)),
        ("clients", "1".into()),
        ("cycle", format!("\"{READS} reads, batch, {READS} reads, batch, mutate\"")),
        ("batch_bindings", BATCH.to_string()),
        ("binding_zipf", BINDING_ZIPF.to_string()),
        ("update_inserts", INSERTS.to_string()),
        ("update_deletes", DELETES.to_string()),
        ("update_zipf", UPDATE_ZIPF.to_string()),
        ("delta_max_overlay_fraction", DELTA.max_overlay_fraction.to_string()),
        ("delta_min_overlay_tuples", DELTA.min_overlay_tuples.to_string()),
        ("cycles", cycles.to_string()),
        ("mutations", mutations.to_string()),
        ("compactions", compactions.to_string()),
        ("distinct_bindings", distinct.len().to_string()),
        ("result_cache_capacity", service.config().result_cache_capacity.to_string()),
        ("plan_cache_capacity", service.config().plan_cache_capacity.to_string()),
        ("index_cache_capacity_bytes", after.index.capacity_bytes.to_string()),
    ];
    phase
}
