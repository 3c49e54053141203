//! Settings and inputs shared by the workloads.

use adj_cluster::ClusterConfig;
use adj_core::AdjConfig;
pub use adj_datagen::Dataset;
use adj_datagen::{generate, GraphConfig};
use adj_query::JoinQuery;
pub use adj_query::PaperQuery;
use adj_relational::Relation;
use adj_service::{ServiceConfig, TraceSettings, TransportKind};
use std::time::Instant;

/// Simulated cluster width, as the experiment harness's `adj_config(4)`:
/// HCube shares stay non-trivial.
pub const WORKERS: usize = 4;

/// `cold_complex`: datasets, scale, and the paper's complex queries.
pub const COLD_DATASETS: [Dataset; 2] = [Dataset::LJ, Dataset::OK];
/// Scale of the `cold_complex` stand-ins (about 20.7k and 69.9k edges).
pub const COLD_SCALE: f64 = 0.3;
/// The Co-Opt queries of Tables II–IV (Q3 is the one that pre-computes).
pub const COLD_QUERIES: [PaperQuery; 5] =
    [PaperQuery::Q2, PaperQuery::Q3, PaperQuery::Q4, PaperQuery::Q5, PaperQuery::Q6];

/// `warm_serve`: scale of the LJ stand-in.
pub const WARM_SCALE: f64 = 0.3;
/// `warm_serve`: the page size of the `LIMIT` query.
pub const WARM_LIMIT: usize = 100;

/// `bound_rw`: scale of the LJ stand-in (about 69k edges, 7.7k nodes).
pub const BOUND_SCALE: f64 = 1.0;

/// A run repeats its set-up at least this many times, and on until
/// [`SETUP_SECONDS`] have passed, at most [`SETUP_MAX_REPEATS`] times;
/// `setup_s` is the median. Cheap set-ups thus run often enough that the
/// median reflects a settled process rather than first-touch page faults.
pub const SETUP_MIN_REPEATS: usize = 5;
/// See [`SETUP_MIN_REPEATS`].
pub const SETUP_SECONDS: f64 = 1.0;
/// See [`SETUP_MIN_REPEATS`].
pub const SETUP_MAX_REPEATS: usize = 2000;

/// Runs `setup` as [`SETUP_MIN_REPEATS`] describes. Returns the last
/// result and the wall time of every repetition.
///
/// Each repetition's result is dropped only after the next one is built.
/// Dropping it first would free tens of MiB at the top of the heap, which
/// the allocator hands back to the kernel and then faults back in, page by
/// page, on the next build; whether that happens depends on the heap's
/// layout, so `setup_s` would flip between two modes from process to
/// process.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.len() < SETUP_MAX_REPEATS && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        let t = Instant::now();
        let next = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(next);
    }
    (last.expect("at least one set-up ran"), times)
}

/// Ring capacity, in events, of each traced call's timeline: large enough
/// that a 128-binding batch over 4 workers drops nothing.
pub const TRACE_CAPACITY: usize = 1 << 14;

/// The service configuration of a workload: the defaults (cache
/// capacities included) over [`adj_config`], on `transport`, traced or not.
pub fn service_config(transport: TransportKind, traced: bool) -> ServiceConfig {
    ServiceConfig {
        adj: adj_config(),
        transport,
        trace: TraceSettings {
            enabled: traced,
            buffer_capacity: TRACE_CAPACITY,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The ADJ configuration every workload runs: the harness's
/// `adj_config(4)` with the sampling-time β calibration pinned off, so a
/// plan is a function of the data and not of the machine's load at the
/// moment it was sampled.
pub fn adj_config() -> AdjConfig {
    let mut config = AdjConfig {
        cluster: ClusterConfig::with_workers(WORKERS),
        max_intermediate_tuples: 20_000_000,
        ..Default::default()
    };
    config.cost.measure_beta = false;
    config
}

/// Independent seed for stream `stream` of the workload seed `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed streams (arguments of [`derive`]).
pub mod stream {
    /// Graph of a dataset: `GRAPH + dataset index`.
    pub const GRAPH: u64 = 0x100;
    /// `bound_rw` binding chunks: `BINDINGS + chunk index`.
    pub const BINDINGS: u64 = 0x1_0000;
    /// `bound_rw` update-stream chunks: `UPDATES + chunk index`.
    pub const UPDATES: u64 = 0x2_0000;
    /// `warm_serve` pass orders: `MIX + client index`.
    pub const MIX: u64 = 0x3_0000;
}

/// The graph generator's seed for `ds` under workload seed `seed`.
pub fn graph_seed(ds: Dataset, seed: u64) -> u64 {
    derive(seed, stream::GRAPH + ds as u64)
}

/// The stand-in graph of `ds` at `scale`, seeded from the workload seed
/// (the dataset's own size, degree and skew; `Dataset::graph` would bake
/// in a fixed seed).
pub fn graph(ds: Dataset, scale: f64, seed: u64) -> Relation {
    generate(&GraphConfig { seed: graph_seed(ds, seed), ..ds.config(scale) })
}

/// Key of a `cold_complex` case.
pub fn cold_key(ds: Dataset, q: PaperQuery) -> String {
    format!("{}/{}", ds.name(), q.name())
}

/// The query as text (`R1(a,b), R2(b,c), …`), attribute `i` spelled as the
/// `i`-th letter; parsing it gives back the same query.
pub fn query_text(query: &JoinQuery) -> String {
    let atoms: Vec<String> = query
        .atoms
        .iter()
        .map(|atom| {
            let vars: Vec<String> = atom
                .schema
                .attrs()
                .iter()
                .map(|a| char::from(b'a' + a.0 as u8).to_string())
                .collect();
            format!("{}({})", atom.name, vars.join(","))
        })
        .collect();
    atoms.join(", ")
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..40.min(l.len())].to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_query::{paper_query, parse_query, QueryFingerprint};

    #[test]
    fn query_text_parses_back_to_the_same_shape() {
        for q in COLD_QUERIES.into_iter().chain([PaperQuery::Q1, PaperQuery::Q7]) {
            let query = paper_query(q);
            let (parsed, _) = parse_query(&query_text(&query)).unwrap();
            assert_eq!(QueryFingerprint::of(&parsed), QueryFingerprint::of(&query), "{q:?}");
        }
    }

    #[test]
    fn seeds_differ_per_dataset_and_repeat() {
        assert_eq!(graph_seed(Dataset::LJ, 7), graph_seed(Dataset::LJ, 7));
        assert_ne!(graph_seed(Dataset::LJ, 7), graph_seed(Dataset::OK, 7));
        assert_ne!(graph_seed(Dataset::LJ, 7), graph_seed(Dataset::LJ, 8));
    }
}
