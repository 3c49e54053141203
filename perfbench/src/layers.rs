//! Per-layer metrics of a traced stream.
//!
//! Everything here is read from outside the program: the fields of the
//! outcomes the front door returns, `Service::stats()`, and the spans the
//! program records when tracing is on. Times and counts are means per
//! traced call (query, read or batch); `batch.*` are per batch, `delta.*`
//! per mutation, and rates are ratios of summed counters.

use crate::measure::Metric;
use crate::spans::SpanLayers;
use crate::stats::median;
use adj_core::ExecutionReport;
use adj_service::{BatchOutcome, MutationOutcome, ServiceOutcome, ServiceStats, Trace};

/// Hits and lookups of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct HitCount {
    hits: u64,
    lookups: u64,
}

impl HitCount {
    fn add(&mut self, hits_before: u64, misses_before: u64, hits_after: u64, misses_after: u64) {
        let hits = hits_after.saturating_sub(hits_before);
        self.hits += hits;
        self.lookups += hits + misses_after.saturating_sub(misses_before);
    }

    fn rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Sums over a traced stream, turned into per-layer metrics at the end.
#[derive(Debug, Clone, Default)]
pub struct LayerAcc {
    calls: u64,
    wall_s: f64,
    spans: SpanLayers,
    front_door_self_s: f64,
    queue_s: f64,
    precompute_tuples: u64,
    comm_tuples: u64,
    wire_bytes: u64,
    trie_build_s: f64,
    intersect_ops: u64,
    seeks: u64,
    balance_sum: f64,
    balance_n: u64,
    skew_sum: f64,
    skew_n: u64,
    events_dropped: u64,
    batches: u64,
    batch_submissions: u64,
    batch_unique: u64,
    batch_walls: Vec<f64>,
    mutations: u64,
    patched: u64,
    dropped: u64,
    compactions: u64,
    overlay_tuples: u64,
    mutate_walls: Vec<f64>,
    plan_cache: HitCount,
    index_cache: HitCount,
    result_cache: HitCount,
    index_resident_bytes: usize,
}

impl LayerAcc {
    fn call(&mut self, wall: f64, queue_secs: f64, report: &ExecutionReport) {
        self.calls += 1;
        self.wall_s += wall;
        self.queue_s += queue_secs;
        self.precompute_tuples += report.precompute_tuples;
        self.comm_tuples += report.comm_tuples;
        self.wire_bytes += report.wire_bytes;
        self.trie_build_s += report.index_build_secs;
        self.intersect_ops += report.counters.intersect_ops;
        self.seeks += report.counters.stats.total_seeks();
        let balance = report.partition_balance();
        if balance > 0.0 {
            self.balance_sum += balance;
            self.balance_n += 1;
        }
    }

    fn trace(&mut self, total_secs: f64, trace: Option<&Trace>) {
        let Some(trace) = trace else { return };
        self.events_dropped += trace.events_dropped;
        let l = SpanLayers::of(trace);
        self.front_door_self_s += (total_secs - l.coordinator_covered).max(0.0);
        if l.join_mean > 0.0 {
            self.skew_sum += l.join_max / l.join_mean;
            self.skew_n += 1;
        }
        self.spans.add(&l);
    }

    /// Records one query or single-binding read taking `wall` seconds.
    pub fn query(&mut self, wall: f64, o: &ServiceOutcome) {
        self.call(wall, o.queue_secs, &o.report);
        self.trace(o.total_secs, o.trace.as_deref());
    }

    /// Records one binding batch taking `wall` seconds.
    pub fn batch(&mut self, wall: f64, o: &BatchOutcome) {
        self.call(wall, o.queue_secs, &o.report);
        self.trace(o.total_secs, o.trace.as_deref());
        self.batches += 1;
        self.batch_submissions += o.results.len() as u64;
        self.batch_unique += o.unique_executed as u64;
        self.batch_walls.push(wall);
    }

    /// Records one mutation batch taking `wall` seconds.
    pub fn mutation(&mut self, wall: f64, o: &MutationOutcome) {
        self.mutations += 1;
        self.patched += o.entries_patched as u64;
        self.dropped += o.entries_dropped as u64;
        self.compactions += o.compacted as u64;
        self.overlay_tuples += o.overlay_tuples as u64;
        self.mutate_walls.push(wall);
    }

    /// Records the cache traffic of one service between two snapshots.
    pub fn caches(&mut self, before: &ServiceStats, after: &ServiceStats) {
        let (b, a) = (&before.cache, &after.cache);
        self.plan_cache.add(b.hits, b.misses, a.hits, a.misses);
        let (b, a) = (&before.index, &after.index);
        self.index_cache.add(b.hits, b.misses, a.hits, a.misses);
        let (b, a) = (&before.results, &after.results);
        self.result_cache.add(b.hits, b.misses, a.hits, a.misses);
        self.index_resident_bytes = self.index_resident_bytes.max(after.index.resident_bytes);
    }

    /// Folds another client's sums into this one.
    pub fn merge(&mut self, o: LayerAcc) {
        self.calls += o.calls;
        self.wall_s += o.wall_s;
        self.spans.add(&o.spans);
        self.front_door_self_s += o.front_door_self_s;
        self.queue_s += o.queue_s;
        self.precompute_tuples += o.precompute_tuples;
        self.comm_tuples += o.comm_tuples;
        self.wire_bytes += o.wire_bytes;
        self.trie_build_s += o.trie_build_s;
        self.intersect_ops += o.intersect_ops;
        self.seeks += o.seeks;
        self.balance_sum += o.balance_sum;
        self.balance_n += o.balance_n;
        self.skew_sum += o.skew_sum;
        self.skew_n += o.skew_n;
        self.events_dropped += o.events_dropped;
        self.batches += o.batches;
        self.batch_submissions += o.batch_submissions;
        self.batch_unique += o.batch_unique;
        self.batch_walls.extend(o.batch_walls);
        self.mutations += o.mutations;
        self.patched += o.patched;
        self.dropped += o.dropped;
        self.compactions += o.compactions;
        self.overlay_tuples += o.overlay_tuples;
        self.mutate_walls.extend(o.mutate_walls);
        self.plan_cache.hits += o.plan_cache.hits;
        self.plan_cache.lookups += o.plan_cache.lookups;
        self.index_cache.hits += o.index_cache.hits;
        self.index_cache.lookups += o.index_cache.lookups;
        self.result_cache.hits += o.result_cache.hits;
        self.result_cache.lookups += o.result_cache.lookups;
        self.index_resident_bytes = self.index_resident_bytes.max(o.index_resident_bytes);
    }

    /// Events the tracer dropped across the stream.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// The per-layer metrics, in `BENCHMARK.json` order. `parse_s` is the
    /// measured parse + fingerprint time per workload text and
    /// `overhead_frac` the traced stream's median latency against the
    /// untraced one's, minus one.
    pub fn metrics(&self, parse_s: f64, overhead_frac: f64) -> Vec<Metric> {
        let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
        let call = |x: f64| per(x, self.calls);
        let s = &self.spans;
        vec![
            Metric::new("core.optimize_s", call(s.optimize), "s"),
            Metric::new(
                "core.optimize_share",
                if self.wall_s > 0.0 { s.optimize / self.wall_s } else { 0.0 },
                "frac",
            ),
            Metric::new("core.precompute_s", call(s.precompute), "s"),
            Metric::new("core.precompute_tuples", call(self.precompute_tuples as f64), "count"),
            Metric::new("hcube.shuffle_s", call(s.shuffle), "s"),
            Metric::new("hcube.route_s", call(s.route), "s"),
            Metric::new("hcube.comm_tuples", call(self.comm_tuples as f64), "count"),
            Metric::new("hcube.partition_balance", per(self.balance_sum, self.balance_n), "ratio"),
            Metric::new("hcube.index_hit_rate", self.index_cache.rate(), "frac"),
            Metric::new("hcube.index_resident_bytes", self.index_resident_bytes as f64, "bytes"),
            Metric::new("cluster.build_s", call(s.build_max), "s"),
            Metric::new("cluster.wire_bytes", call(self.wire_bytes as f64), "bytes"),
            Metric::new("cluster.dispatch_s", call(s.dispatch), "s"),
            Metric::new("relational.trie_build_s", call(self.trie_build_s), "s"),
            Metric::new("leapfrog.join_s", call(s.join_max), "s"),
            Metric::new("leapfrog.join_skew", per(self.skew_sum, self.skew_n), "ratio"),
            Metric::new("leapfrog.intersect_ops", call(self.intersect_ops as f64), "count"),
            Metric::new("leapfrog.seeks", call(self.seeks as f64), "count"),
            Metric::new("service.plan_lookup_s", call(s.plan_lookup), "s"),
            Metric::new("service.plan_cache_hit_rate", self.plan_cache.rate(), "frac"),
            Metric::new("service.front_door_self_s", call(self.front_door_self_s), "s"),
            Metric::new("service.admission_wait_s", call(self.queue_s), "s"),
            Metric::new("service.gather_s", call(s.gather), "s"),
            Metric::new("service.result_cache_hit_rate", self.result_cache.rate(), "frac"),
            Metric::new("query.parse_s", parse_s, "s"),
            Metric::new("batch.join_s", per(s.batch_join_max, self.batches), "s"),
            Metric::new(
                "batch.unique_frac",
                per(self.batch_unique as f64, self.batch_submissions),
                "frac",
            ),
            Metric::new("batch.call_p50_s", median(&self.batch_walls), "s"),
            Metric::new("delta.entries_patched", per(self.patched as f64, self.mutations), "count"),
            Metric::new("delta.entries_dropped", per(self.dropped as f64, self.mutations), "count"),
            Metric::new("delta.compactions", self.compactions as f64, "count"),
            Metric::new(
                "delta.overlay_tuples",
                per(self.overlay_tuples as f64, self.mutations),
                "count",
            ),
            Metric::new("delta.mutate_p50_s", median(&self.mutate_walls), "s"),
            Metric::new("trace.overhead_frac", overhead_frac, "frac"),
            Metric::new("trace.events_dropped", self.events_dropped as f64, "count"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rates_use_deltas_between_snapshots() {
        let mut h = HitCount::default();
        h.add(10, 5, 13, 6);
        assert_eq!((h.hits, h.lookups), (3, 4));
        assert_eq!(h.rate(), 0.75);
        assert_eq!(HitCount::default().rate(), 0.0);
    }

    #[test]
    fn mutations_average_per_batch() {
        let mut acc = LayerAcc::default();
        let o = MutationOutcome {
            relation: "R1".into(),
            inserted: 2,
            deleted: 1,
            seq: 1,
            entries_patched: 3,
            entries_dropped: 1,
            compacted: true,
            overlay_tuples: 10,
        };
        acc.mutation(0.002, &o);
        acc.mutation(0.004, &MutationOutcome { compacted: false, overlay_tuples: 20, ..o });
        let m = acc.metrics(0.0, 0.0);
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(get("delta.entries_patched"), 3.0);
        assert_eq!(get("delta.compactions"), 1.0);
        assert_eq!(get("delta.overlay_tuples"), 15.0);
        assert!((get("delta.mutate_p50_s") - 0.003).abs() < 1e-12);
    }
}
