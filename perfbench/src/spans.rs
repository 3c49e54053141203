//! Layer times from a recorded span timeline.
//!
//! The program records spans on lanes: lane 0 is the coordinator, lane
//! `w + 1` is cluster worker `w`. Spans on one lane nest. A layer's self
//! time is its span's duration minus the part of that interval that the
//! spans nested in it (on the same lane) cover.

use adj_trace::{Event, Trace, COORDINATOR_LANE};

/// A closed-open interval `[start, end)` in microseconds.
pub type Interval = (u64, u64);

/// Length of the union of `intervals`.
pub fn union_len(intervals: &[Interval]) -> u64 {
    let mut v: Vec<Interval> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut current: Option<Interval> = None;
    for (s, e) in v {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

fn interval(e: &Event) -> Interval {
    (e.start_us, e.start_us + e.dur_us)
}

/// Whether span `inner` (at timeline index `i`) nests inside span `outer`
/// (at index `o`). Identical intervals nest by timeline order: the first
/// one is the parent.
fn nested(inner: Interval, i: usize, outer: Interval, o: usize) -> bool {
    outer.0 <= inner.0 && inner.1 <= outer.1 && (inner != outer || i > o)
}

/// Self time of span `idx` of `spans` (all on one lane): its duration
/// minus the union of the spans nested in it.
pub fn self_time(spans: &[&Event], idx: usize) -> u64 {
    let outer = interval(spans[idx]);
    let children: Vec<Interval> = spans
        .iter()
        .enumerate()
        .filter(|&(i, e)| i != idx && nested(interval(e), i, outer, idx))
        .map(|(_, e)| interval(e))
        .collect();
    spans[idx].dur_us - union_len(&children)
}

/// What one query's (or batch's) timeline says about each layer, in
/// seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanLayers {
    /// `optimize` spans, whole (sampling included).
    pub optimize: f64,
    /// `plan_lookup` self time (excluding the nested `optimize`).
    pub plan_lookup: f64,
    /// `precompute` spans, whole (their bag shuffles and joins included).
    pub precompute: f64,
    /// `shuffle` self time (excluding the nested `route`).
    pub shuffle: f64,
    /// `route` self time.
    pub route: f64,
    /// `gather` self time.
    pub gather: f64,
    /// Union of every coordinator span: the part of the call the
    /// coordinator phases account for.
    pub coordinator_covered: f64,
    /// Per `computation` span, its duration minus the longest worker span
    /// inside it; summed.
    pub dispatch: f64,
    /// Longest per-worker sum of `build` spans.
    pub build_max: f64,
    /// Longest per-worker sum of `join` spans.
    pub join_max: f64,
    /// Mean per-worker sum of `join` spans (over workers that joined).
    pub join_mean: f64,
    /// Longest per-worker sum of `batch_join` spans.
    pub batch_join_max: f64,
}

const US: f64 = 1e-6;

impl SpanLayers {
    /// Adds `other`'s times to these (the per-timeline `coordinator_covered`
    /// and `join_mean` are summed too; callers that need them read them
    /// off a single timeline).
    pub fn add(&mut self, other: &SpanLayers) {
        self.optimize += other.optimize;
        self.plan_lookup += other.plan_lookup;
        self.precompute += other.precompute;
        self.shuffle += other.shuffle;
        self.route += other.route;
        self.gather += other.gather;
        self.coordinator_covered += other.coordinator_covered;
        self.dispatch += other.dispatch;
        self.build_max += other.build_max;
        self.join_max += other.join_max;
        self.join_mean += other.join_mean;
        self.batch_join_max += other.batch_join_max;
    }

    /// Reads the layers off one timeline.
    pub fn of(trace: &Trace) -> SpanLayers {
        let mut out = SpanLayers::default();
        let coordinator: Vec<&Event> =
            trace.events.iter().filter(|e| e.span && e.lane == COORDINATOR_LANE).collect();
        let workers: Vec<&Event> =
            trace.events.iter().filter(|e| e.span && e.lane != COORDINATOR_LANE).collect();

        for (i, e) in coordinator.iter().enumerate() {
            let whole = e.dur_us as f64 * US;
            let own = || self_time(&coordinator, i) as f64 * US;
            match e.name {
                "optimize" => out.optimize += whole,
                "plan_lookup" => out.plan_lookup += own(),
                "precompute" => out.precompute += whole,
                "shuffle" => out.shuffle += own(),
                "route" => out.route += own(),
                "gather" => out.gather += own(),
                "computation" => {
                    let (s, end) = interval(e);
                    let longest = workers
                        .iter()
                        .filter(|w| w.start_us >= s && w.start_us + w.dur_us <= end)
                        .map(|w| w.dur_us)
                        .max()
                        .unwrap_or(0);
                    out.dispatch += (e.dur_us - longest.min(e.dur_us)) as f64 * US;
                }
                _ => {}
            }
        }
        let covered: Vec<Interval> = coordinator.iter().map(|e| interval(e)).collect();
        out.coordinator_covered = union_len(&covered) as f64 * US;

        let per_lane = |name: &str| -> Vec<u64> {
            let mut lanes: Vec<(u32, u64)> = Vec::new();
            for w in workers.iter().filter(|w| w.name == name) {
                match lanes.iter_mut().find(|(l, _)| *l == w.lane) {
                    Some((_, sum)) => *sum += w.dur_us,
                    None => lanes.push((w.lane, w.dur_us)),
                }
            }
            lanes.into_iter().map(|(_, sum)| sum).collect()
        };
        let max = |v: &[u64]| v.iter().copied().max().unwrap_or(0) as f64 * US;
        out.build_max = max(&per_lane("build"));
        let joins = per_lane("join");
        out.join_max = max(&joins);
        if !joins.is_empty() {
            out.join_mean = joins.iter().sum::<u64>() as f64 * US / joins.len() as f64;
        }
        out.batch_join_max = max(&per_lane("batch_join"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, lane: u32, start_us: u64, dur_us: u64) -> Event {
        Event {
            name,
            detail: String::new(),
            lane,
            start_us,
            dur_us,
            span: true,
            args: Default::default(),
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_empty() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 25), (30, 30)]), 20);
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(3, 4), (0, 10)]), 10);
    }

    #[test]
    fn self_time_subtracts_nested_spans_once() {
        // shuffle [0,100) holds route [10,40) which holds a deeper span
        // [20,30); a sibling [40,50) sits beside route; an unrelated span
        // [90,120) only overlaps the edge and is not nested.
        let events = [
            span("shuffle", 0, 0, 100),
            span("route", 0, 10, 30),
            span("deep", 0, 20, 10),
            span("sibling", 0, 40, 10),
            span("later", 0, 90, 30),
        ];
        let spans: Vec<&Event> = events.iter().collect();
        assert_eq!(self_time(&spans, 0), 100 - 30 - 10);
        assert_eq!(self_time(&spans, 1), 30 - 10);
        assert_eq!(self_time(&spans, 2), 10);
    }

    #[test]
    fn identical_intervals_nest_by_timeline_order() {
        let events = [span("plan_lookup", 0, 5, 20), span("optimize", 0, 5, 20)];
        let spans: Vec<&Event> = events.iter().collect();
        assert_eq!(self_time(&spans, 0), 0);
        assert_eq!(self_time(&spans, 1), 20);
    }

    #[test]
    fn layers_from_a_hand_built_timeline() {
        let trace = Trace {
            events: vec![
                span("plan_lookup", 0, 0, 50),
                span("optimize", 0, 10, 30),
                span("shuffle", 0, 50, 100),
                span("route", 0, 60, 20),
                span("build", 1, 60, 70),
                span("build", 2, 60, 30),
                span("computation", 0, 150, 200),
                span("join", 1, 160, 150),
                span("join", 2, 160, 50),
                span("gather", 0, 350, 10),
            ],
            events_dropped: 0,
            capacity: 64,
        };
        let l = SpanLayers::of(&trace);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(l.optimize, 30e-6));
        assert!(close(l.plan_lookup, 20e-6));
        assert!(close(l.shuffle, 80e-6));
        assert!(close(l.route, 20e-6));
        assert!(close(l.gather, 10e-6));
        assert!(close(l.dispatch, 50e-6));
        assert!(close(l.build_max, 70e-6));
        assert!(close(l.join_max, 150e-6));
        assert!(close(l.join_mean, 100e-6));
        assert!(close(l.coordinator_covered, 360e-6));
        assert_eq!(l.batch_join_max, 0.0);
    }
}
