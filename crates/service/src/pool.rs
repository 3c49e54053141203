//! A fixed worker pool draining a submission queue through a [`Service`].
//!
//! [`Service::execute`](crate::Service::execute) is synchronous: the
//! calling thread carries the query through admission, planning, and
//! execution. Callers that want *handles* instead — submit now, collect
//! later, let a bounded set of threads do the carrying — wrap the service
//! in a [`WorkerPool`]. The pool adds no second admission layer: its
//! threads go through the same
//! [`AdmissionController`](crate::admission::AdmissionController) as
//! direct callers, so `threads > max_concurrent` simply keeps the
//! admission queue warm.
//!
//! Plumbing: one `mpsc` channel feeds jobs to the workers (receiver shared
//! behind a mutex — the standard-library channel is single-consumer);
//! every job carries its own bounded reply channel. Dropping the pool
//! closes the queue, lets in-flight jobs finish, and joins the threads.

use crate::service::{Service, ServiceOutcome};
use crate::ServiceError;
use adj_query::JoinQuery;
use adj_relational::OutputMode;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A query in either accepted form.
#[derive(Debug, Clone)]
pub enum QueryInput {
    /// Datalog-style text, parsed by `adj_query::parser`.
    Text(String),
    /// An already-built query.
    Query(JoinQuery),
}

/// One unit of work for the pool.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Name of the registered database to run against.
    pub database: String,
    /// The query.
    pub query: QueryInput,
    /// Output mode. `None` means the default: [`OutputMode::Rows`] for
    /// built queries, the text's own `COUNT(…)`/`LIMIT k (…)`/`EXISTS(…)`
    /// prefix (or `Rows` without one) for textual queries. `Some(mode)`
    /// forces `mode`, overriding any prefix in the text.
    pub mode: Option<OutputMode>,
    /// Per-query deadline, measured from when a worker picks the request
    /// up (admission wait included). `None` falls back to
    /// [`ServiceConfig::default_deadline`](crate::ServiceConfig).
    pub deadline: Option<Duration>,
}

impl QueryRequest {
    /// A request from query text (any mode prefix in the text applies).
    pub fn text(database: impl Into<String>, text: impl Into<String>) -> Self {
        QueryRequest {
            database: database.into(),
            query: QueryInput::Text(text.into()),
            mode: None,
            deadline: None,
        }
    }

    /// A request from a built query (served in [`OutputMode::Rows`]).
    pub fn query(database: impl Into<String>, query: JoinQuery) -> Self {
        QueryRequest {
            database: database.into(),
            query: QueryInput::Query(query),
            mode: None,
            deadline: None,
        }
    }

    /// Forces an output mode, overriding the default (and any mode prefix
    /// a textual query carries).
    pub fn with_mode(mut self, mode: OutputMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Sets a per-query deadline; past it the query stops at its next
    /// cancellation checkpoint with
    /// [`ServiceError::DeadlineExceeded`](crate::ServiceError).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

struct Job {
    request: QueryRequest,
    reply: mpsc::SyncSender<Result<ServiceOutcome, ServiceError>>,
}

/// A handle to one submitted request.
#[derive(Debug)]
pub struct JobHandle {
    reply: mpsc::Receiver<Result<ServiceOutcome, ServiceError>>,
}

impl JobHandle {
    /// Blocks until the request completes. Returns
    /// [`ServiceError::ShutDown`] if the pool died first.
    pub fn wait(self) -> Result<ServiceOutcome, ServiceError> {
        self.reply.recv().unwrap_or(Err(ServiceError::ShutDown))
    }
}

/// A fixed set of threads executing submitted requests against one service.
pub struct WorkerPool {
    service: Arc<Service>,
    queue: Option<mpsc::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to ≥ 1) over `service`.
    pub fn new(service: Arc<Service>, threads: usize) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let service = Arc::clone(&service);
                std::thread::Builder::new()
                    .name(format!("adj-service-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only to dequeue, never while serving
                        // (recovering from poison: `recv` itself cannot
                        // panic, but a sibling worker's unwind between
                        // lock and recv must not wedge the whole pool).
                        let guard = rx.lock().unwrap_or_else(|e| {
                            rx.clear_poison();
                            e.into_inner()
                        });
                        let job = match guard.recv() {
                            Ok(job) => job,
                            Err(_) => return, // queue closed: pool dropped
                        };
                        drop(guard);
                        let result = run_one(&service, &job.request);
                        // The submitter may have dropped its handle; that
                        // just means nobody reads the outcome.
                        let _ = job.reply.send(result);
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { service, queue: Some(tx), workers }
    }

    /// The service this pool serves.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Submits a request; returns immediately with a waitable handle.
    pub fn submit(&self, request: QueryRequest) -> JobHandle {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let handle = JobHandle { reply: reply_rx };
        let job = Job { request, reply: reply_tx };
        if let Some(queue) = &self.queue {
            // Send fails only if every worker already exited (it cannot:
            // workers outlive the queue), but stay defensive — the handle
            // then reports ShutDown.
            let _ = queue.send(job);
        }
        handle
    }

    /// Convenience: submits every request, then waits for all results in
    /// submission order.
    pub fn run_all(
        &self,
        requests: impl IntoIterator<Item = QueryRequest>,
    ) -> Vec<Result<ServiceOutcome, ServiceError>> {
        let handles: Vec<JobHandle> = requests.into_iter().map(|r| self.submit(r)).collect();
        handles.into_iter().map(JobHandle::wait).collect()
    }
}

fn run_one(service: &Service, request: &QueryRequest) -> Result<ServiceOutcome, ServiceError> {
    let (db, mode, deadline) = (&request.database, request.mode, request.deadline);
    match &request.query {
        QueryInput::Text(text) => service.execute_text_with(db, text, mode, deadline),
        QueryInput::Query(query) => service.execute_mode_with_deadline(
            db,
            query,
            mode.unwrap_or(OutputMode::Rows),
            deadline,
        ),
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Close the queue so idle workers see the disconnect…
        self.queue = None;
        // …and wait for in-flight jobs to finish.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.workers.len()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServiceConfig, ServiceError};
    use adj_cluster::ClusterConfig;
    use adj_core::AdjConfig;
    use adj_query::{paper_query, PaperQuery};
    use adj_relational::{Attr, Relation, Value};

    fn service() -> Arc<Service> {
        let config = ServiceConfig {
            adj: AdjConfig { cluster: ClusterConfig::with_workers(2), ..Default::default() },
            ..Default::default()
        };
        let s = Arc::new(Service::new(config));
        let edges: Vec<(Value, Value)> = (0..120u32).map(|i| (i % 17, (i * 5 + 2) % 17)).collect();
        let g = Relation::from_pairs(Attr(0), Attr(1), &edges);
        s.register_database("g", paper_query(PaperQuery::Q1).instantiate(&g));
        s
    }

    #[test]
    fn submit_and_wait_roundtrip() {
        let pool = WorkerPool::new(service(), 2);
        let h = pool.submit(QueryRequest::query("g", paper_query(PaperQuery::Q1)));
        let out = h.wait().unwrap();
        assert!(!out.rows().is_empty());
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn run_all_keeps_submission_order_and_mixes_forms() {
        let pool = WorkerPool::new(service(), 3);
        let reqs = vec![
            QueryRequest::query("g", paper_query(PaperQuery::Q1)),
            QueryRequest::text("g", "Q(a,b,c) :- R1(a,b), R2(b,c), R3(a,c)"),
            QueryRequest::text("g", "broken("),
            QueryRequest::query("nope", paper_query(PaperQuery::Q1)),
        ];
        let results = pool.run_all(reqs);
        assert_eq!(results.len(), 4);
        let a = results[0].as_ref().unwrap();
        let b = results[1].as_ref().unwrap();
        assert_eq!(a.rows(), b.rows());
        assert!(results[2].is_err());
        assert!(matches!(results[3].as_ref().unwrap_err(), ServiceError::UnknownDatabase(_)));
    }

    #[test]
    fn mode_requests_flow_through_the_pool() {
        let pool = WorkerPool::new(service(), 2);
        let full = pool
            .submit(QueryRequest::query("g", paper_query(PaperQuery::Q1)))
            .wait()
            .unwrap()
            .rows()
            .len() as u64;
        // Built query with a forced mode.
        let counted = pool
            .submit(
                QueryRequest::query("g", paper_query(PaperQuery::Q1)).with_mode(OutputMode::Count),
            )
            .wait()
            .unwrap();
        assert_eq!(counted.output, adj_relational::QueryOutput::Count(full));
        // Text query whose mode rides in the text itself.
        let text = "COUNT(Q(a,b,c) :- R1(a,b), R2(b,c), R3(a,c))";
        let from_text = pool.submit(QueryRequest::text("g", text)).wait().unwrap();
        assert_eq!(from_text.output, adj_relational::QueryOutput::Count(full));
        // A forced mode overrides the text prefix.
        let overridden = pool
            .submit(QueryRequest::text("g", text).with_mode(OutputMode::Exists))
            .wait()
            .unwrap();
        assert_eq!(overridden.output, adj_relational::QueryOutput::Exists(full > 0));
    }

    #[test]
    fn explain_text_gets_one_typed_error_on_every_text_path() {
        let pool = WorkerPool::new(service(), 2);
        let text = "EXPLAIN R1(a,b), R2(b,c), R3(a,c)";
        let direct = pool.service().execute_text("g", text);
        let pooled = [
            QueryRequest::text("g", text),
            QueryRequest::text("g", text).with_deadline(Duration::from_secs(60)),
            QueryRequest::text("g", text).with_mode(OutputMode::Count),
        ];
        for result in std::iter::once(direct).chain(pool.run_all(pooled)) {
            match result {
                Err(ServiceError::Parse { token, .. }) => assert_eq!(token, "EXPLAIN"),
                other => panic!("expected the typed EXPLAIN parse error, got {other:?}"),
            }
        }
        assert_eq!(pool.service().metrics().queries_failed, 4, "every rejection is counted");
    }

    #[test]
    fn many_submitters_one_pool() {
        let pool = Arc::new(WorkerPool::new(service(), 4));
        let expected = pool
            .submit(QueryRequest::query("g", paper_query(PaperQuery::Q1)))
            .wait()
            .unwrap()
            .rows()
            .len();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for _ in 0..5 {
                        let out = pool
                            .submit(QueryRequest::query("g", paper_query(PaperQuery::Q1)))
                            .wait()
                            .unwrap();
                        assert_eq!(out.rows().len(), expected);
                    }
                });
            }
        });
        assert_eq!(pool.service().metrics().queries_ok, 21);
    }

    #[test]
    fn drop_completes_in_flight_work() {
        let svc = service();
        let handles: Vec<JobHandle> = {
            let pool = WorkerPool::new(Arc::clone(&svc), 2);
            (0..6)
                .map(|_| pool.submit(QueryRequest::query("g", paper_query(PaperQuery::Q1))))
                .collect()
            // pool dropped here: queue closes, workers drain
        };
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(svc.metrics().queries_ok, 6);
    }
}
