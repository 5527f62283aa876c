//! Load generation over loopback HTTP with `cdb_serve::Client`: a closed
//! loop (each client sends its next query when the last one is done),
//! optionally carrying queries on a fixed schedule (latency counts from the
//! scheduled send time, so a late generator shows).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cdb_serve::{Client, StreamEvent, Submit, SubmitOutcome};

use crate::config::{Query, QUERY_BUDGET_CENTS};

/// One submitted query, as the client saw it.
#[derive(Debug)]
pub struct Record {
    /// Counted in the metrics (false for warm-up and single-client passes).
    pub measured: bool,
    /// Index into the workload's query list.
    pub query: usize,
    /// Whether the query is in the heavy (join) class.
    pub heavy: bool,
    /// Tenant the query billed against.
    pub tenant: String,
    /// Server-assigned id (None when rejected or the submit failed).
    pub id: Option<u64>,
    /// `admitted`, `queued` or `rejected`.
    pub decision: &'static str,
    /// When the query was due (closed loop: when it was sent).
    pub due: Instant,
    /// When the client sent `POST /queries`.
    pub sent: Instant,
    /// When the admission decision arrived.
    pub posted: Instant,
    /// When the first `round` chunk arrived.
    pub first_round: Option<Instant>,
    /// When the terminal `done` line arrived.
    pub done: Option<Instant>,
    /// The decoded stream.
    pub events: Vec<StreamEvent>,
    /// Why the query did not complete, if it did not.
    pub error: Option<String>,
}

impl Record {
    /// Completed normally: a `done` line, not cancelled, no error.
    pub fn completed(&self) -> bool {
        self.error.is_none()
            && matches!(self.events.last(), Some(StreamEvent::Done { cancelled: false, .. }))
    }

    /// Milliseconds from the due time to the `done` line.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| ms(d - self.due))
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Submit one query and read its stream to the end.
fn run_one(client: &mut Client, q: &Query, query: usize, tenant: &str, due: Instant) -> Record {
    let sent = Instant::now();
    let mut rec = Record {
        measured: true,
        query,
        heavy: q.heavy,
        tenant: tenant.to_string(),
        id: None,
        decision: "rejected",
        due,
        sent,
        posted: sent,
        first_round: None,
        done: None,
        events: Vec::new(),
        error: None,
    };
    let submit = Submit {
        tenant: tenant.to_string(),
        sql: q.sql.clone(),
        budget_cents: QUERY_BUDGET_CENTS,
        deadline_rounds: None,
    };
    let outcome = client.submit(&submit);
    rec.posted = Instant::now();
    let id = match outcome {
        Ok(SubmitOutcome::Admitted { query }) => {
            rec.decision = "admitted";
            query
        }
        Ok(SubmitOutcome::Queued { query, .. }) => {
            rec.decision = "queued";
            query
        }
        Ok(SubmitOutcome::Rejected { reason, .. }) => {
            rec.error = Some(format!("rejected: {reason}"));
            return rec;
        }
        Err(e) => {
            rec.error = Some(format!("submit: {e}"));
            return rec;
        }
    };
    rec.id = Some(id);
    let (mut first, mut done) = (None, None);
    let lines = client.stream(id, |line| {
        if first.is_none() && line.contains("\"event\":\"round\"") {
            first = Some(Instant::now());
        }
        if line.contains("\"event\":\"done\"") || line.contains("\"event\":\"error\"") {
            done = Some(Instant::now());
        }
        true
    });
    rec.first_round = first;
    rec.done = done;
    match lines {
        Ok(lines) => {
            for l in &lines {
                match StreamEvent::decode(l) {
                    Ok(e) => rec.events.push(e),
                    Err(e) => rec.error = Some(format!("undecodable line: {e}")),
                }
            }
            match rec.events.last() {
                Some(StreamEvent::Done { cancelled: false, .. }) => {}
                Some(StreamEvent::Done { cancelled: true, .. }) => {
                    rec.error = Some("query cancelled".into());
                }
                Some(StreamEvent::Error { message }) => {
                    rec.error = Some(format!("query failed: {message}"));
                }
                _ => rec.error = Some("stream ended without a done line".into()),
            }
        }
        Err(e) => rec.error = Some(format!("stream: {e}")),
    }
    rec
}

/// Run `items` (query index, tenant) one after another from one client,
/// unmeasured: warm-up and the single-client pass of the traced run.
pub fn sequential(addr: SocketAddr, queries: &[Query], items: &[(usize, String)]) -> Vec<Record> {
    let mut client = Client::new(addr);
    items
        .iter()
        .map(|(k, tenant)| {
            let mut r = run_one(&mut client, &queries[*k], *k, tenant, Instant::now());
            r.measured = false;
            r
        })
        .collect()
}

/// Load threads plus the abort flag the run deadline sets.
pub struct Load {
    threads: Vec<JoinHandle<Vec<Record>>>,
    abort: Arc<AtomicBool>,
    done: Arc<AtomicUsize>,
}

impl Load {
    /// No threads yet; the loop functions add theirs.
    pub fn new() -> Load {
        Load { threads: Vec::new(), abort: Arc::default(), done: Arc::default() }
    }

    /// Queries that have reached a terminal line so far.
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// True once every load thread has returned.
    pub fn finished(&self) -> bool {
        self.threads.iter().all(|t| t.is_finished())
    }

    /// Ask the threads to stop sending (the run overran its deadline).
    pub fn abort(&self) {
        self.abort.store(true, Ordering::SeqCst);
    }

    /// Join every thread and gather the records.
    pub fn join(self) -> Vec<Record> {
        self.threads.into_iter().flat_map(|t| t.join().expect("load thread panicked")).collect()
    }
}

/// One scheduled send: a query due at a fixed offset from the loop's start.
#[derive(Debug, Clone)]
pub struct Due {
    /// Offset from the loop's start.
    pub at: Duration,
    /// Index into the query list.
    pub query: usize,
    /// Tenant name.
    pub tenant: String,
}

/// A closed loop: query indices to cycle, tenants, client threads, and the
/// queries the first client sends on a fixed schedule.
#[derive(Debug, Clone)]
pub struct Closed {
    pub cycle: Vec<usize>,
    pub tenants: Vec<String>,
    pub clients: usize,
    pub scheduled: Vec<Due>,
}

/// Add a closed loop of `closed.clients` threads sharing one sequence: item
/// `i` is query `cycle[i % cycle.len()]` for tenant `tenants[i % tenants.len()]`.
/// Sending stops at the first whole cycle after `seconds` have passed.
///
/// The first client also sends the `scheduled` queries: each goes out as
/// soon as it is due (its latency counts from the due time, so a late
/// generator shows), between two of the client's closed-loop queries;
/// those left when the closed loop stops go out at their due times.
pub fn closed_loop(
    load: &mut Load,
    addr: SocketAddr,
    queries: Arc<Vec<Query>>,
    closed: Closed,
    seconds: f64,
) {
    let Closed { cycle, tenants, clients, scheduled } = closed;
    let (cycle, tenants) = (Arc::new(cycle), Arc::new(tenants));
    let next = Arc::new(Mutex::new(Some(0usize)));
    let start = Instant::now();
    let mut scheduled = Some(scheduled);
    load.threads.extend((0..clients).map(|_| {
        let (queries, cycle, tenants) =
            (Arc::clone(&queries), Arc::clone(&cycle), Arc::clone(&tenants));
        let (next, abort, done) =
            (Arc::clone(&next), Arc::clone(&load.abort), Arc::clone(&load.done));
        let mut due = scheduled.take().unwrap_or_default().into_iter().peekable();
        std::thread::spawn(move || {
            let mut client = Client::new(addr);
            let mut out = Vec::new();
            let mut send = |client: &mut Client, k: usize, tenant: &str, at: Instant| {
                out.push(run_one(client, &queries[k], k, tenant, at));
                done.fetch_add(1, Ordering::Relaxed);
            };
            loop {
                if let Some(d) = due.next_if(|d| start + d.at <= Instant::now()) {
                    send(&mut client, d.query, &d.tenant, start + d.at);
                    continue;
                }
                let i = {
                    let mut next = next.lock().expect("sequence lock poisoned");
                    let Some(i) = *next else { break };
                    let cycle_end = i % cycle.len() == 0;
                    if abort.load(Ordering::SeqCst)
                        || (cycle_end && start.elapsed().as_secs_f64() >= seconds)
                    {
                        *next = None;
                        break;
                    }
                    *next = Some(i + 1);
                    i
                };
                send(
                    &mut client,
                    cycle[i % cycle.len()],
                    &tenants[i % tenants.len()],
                    Instant::now(),
                );
            }
            for d in due {
                if abort.load(Ordering::SeqCst) {
                    break;
                }
                let at = start + d.at;
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                send(&mut client, d.query, &d.tenant, at);
            }
            out
        })
    }));
}
