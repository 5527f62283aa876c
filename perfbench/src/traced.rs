//! The traced pass: one harness thread replays a workload's query
//! sequence, with fixed ids, through the public functions the server
//! calls, in the server's order, and times each call from outside. The
//! phase profiler (`cdb_obsv::profile`) is installed only around
//! `build_query_graph` and `execute_query`, where it splits the time into
//! the existing phases (`similarity.join`, `task.select`, ...).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cdb_core::executor::EdgeTruth;
use cdb_core::model::NodeId;
use cdb_core::{build_query_graph, CostEstimate, QueryGraph, QueryTruth};
use cdb_cql::AnalyzedPredicate;
use cdb_obsv::profile::{self, ProfileReport, Profiler};
use cdb_runtime::{execute_query, QueryJob, RoundHook, RoundSink, RuntimeMetrics};
use cdb_sched::{AdmissionController, AdmissionDecision, QueryRequest};
use cdb_serve::{ServeConfig, StreamEvent};
use cdb_storage::Database;

use crate::config::{Query, ENVELOPE, QUERY_BUDGET_CENTS};

/// Wall nanoseconds per layer call, summed over the pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Calls {
    pub parse: u64,
    pub analyze: u64,
    pub build: u64,
    pub edge_truth: u64,
    pub estimate: u64,
    pub admit: u64,
    pub execute: u64,
    /// Round chunks encoded by the round hook (inside `execute`).
    pub hook_encode: u64,
    /// The terminal chunk and the settle bookkeeping.
    pub encode_done: u64,
}

impl Calls {
    /// Every call's time, the hook's counted once (it is inside execute).
    pub fn sum(&self) -> u64 {
        self.parse
            + self.analyze
            + self.build
            + self.edge_truth
            + self.estimate
            + self.admit
            + self.execute
            + self.encode_done
    }
}

/// Counts recorded at the same call boundaries.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub queries: u64,
    pub failed: u64,
    pub graph_edges: u64,
    pub join_edges: u64,
    pub pairs_compared: u64,
    pub tasks: u64,
    pub assignments: u64,
    pub dispatched: u64,
    pub hold_cents: u64,
    pub actual_cents: u64,
}

/// One replay of the sequence.
pub struct Pass {
    /// Wall nanoseconds of the whole replay loop.
    pub wall_ns: u64,
    pub calls: Calls,
    pub counts: Counts,
    /// The phase profile (traced pass only).
    pub profile: Option<ProfileReport>,
    /// Each query's plan, kept when asked (the defect diagnostic reruns them).
    pub plans: Vec<(QueryGraph, EdgeTruth)>,
}

/// The round hook the pass installs: encodes each round's delta as the
/// wire chunk the server would stream, and times it.
#[derive(Default)]
struct EncodeSink {
    ns: AtomicU64,
}

impl RoundSink for EncodeSink {
    fn on_round(&self, _query: u64, round: u64, new_bindings: &[Vec<NodeId>]) -> bool {
        let t = Instant::now();
        if !new_bindings.is_empty() {
            let new = new_bindings.iter().map(|b| b.iter().map(|n| n.0 as u64).collect()).collect();
            std::hint::black_box(StreamEvent::Round { round, new }.encode());
        }
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        true
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Replay `items` (query index, tenant) with ids `0..items.len()`. With
/// `traced`, the profiler records inside graph build and execution.
pub fn replay(
    db: &Database,
    truth: &QueryTruth,
    cfg: &ServeConfig,
    queries: &[Query],
    items: &[(usize, String)],
    traced: bool,
    keep_plans: bool,
) -> Pass {
    let profiler = traced.then(|| Arc::new(Profiler::new()));
    let metrics = Arc::new(RuntimeMetrics::new());
    let sink = Arc::new(EncodeSink::default());
    let hook = RoundHook::new(Arc::clone(&sink) as Arc<dyn RoundSink>);
    let mut tenants: HashMap<&str, AdmissionController> = HashMap::new();
    let mut calls = Calls::default();
    let mut counts = Counts::default();
    let mut plans = Vec::new();
    let redundancy = cfg.runtime.exec.redundancy;

    let start = Instant::now();
    for (id, (k, tenant)) in items.iter().enumerate() {
        let id = id as u64;
        let sql = &queries[*k].sql;
        let t = Instant::now();
        let stmt = cdb_cql::parse(sql).expect("workload SQL parses");
        calls.parse += ns_since(t);

        let t = Instant::now();
        let cdb_cql::Statement::Select(q) = stmt else { panic!("workload SQL is a SELECT") };
        let analyzed = cdb_cql::analyze_select(&q, db).expect("workload SQL analyzes");
        calls.analyze += ns_since(t);

        let t = Instant::now();
        let graph = {
            let _guard = profiler.as_ref().map(|p| profile::install(Arc::clone(p)));
            build_query_graph(&analyzed, db, &cfg.build)
        };
        calls.build += ns_since(t);

        // Counts at the build boundary (outside the timed calls).
        counts.graph_edges += graph.edge_count() as u64;
        for (i, pred) in analyzed.predicates.iter().enumerate() {
            if let AnalyzedPredicate::CrowdJoin { left, right } = pred {
                let rows = |t: &str| db.table(t).expect("resolved").row_count() as u64;
                counts.pairs_compared += rows(&left.table) * rows(&right.table);
                counts.join_edges += (0..graph.edge_count())
                    .filter(|&e| graph.edge_predicate(cdb_core::EdgeId(e)) == i)
                    .count() as u64;
            }
        }

        let t = Instant::now();
        let edge_truth = truth.edge_truth(&graph);
        calls.edge_truth += ns_since(t);

        let t = Instant::now();
        let estimate = cdb_core::cost::estimate::estimate(&graph, redundancy, cfg.task_price_cents);
        calls.estimate += ns_since(t);

        let t = Instant::now();
        let wallet =
            tenants.entry(tenant.as_str()).or_insert_with(|| AdmissionController::new(ENVELOPE));
        let decision = wallet.offer(QueryRequest {
            query: id,
            estimate,
            budget_cents: QUERY_BUDGET_CENTS,
            deadline_rounds: None,
        });
        calls.admit += ns_since(t);
        assert!(
            matches!(decision, AdmissionDecision::Admitted),
            "a sequential replay is always admitted"
        );

        if keep_plans {
            plans.push((graph.clone(), edge_truth.clone()));
        }
        let mut rcfg = cfg.runtime.clone();
        rcfg.exec.budget = analyzed.budget.or(rcfg.exec.budget);
        rcfg.round_sink = Some(hook.clone());
        let t = Instant::now();
        let (_, result) = {
            let _guard = profiler.as_ref().map(|p| profile::install(Arc::clone(p)));
            execute_query(&rcfg, &metrics, QueryJob { id, graph, truth: edge_truth }, None)
        };
        calls.execute += ns_since(t);

        // Settle: the terminal chunk and the refund, as the server does.
        let t = Instant::now();
        let committed = estimate.cost_cents_upper;
        let (actual, chunk) = match result {
            Ok(qr) => {
                let final_bindings: BTreeSet<Vec<u64>> =
                    qr.bindings.iter().map(|b| b.iter().map(|n| n.0 as u64).collect()).collect();
                let actual =
                    committed.min(qr.tasks_asked as u64 * redundancy as u64 * cfg.task_price_cents);
                counts.tasks += qr.tasks_asked as u64;
                counts.assignments += qr.assignments as u64;
                let done = StreamEvent::Done {
                    rounds: qr.rounds as u64,
                    tasks: qr.tasks_asked as u64,
                    assignments: qr.assignments as u64,
                    bindings: final_bindings.len() as u64,
                    cancelled: qr.cancelled,
                    refund_cents: committed - actual,
                };
                (actual, done.encode())
            }
            Err(e) => {
                counts.failed += 1;
                (0, StreamEvent::Error { message: e.to_string() }.encode())
            }
        };
        std::hint::black_box(chunk);
        let refund =
            CostEstimate { tasks_upper: 0, rounds_upper: 0, cost_cents_upper: committed - actual };
        calls.encode_done += ns_since(t);

        let t = Instant::now();
        tenants.get_mut(tenant.as_str()).expect("offered above").complete(&refund);
        calls.admit += ns_since(t);

        counts.queries += 1;
        counts.hold_cents += committed;
        counts.actual_cents += actual;
    }
    let wall_ns = ns_since(start);

    calls.hook_encode = sink.ns.load(Ordering::Relaxed);
    counts.dispatched = metrics.snapshot().tasks_dispatched;
    Pass { wall_ns, calls, counts, profile: profiler.map(|p| p.report()), plans }
}

/// The (left column, right column, measure, ε) key of each CROWDJOIN in
/// `sql`: two evaluations with the same key compute the same join pairs.
pub fn join_keys(db: &Database, cfg: &ServeConfig, sql: &str) -> Vec<String> {
    let cdb_cql::Statement::Select(q) = cdb_cql::parse(sql).expect("workload SQL parses") else {
        panic!("workload SQL is a SELECT")
    };
    let analyzed = cdb_cql::analyze_select(&q, db).expect("workload SQL analyzes");
    analyzed
        .predicates
        .iter()
        .filter_map(|p| match p {
            AnalyzedPredicate::CrowdJoin { left, right } => {
                Some(format!("{left}|{right}|{:?}|{}", cfg.build.similarity, cfg.build.epsilon))
            }
            _ => None,
        })
        .collect()
}

/// Nanoseconds in the outermost occurrences of phase `name`.
pub fn phase_ns(report: &ProfileReport, name: &str) -> u64 {
    report
        .entries
        .iter()
        .filter(|e| e.name == name && e.path.split(';').filter(|s| *s == name).count() == 1)
        .map(|e| e.total_ns)
        .sum()
}

/// Self-times per layer over the traced pass, in nanoseconds. Calls
/// outside the profiler are their own layers; inside `build_query_graph`
/// and `execute_query` the profiler's phase self-times split the call,
/// and the part of the call outside every phase is the call's own self
/// time. By construction these sum to [`Calls::sum`].
pub fn self_times(pass: &Pass) -> BTreeMap<String, i64> {
    let c = &pass.calls;
    let mut out: BTreeMap<String, i64> = BTreeMap::new();
    let mut add = |k: &str, v: i64| *out.entry(k.to_string()).or_default() += v;
    add("cql.parse", c.parse as i64);
    add("cql.analyze", c.analyze as i64);
    add("core.edge_truth", c.edge_truth as i64);
    add("core.estimate", c.estimate as i64);
    add("sched.admit", c.admit as i64);
    add("stream.encode", (c.hook_encode + c.encode_done) as i64);
    let report = pass.profile.as_ref().expect("the traced pass has a profile");
    let build_phase = phase_ns(report, profile::phases::GRAPH_BUILD) as i64;
    let root = report.root_total_ns() as i64;
    for e in &report.entries {
        add(e.name, e.self_ns as i64);
    }
    // Call time outside any phase.
    add(profile::phases::GRAPH_BUILD, c.build as i64 - build_phase);
    add("runtime.execute", c.execute as i64 - (root - build_phase) - c.hook_encode as i64);
    out
}

/// Execute each plan with ids `0..` under `cfg` and count the failures.
pub fn count_failures(cfg: &ServeConfig, plans: Vec<(QueryGraph, EdgeTruth)>) -> usize {
    let metrics = Arc::new(RuntimeMetrics::new());
    plans
        .into_iter()
        .enumerate()
        .map(|(id, (graph, truth))| {
            let job = QueryJob { id: id as u64, graph, truth };
            execute_query(&cfg.runtime, &metrics, job, None).1.is_err()
        })
        .filter(|&failed| failed)
        .count()
}
