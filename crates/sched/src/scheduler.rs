//! The multi-query scheduler: admission → deterministic execution →
//! fair-share interleaving → shared-HIT billing.
//!
//! # Determinism strategy
//!
//! Cross-query batching must not perturb query answers: the acceptance
//! bar is byte-identical per-query bindings with batching on or off, at
//! any thread count. The scheduler gets this by construction, in two
//! phases:
//!
//! 1. **Execution.** Admitted queries run through the unmodified
//!    [`RuntimeExecutor`] — each query a pure function of
//!    `(seed, query id)` ([`cdb_runtime::execute_query`]), byte-identical
//!    at 1/4/8 threads. The engine additionally records each query's
//!    *round trace* (tasks published per crowd round).
//! 2. **Interleaving.** The deficit-round-robin scheduler ([`crate::drr`])
//!    replays those traces into global crowd rounds, and the HIT packer
//!    bills each global round — either per query (batching off) or as
//!    shared HITs with largest-remainder cent attribution (batching on,
//!    [`cdb_crowd::attribute_shared_cents`]).
//!
//! Batching therefore changes *how tasks are packed and billed*, never
//! which tasks are asked or what the crowd answers. What it buys is the
//! partial-HIT waste: per query, every round ends with up to
//! `tasks_per_hit − 1` empty slots that are paid for anyway; packed
//! across queries those slots are filled. The `figures sched` sweep
//! quantifies the reduction (≥15% at 8 concurrent queries).
//!
//! Queued queries admit in *waves*: when a wave of active queries
//! completes, their committed budgets release and the controller promotes
//! the queue FIFO into the next wave. Wave composition is a pure function
//! of the request sequence, so the whole schedule replays.

use std::collections::BTreeMap;
use std::sync::Arc;

use cdb_core::cost::estimate::estimate;
use cdb_crowd::{attribute_shared_cents, pack_shared, HitConfig};
use cdb_obsv::attr::names;
use cdb_obsv::{kv, Event, SpanId, Trace};
use cdb_runtime::{QueryJob, QueryResult, RuntimeConfig, RuntimeError, RuntimeExecutor};

use crate::admission::{AdmissionController, AdmissionDecision, Envelope, QueryRequest};
use crate::drr::{schedule, DrrConfig, GlobalRound};
use crate::metrics::{SchedMetrics, SchedSnapshot};

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// The runtime the admitted waves execute on (threads, seed, faults,
    /// reuse — all of it applies unchanged).
    pub runtime: RuntimeConfig,
    /// Global admission envelope.
    pub envelope: Envelope,
    /// Fair-share knobs (quantum, optional per-round capacity).
    pub drr: DrrConfig,
    /// HIT packing ("pack 10 tasks in each HIT", §6.3).
    pub hit: HitConfig,
    /// Pack tasks from different queries into shared HITs. Off bills each
    /// query its own `ceil(tasks / tasks_per_hit)` HITs per round.
    pub batching: bool,
    /// Observability sink for `sched.*` events (the scheduler's own
    /// [`SchedMetrics`] collector is always attached in addition).
    pub trace: Trace,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            runtime: RuntimeConfig::default(),
            envelope: Envelope::default(),
            drr: DrrConfig::default(),
            hit: HitConfig::default(),
            batching: true,
            trace: Trace::off(),
        }
    }
}

/// One query submitted to the scheduler: the job plus its resources.
#[derive(Debug, Clone)]
pub struct SchedJob {
    /// The query to run (its `id` keys decisions, results, attribution).
    pub job: QueryJob,
    /// Money this query brings, in cents.
    pub budget_cents: u64,
    /// Optional deadline in global scheduler rounds.
    pub deadline_rounds: Option<usize>,
}

impl SchedJob {
    /// A job with an effectively unlimited budget and no deadline.
    pub fn unconstrained(job: QueryJob) -> Self {
        SchedJob { job, budget_cents: u64::MAX, deadline_rounds: None }
    }
}

/// One global crowd round as billed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// Global round index (continuous across waves).
    pub index: usize,
    /// `(query id, tasks)` in query-id order.
    pub contributions: Vec<(u64, usize)>,
    /// HITs published this round (under the configured batching mode).
    pub hits: usize,
    /// Platform spend this round, in cents.
    pub cents: u64,
}

/// Everything a scheduled run produced.
#[derive(Debug)]
pub struct SchedReport {
    /// Admission verdict per submitted query, in submission order.
    pub decisions: Vec<(u64, AdmissionDecision)>,
    /// Per-query outcomes of every admitted query, sorted by query id.
    pub results: Vec<(u64, Result<QueryResult, RuntimeError>)>,
    /// The billed global rounds, in order.
    pub rounds: Vec<RoundRecord>,
    /// Global round (0-based) in which each query released its last task.
    pub completion_round: BTreeMap<u64, usize>,
    /// Shared-HIT cost attributed per query, in cents. Sums exactly to
    /// [`platform_cents`](Self::platform_cents) — the conservation
    /// invariant.
    pub attributed_cents: BTreeMap<u64, u64>,
    /// Total platform spend on HITs, in cents.
    pub platform_cents: u64,
    /// Total HITs under the configured batching mode.
    pub total_hits: usize,
    /// Total HITs a per-query (unbatched) billing would have published —
    /// the baseline the HIT reduction is measured against.
    pub solo_hits: usize,
    /// Execution waves (1 unless admission queued queries).
    pub waves: usize,
    /// Frozen scheduler counters.
    pub metrics: SchedSnapshot,
}

impl SchedReport {
    /// Bindings-only rendering, byte-compatible with
    /// [`cdb_runtime::RuntimeReport::bindings_text`] — the artifact for
    /// comparing a scheduled run against a plain runtime run, or batching
    /// on against off.
    pub fn bindings_text(&self) -> String {
        cdb_runtime::bindings_text(
            self.results.iter().map(|(id, r)| (*id, r.as_ref().map(|q| &q.bindings))),
        )
    }

    /// Fraction of HITs saved versus per-query billing (0 when batching
    /// is off or nothing ran).
    pub fn hit_reduction(&self) -> f64 {
        if self.solo_hits == 0 {
            0.0
        } else {
            1.0 - self.total_hits as f64 / self.solo_hits as f64
        }
    }
}

/// Runs fleets of queries through admission, fair-share rounds and shared
/// HITs.
pub struct Scheduler {
    cfg: SchedConfig,
}

impl Scheduler {
    /// Build a scheduler from its configuration.
    pub fn new(cfg: SchedConfig) -> Self {
        Scheduler { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// Admit, execute and bill every submitted query. Submission order is
    /// the arrival order admission sees; execution and billing are then
    /// deterministic (and thread-count independent) given that order.
    pub fn run(&self, submissions: Vec<SchedJob>) -> SchedReport {
        let metrics = Arc::new(SchedMetrics::new());
        let trace = self
            .cfg
            .trace
            .clone()
            .and(&Trace::collector(Arc::clone(&metrics) as Arc<dyn cdb_obsv::Collector>));
        let redundancy = self.cfg.runtime.exec.redundancy;
        let price_cents = self.cfg.runtime.market.task_price_cents();

        // Admission pass, in arrival order.
        let mut ctl = AdmissionController::new(self.cfg.envelope);
        let mut decisions = Vec::new();
        let mut queued_jobs: BTreeMap<u64, QueryJob> = BTreeMap::new();
        let mut wave: Vec<(QueryRequest, QueryJob)> = Vec::new();
        for sub in submissions {
            let est = estimate(&sub.job.graph, redundancy, price_cents);
            let req = QueryRequest {
                query: sub.job.id,
                estimate: est,
                budget_cents: sub.budget_cents,
                deadline_rounds: sub.deadline_rounds,
            };
            let decision = ctl.offer(req);
            match decision {
                AdmissionDecision::Admitted => {
                    trace.emit(Event::instant(
                        SpanId::ROOT,
                        names::SCHED_ADMIT,
                        0,
                        kv![q => req.query, cents => est.cost_cents_upper],
                    ));
                    wave.push((req, sub.job));
                }
                AdmissionDecision::Queued { position } => {
                    trace.emit(Event::instant(
                        SpanId::ROOT,
                        names::SCHED_QUEUE,
                        0,
                        kv![q => req.query, n => position as u64],
                    ));
                    queued_jobs.insert(req.query, sub.job);
                }
                AdmissionDecision::Rejected(reason) => {
                    trace.emit(Event::instant(
                        SpanId::ROOT,
                        names::SCHED_REJECT,
                        0,
                        kv![q => req.query, kind => reason.kind()],
                    ));
                }
            }
            decisions.push((req.query, decision));
        }

        // Execute in waves; bill each wave's interleaved schedule.
        let executor = RuntimeExecutor::new(self.cfg.runtime.clone());
        let mut results: Vec<(u64, Result<QueryResult, RuntimeError>)> = Vec::new();
        let mut rounds: Vec<RoundRecord> = Vec::new();
        let mut completion_round = BTreeMap::new();
        let mut attributed_cents: BTreeMap<u64, u64> = BTreeMap::new();
        let mut platform_cents = 0u64;
        let mut total_hits = 0usize;
        let mut solo_hits = 0usize;
        let mut waves = 0usize;
        while !wave.is_empty() {
            waves += 1;
            let (reqs, jobs): (Vec<_>, Vec<_>) = wave.drain(..).unzip();
            let report = executor.run(jobs);
            let traces: Vec<(u64, Vec<usize>)> = report
                .results
                .iter()
                .filter_map(|(id, r)| r.as_ref().ok().map(|q| (*id, q.round_tasks.clone())))
                .collect();
            let (globals, finish) = schedule(&traces, self.cfg.drr);
            let base = rounds.len();
            for g in &globals {
                let rec = self.bill_round(&trace, g, base + g.index, redundancy);
                for &(q, c) in &rec.attributed {
                    *attributed_cents.entry(q).or_default() += c;
                }
                platform_cents += rec.cents;
                total_hits += rec.hits;
                solo_hits += rec.solo_hits;
                rounds.push(RoundRecord {
                    index: base + g.index,
                    contributions: g.contributions.clone(),
                    hits: rec.hits,
                    cents: rec.cents,
                });
            }
            for (q, r) in finish {
                completion_round.insert(q, base + r);
            }
            results.extend(report.results);
            for req in &reqs {
                ctl.complete(&req.estimate);
            }
            wave = ctl
                .admit_wave()
                .into_iter()
                .map(|req| {
                    trace.emit(Event::instant(
                        SpanId::ROOT,
                        names::SCHED_ADMIT,
                        0,
                        kv![q => req.query, cents => req.estimate.cost_cents_upper],
                    ));
                    let job = queued_jobs.remove(&req.query).expect("queued job exists");
                    (req, job)
                })
                .collect();
        }
        results.sort_by_key(|&(id, _)| id);
        SchedReport {
            decisions,
            results,
            rounds,
            completion_round,
            attributed_cents,
            platform_cents,
            total_hits,
            solo_hits,
            waves,
            metrics: metrics.snapshot(),
        }
    }

    /// Bill one global round: HIT counts under both modes, platform spend
    /// and per-query attribution under the configured mode, plus the
    /// `sched.cost` / `sched.round` events.
    fn bill_round(
        &self,
        trace: &Trace,
        g: &GlobalRound,
        index: usize,
        redundancy: usize,
    ) -> BilledRound {
        let tph = self.cfg.hit.tasks_per_hit;
        let solo_hits: usize = g.contributions.iter().map(|&(_, n)| n.div_ceil(tph)).sum();
        let (hits, attributed) = if self.cfg.batching {
            let shared = pack_shared(&g.contributions, self.cfg.hit);
            (shared.len(), attribute_shared_cents(&shared, self.cfg.hit, redundancy))
        } else {
            (
                solo_hits,
                g.contributions
                    .iter()
                    .map(|&(q, n)| (q, self.cfg.hit.hits_cost_cents(n.div_ceil(tph), redundancy)))
                    .collect(),
            )
        };
        let cents = self.cfg.hit.hits_cost_cents(hits, redundancy);
        debug_assert_eq!(
            attributed.iter().map(|&(_, c)| c).sum::<u64>(),
            cents,
            "attribution must conserve platform cents"
        );
        let at = index as u64;
        for (q, task_n) in &g.contributions {
            let c = attributed.iter().find(|&&(aq, _)| aq == *q).map(|&(_, c)| c).unwrap_or(0);
            trace.emit(Event::instant(
                SpanId::ROOT,
                names::SCHED_COST,
                at,
                kv![q => *q, round => at, n => *task_n as u64, cents => c],
            ));
        }
        trace.emit(Event::instant(
            SpanId::ROOT,
            names::SCHED_ROUND,
            at,
            kv![
                round => at,
                n => g.task_count() as u64,
                hits => hits as u64,
                cents => cents
            ],
        ));
        BilledRound { hits, solo_hits, cents, attributed }
    }
}

struct BilledRound {
    hits: usize,
    solo_hits: usize,
    cents: u64,
    attributed: Vec<(u64, u64)>,
}
