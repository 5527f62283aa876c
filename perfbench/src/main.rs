//! Served-path benchmark for CDB.
//!
//! Starts `cdb-serve` (through `cdb_serve::start`, in a child process),
//! drives it over loopback HTTP with `cdb_serve::Client`, checks every
//! answer, and prints the end-to-end metrics. With `--trace 1` it prints
//! the per-layer metrics instead, from a traced in-process replay of the
//! same queries plus an untraced served run.
//!
//! ```text
//! cdb-perfbench --workload table4|selections|mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod catalog;
mod check;
mod config;
mod load;
mod server;
mod traced;

use std::sync::Arc;
use std::time::{Duration, Instant};

use cdb_serve::{percentile, Client, StreamEvent};

use crate::config::{Query, CLIENTS, GRACE_SECS, HEAVY_RATE, LIGHT_PER_HEAVY, SETUPS};
use crate::load::{ms, Closed, Due, Record};
use crate::server::ServerProcess;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    /// Closed loop, 2 clients cycling the 15 Table-4 queries.
    Table4,
    /// Closed loop, 2 clients cycling 5 single-table selections.
    Selections,
    /// Closed loop, 2 clients cycling light selections; one of them also
    /// sends Table-4 queries at a fixed rate.
    Mixed,
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: cdb-perfbench --workload table4|selections|mixed --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_opts(args: &[String]) -> Option<Opts> {
    let workload = match flag(args, "--workload")? {
        "table4" => Workload::Table4,
        "selections" => Workload::Selections,
        "mixed" => Workload::Mixed,
        _ => return None,
    };
    let seconds: f64 = flag(args, "--seconds")?.parse().ok()?;
    Some(Opts {
        workload,
        seed: flag(args, "--seed")?.parse().ok()?,
        seconds: seconds.max(1.0),
        trace: match flag(args, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            _ => return None,
        },
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        let Some(seed) = flag(&args, "--seed").and_then(|s| s.parse().ok()) else { usage() };
        server::serve_child(seed);
        return;
    }
    let Some(opts) = parse_opts(&args) else { usage() };
    match run(&opts) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("cdb-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// What one workload sends.
struct Plan {
    queries: Arc<Vec<Query>>,
    /// Unmeasured queries sent before the timed window.
    warmup: Vec<(usize, String)>,
    /// The sequence the single-client and traced passes replay.
    replay: Vec<(usize, String)>,
    closed: Closed,
    /// The measured window.
    window: Duration,
    /// `peak_rss_mb` is read once this many measured queries are done, so
    /// that it does not grow with throughput (the registry keeps every
    /// query).
    rss_at: usize,
}

fn names(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i:02}")).collect()
}

fn plan(opts: &Opts) -> Plan {
    let heavy = config::table4_queries();
    let light = config::selection_queries();
    let (n_heavy, n_light) = (heavy.len(), light.len());
    let seconds = Duration::from_secs_f64(opts.seconds);
    match opts.workload {
        Workload::Table4 => Plan {
            replay: (0..n_heavy).map(|k| (k, "table4".to_string())).collect(),
            queries: Arc::new(heavy),
            warmup: Vec::new(),
            closed: Closed {
                cycle: (0..n_heavy).collect(),
                tenants: vec!["table4".into()],
                clients: CLIENTS,
                scheduled: Vec::new(),
            },
            window: seconds,
            rss_at: 90,
        },
        Workload::Selections => {
            let tenants = names("sel", config::SELECTION_TENANTS);
            Plan {
                warmup: (0..200).map(|i| (i % n_light, "warmup".to_string())).collect(),
                replay: (0..1000)
                    .map(|i| (i % n_light, tenants[i % tenants.len()].clone()))
                    .collect(),
                queries: Arc::new(light),
                closed: Closed {
                    cycle: (0..n_light).collect(),
                    tenants,
                    clients: CLIENTS,
                    scheduled: Vec::new(),
                },
                window: seconds,
                rss_at: 10_000,
            }
        }
        Workload::Mixed => {
            // Light selections back to back on both connections; heavy
            // queries at a fixed rate, in whole cycles of the 15, on the
            // first one.
            let cycles = (opts.seconds * HEAVY_RATE / n_heavy as f64).round().max(1.0) as usize;
            let window = Duration::from_secs_f64((cycles * n_heavy) as f64 / HEAVY_RATE);
            let heavy_due: Vec<Due> = (0..cycles * n_heavy)
                .map(|j| Due {
                    at: Duration::from_secs_f64(j as f64 / HEAVY_RATE),
                    query: j % n_heavy,
                    tenant: "heavy".into(),
                })
                .collect();
            let tenants = names("light", config::MIXED_LIGHT_TENANTS);
            let per_heavy = LIGHT_PER_HEAVY;
            let replay = (0..n_heavy)
                .flat_map(|j| {
                    let lights = (j * per_heavy..(j + 1) * per_heavy)
                        .map(|i| (n_heavy + i % n_light, tenants[i % tenants.len()].clone()));
                    std::iter::once((j, "heavy".to_string())).chain(lights).collect::<Vec<_>>()
                })
                .collect();
            let mut queries = heavy;
            queries.extend(light);
            Plan {
                warmup: (0..100).map(|i| (n_heavy + i % n_light, "warmup".into())).collect(),
                replay,
                queries: Arc::new(queries),
                closed: Closed {
                    cycle: (n_heavy..n_heavy + n_light).collect(),
                    tenants,
                    clients: CLIENTS,
                    scheduled: heavy_due,
                },
                window,
                rss_at: 5_000,
            }
        }
    }
}

/// The host and configuration block printed with every result.
fn config_block(opts: &Opts) -> String {
    let cfg = config::serve_config(opts.seed);
    let e = config::ENVELOPE;
    format!(
        "{{\"host\": {{\"nproc\": {}, \"profile\": \"{}\", \"rustc\": \"{}\"}}, \
         \"workload\": \"{:?}\", \"seed\": {}, \"claim_check_seed\": {}, \"catalog_seed\": {}, \
         \"scale\": \"1/{}\", \
         \"seconds\": {}, \"trace\": {}, \"exec_threads\": {}, \"clients\": {CLIENTS}, \
         \"retry\": {{\"deadline_ms\": {}, \"max_retries\": {}}}, \
         \"envelope\": {{\"budget_cents\": {}, \"max_active\": {}, \"queue_capacity\": {}}}, \
         \"query_budget_cents\": {}, \"task_price_cents\": {}, \"redundancy\": {}, \
         \"round_delay_ms\": {}, \"mixed\": {{\"heavy_rate_per_s\": {HEAVY_RATE}, \
         \"light_clients\": {CLIENTS}}}}}",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()).trim(),
        opts.workload,
        opts.seed,
        config::CLAIM_CHECK_SEED,
        config::CATALOG_SEED,
        config::SCALE,
        opts.seconds,
        u8::from(opts.trace),
        cfg.exec_threads,
        cfg.runtime.retry.deadline_ms,
        cfg.runtime.retry.max_retries,
        e.budget_cents,
        e.max_active,
        e.queue_capacity,
        config::QUERY_BUDGET_CENTS,
        cfg.task_price_cents,
        cfg.runtime.exec.redundancy,
        cfg.round_delay_ms,
    )
}

/// A metric value with its unit, in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            // JSON has no NaN: a run with nothing to measure reports 0
            // (and has failed its checks already).
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Read a counter from Prometheus text (sum over label sets).
fn prom_counter(text: &str, name: &str, label: Option<&str>) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| l.split(['{', ' ']).next() == Some(name))
        .filter(|l| label.is_none_or(|lab| l.contains(lab)))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Steal and total jiffies of all CPUs, from `/proc/stat` (Linux only).
fn cpu_steal() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn run(opts: &Opts) -> Result<String, String> {
    println!("# config {}", config_block(opts));
    let plan = plan(opts);
    let cfg = config::serve_config(opts.seed);
    let (db, truth) = catalog::build();
    let is_mixed = opts.workload == Workload::Mixed;

    let (mut server, setups) = ServerProcess::start_several(opts.seed, SETUPS)
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr;

    // The single-client pass runs first, on a fresh server, so its query
    // ids match the traced replay's and both do the same crowd work.
    let single =
        if opts.trace { load::sequential(addr, &plan.queries, &plan.replay) } else { Vec::new() };
    let mut records = load::sequential(addr, &plan.queries, &plan.warmup);
    records.extend(single);
    let rss_before = server.memory_mb("VmRSS").unwrap_or(0.0);

    let mut load = load::Load::new();
    let secs = plan.window.as_secs_f64();
    load::closed_loop(&mut load, addr, Arc::clone(&plan.queries), plan.closed.clone(), secs);
    let steal_before = cpu_steal();
    let cpu_before = server.cpu_s();
    let deadline = Instant::now() + plan.window + Duration::from_secs(GRACE_SECS);
    let mut aborted = false;
    let mut peak_rss_mb = None;
    while !load.finished() {
        if Instant::now() > deadline {
            load.abort();
            server.kill();
            aborted = true;
            break;
        }
        if peak_rss_mb.is_none() && load.done() >= plan.rss_at {
            peak_rss_mb = server.memory_mb("VmHWM");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let run_records = load.join();
    let server_cpu_s = match (cpu_before, server.cpu_s()) {
        (Some(a), Some(b)) => b - a,
        _ => f64::NAN,
    };
    if aborted {
        eprintln!("# run overran its deadline: server stopped, unfinished queries failed");
    }
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, cpu_steal()) {
        println!(
            "# host: {:.1}% of CPU time stolen by the hypervisor during the run",
            100.0 * (s1 - s0) / (t1 - t0).max(1.0)
        );
    }
    let peak_rss_mb = peak_rss_mb.or_else(|| {
        eprintln!("# fewer than {} queries completed: peak RSS read at the end", plan.rss_at);
        server.memory_mb("VmHWM")
    });
    let peak_rss_mb = peak_rss_mb.unwrap_or(0.0);
    let rss_after = server.memory_mb("VmRSS").unwrap_or(0.0);
    let mut client = Client::new(addr);
    let prom = if aborted { String::new() } else { client.metrics().unwrap_or_default() };

    let measured_n = run_records.len();
    records.extend(run_records);
    let checked =
        check::check(&records, &plan.queries, &db, &truth, &cfg, (!aborted).then_some(&mut client));
    server.stop();
    for v in checked.violations.iter().take(20) {
        eprintln!("# check: {v}");
    }

    // ---- end-to-end metrics (untraced served run) --------------------
    let measured: Vec<&Record> = records.iter().filter(|r| r.measured).collect();
    let ok: Vec<&Record> = measured.iter().copied().filter(|r| r.completed()).collect();
    // The latency class: light queries in `mixed`, every query elsewhere.
    let class: Vec<&Record> = ok.iter().copied().filter(|r| !is_mixed || !r.heavy).collect();
    let lat_all: Vec<f64> = class.iter().filter_map(|r| r.latency_ms()).collect();
    let first_all: Vec<f64> =
        class.iter().filter_map(|r| r.first_round.map(|f| ms(f - r.due))).collect();
    let heavy_lat: Vec<f64> = if is_mixed {
        ok.iter().filter(|r| r.heavy).filter_map(|r| r.latency_ms()).collect()
    } else {
        lat_all.clone()
    };
    let t_first = measured.iter().map(|r| r.sent).min().unwrap_or_else(Instant::now);
    let t_last = measured.iter().filter_map(|r| r.done).max().unwrap_or(t_first);
    let wall_s = (t_last - t_first).as_secs_f64();
    let rounds: Vec<f64> = ok
        .iter()
        .filter_map(|r| match r.events.last() {
            Some(StreamEvent::Done { rounds, .. }) => Some(*rounds as f64),
            _ => None,
        })
        .collect();
    let attempted = measured.len();
    let failed = checked.failed;
    let setup_s = percentile(&setups, 0.5);

    eprintln!(
        "# {:?}: {attempted} measured queries ({} completed, {failed} failed) in {wall_s:.2} s; \
         {} latency samples; oracle re-executed {} streams; setups {:?}",
        opts.workload,
        ok.len(),
        lat_all.len(),
        checked.oracle_streams,
        setups.iter().map(|s| format!("{:.4}", s)).collect::<Vec<_>>()
    );
    if opts.workload == Workload::Selections {
        let k = measured_n.max(1) as f64 / 1000.0;
        eprintln!(
            "# defect (ungated): the registry keeps every finished query: server RSS grew \
             {:.3} MB per 1k queries ({rss_before:.1} -> {rss_after:.1} MB over {measured_n})",
            (rss_after - rss_before) / k
        );
    }

    // Ungated: on a shared 2-vCPU host the p99 of a closed loop swings
    // with the hypervisor's scheduling far beyond any usable bound.
    println!(
        "# diagnostic latency_p99_ms = {} ms over {} samples",
        percentile(&lat_all, 0.99),
        lat_all.len()
    );
    let metrics: Metrics = if !opts.trace {
        vec![
            ("qps", ok.len() as f64 / wall_s, "1/s"),
            ("latency_p50_ms", percentile(&lat_all, 0.5), "ms"),
            ("latency_p90_ms", percentile(&lat_all, 0.9), "ms"),
            ("heavy_latency_p50_ms", percentile(&heavy_lat, 0.5), "ms"),
            ("first_binding_p50_ms", percentile(&first_all, 0.5), "ms"),
            ("ok_share", 1.0 - failed as f64 / attempted.max(1) as f64, "ratio"),
            ("cents_per_query", checked.spent_cents as f64 / ok.len().max(1) as f64, "cents"),
            ("rounds_per_query", mean(&rounds), "rounds"),
            ("f1", checked.f1, "ratio"),
            ("server_cpu_ms_per_query", 1e3 * server_cpu_s / ok.len().max(1) as f64, "ms"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    } else {
        per_layer(opts, &plan, &db, &truth, &cfg, &records, &prom)
    };
    for (name, v, unit) in &metrics {
        println!("# metric {name} = {v} {unit}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        checked.violations.is_empty() && !aborted,
        metrics_json(&metrics)
    ))
}

/// The per-layer metrics: client-side splits and traffic properties from
/// the served run, layer times and counts from the traced replay.
fn per_layer(
    opts: &Opts,
    plan: &Plan,
    db: &cdb_storage::Database,
    truth: &cdb_core::QueryTruth,
    cfg: &cdb_serve::ServeConfig,
    records: &[Record],
    prom: &str,
) -> Metrics {
    let is_mixed = opts.workload == Workload::Mixed;
    let measured: Vec<&Record> = records.iter().filter(|r| r.measured).collect();
    let ok: Vec<&Record> =
        measured.iter().copied().filter(|r| r.completed() && (!is_mixed || !r.heavy)).collect();
    let post: Vec<f64> = ok.iter().map(|r| ms(r.posted - r.sent)).collect();
    let stream: Vec<f64> = ok.iter().filter_map(|r| r.done.map(|d| ms(d - r.posted))).collect();
    let latency: Vec<f64> = ok.iter().filter_map(|r| r.latency_ms()).collect();
    // Generator lateness of the scheduled (heavy) queries of `mixed`; the
    // closed loops send when they are due by construction.
    let late: Vec<f64> = measured
        .iter()
        .filter(|r| is_mixed && r.heavy)
        .map(|r| ms(r.sent.saturating_duration_since(r.due)))
        .collect();
    let count = |d: &str| measured.iter().filter(|r| r.decision == d).count() as f64;
    let light_share =
        measured.iter().filter(|r| !r.heavy).count() as f64 / measured.len().max(1) as f64;

    // CROWDJOIN evaluations in the served run whose join key was already
    // evaluated earlier in the run (what a join-pair cache could reuse).
    let keys: Vec<Vec<String>> =
        plan.queries.iter().map(|q| traced::join_keys(db, cfg, &q.sql)).collect();
    let mut in_order = measured.clone();
    in_order.sort_by_key(|r| r.sent);
    let mut seen = std::collections::BTreeSet::new();
    let (mut evals, mut repeats) = (0u64, 0u64);
    for r in in_order {
        for k in &keys[r.query] {
            evals += 1;
            repeats += u64::from(!seen.insert(k));
        }
    }

    // The single-client served pass (unmeasured, ids 0..n, first on the
    // server) against the in-process replay of the same sequence.
    let single: Vec<f64> = records
        .iter()
        .filter(|r| !r.measured && r.tenant != "warmup" && r.completed())
        .map(|r| ms(r.done.expect("completed") - r.sent))
        .collect();
    let untraced = traced::replay(db, truth, cfg, &plan.queries, &plan.replay, false, false);
    let keep = opts.workload == Workload::Table4;
    let pass = traced::replay(db, truth, cfg, &plan.queries, &plan.replay, true, keep);
    let n = pass.counts.queries.max(1) as f64;
    let per_ms = |ns: u64| ns as f64 / 1e6 / n;
    let per_us = |ns: u64| ns as f64 / 1e3 / n;
    let report = pass.profile.as_ref().expect("traced pass");
    let phase = |name: &str| traced::phase_ns(report, name);
    let selfs = traced::self_times(&pass);
    let self_sum: i64 = selfs.values().sum();
    let calls_total = pass.calls.sum();
    eprintln!("# traced pass: {} queries, layer self-times (ms per query):", pass.counts.queries);
    for (layer, ns) in &selfs {
        eprintln!("#   {layer:<22} {:>10.4}", *ns as f64 / 1e6 / n);
    }
    eprintln!(
        "#   sum {:.4} ms of {:.4} ms traced per query; single-client served {:.4} ms",
        self_sum as f64 / 1e6 / n,
        per_ms(calls_total),
        mean(&single)
    );
    if pass.counts.failed + untraced.counts.failed > 0 {
        eprintln!("# traced pass: {} queries failed", pass.counts.failed);
    }
    if keep {
        let mut dcfg = cfg.clone();
        dcfg.runtime.retry = cdb_runtime::RetryPolicy::default();
        let plans = pass.plans.clone();
        let total = plans.len();
        let failed = traced::count_failures(&dcfg, plans);
        eprintln!(
            "# defect (ungated): under RetryPolicy::default() {failed} of {total} Table-4 \
             queries fail with retry exhaustion (seed {}, ids 0-{})",
            opts.seed,
            total - 1
        );
    }
    let c = &pass.counts;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        ("serve.post_p50_ms", percentile(&post, 0.5), "ms"),
        ("serve.post_p90_ms", percentile(&post, 0.9), "ms"),
        ("serve.stream_p50_ms", percentile(&stream, 0.5), "ms"),
        ("serve.stream_p90_ms", percentile(&stream, 0.9), "ms"),
        ("serve.latency_p99_ms", percentile(&latency, 0.99), "ms"),
        ("serve.overhead_ms", mean(&single) - per_ms(calls_total), "ms"),
        ("cql.parse_us", per_us(pass.calls.parse), "us"),
        ("cql.analyze_us", per_us(pass.calls.analyze), "us"),
        ("core.graph_build_ms", per_ms(pass.calls.build), "ms"),
        ("similarity.join_ms", per_ms(phase("similarity.join")), "ms"),
        ("core.graph_edges", c.graph_edges as f64 / n, "count"),
        ("similarity.pairs_compared", c.pairs_compared as f64 / n, "count"),
        ("similarity.edge_yield", ratio(c.join_edges, c.pairs_compared), "ratio"),
        ("core.join_repeat_share", ratio(repeats, evals), "ratio"),
        ("core.edge_truth_ms", per_ms(pass.calls.edge_truth), "ms"),
        ("core.estimate_us", per_us(pass.calls.estimate), "us"),
        ("core.estimate_ratio", ratio(c.actual_cents, c.hold_cents), "ratio"),
        ("sched.admit_us", per_us(pass.calls.admit), "us"),
        ("sched.admitted", count("admitted"), "count"),
        ("sched.queued", count("queued"), "count"),
        (
            "sched.rejected",
            prom_counter(prom, "cdb_serve_queries_total", Some("state=\"rejected\"")),
            "count",
        ),
        ("runtime.execute_ms", per_ms(pass.calls.execute), "ms"),
        ("task.select_ms", per_ms(phase("task.select")), "ms"),
        ("select.candidates_ms", per_ms(phase("select.candidates")), "ms"),
        ("select.expectation_ms", per_ms(phase("select.expectation")), "ms"),
        ("runtime.tasks_per_edge", ratio(c.tasks, c.graph_edges), "ratio"),
        ("round.dispatch_ms", per_ms(phase("round.dispatch")), "ms"),
        ("crowd.assignments", c.assignments as f64 / n, "count"),
        ("crowd.retries", prom_counter(prom, "cdb_retries_total", None), "count"),
        ("crowd.timeouts", prom_counter(prom, "cdb_timeouts_total", None), "count"),
        ("crowd.useful_share", ratio(c.assignments, c.dispatched), "ratio"),
        ("quality.infer_ms", per_ms(phase("quality.infer")), "ms"),
        ("entail.resolve_ms", per_ms(phase("entail.resolve")), "ms"),
        ("prune_ms", per_ms(phase("prune")), "ms"),
        ("stream.encode_us", per_us(pass.calls.hook_encode + pass.calls.encode_done), "us"),
        (
            "trace.overhead_share",
            pass.wall_ns as f64 / untraced.wall_ns.max(1) as f64 - 1.0,
            "ratio",
        ),
        ("trace.unattributed_share", 1.0 - self_sum as f64 / pass.wall_ns.max(1) as f64, "ratio"),
        ("traffic.light_share", light_share, "ratio"),
        ("loadgen.late_p99_ms", percentile(&late, 0.99), "ms"),
    ]
}
