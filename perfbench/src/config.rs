//! The benchmark's fixed configuration: catalog scale, server settings,
//! tenant envelopes, workload query sets and the `mixed` arrival rate.
//! Everything a result depends on besides the workload seed lives here and
//! is echoed in the configuration block every run prints.

use cdb_runtime::RetryPolicy;
use cdb_sched::Envelope;
use cdb_serve::ServeConfig;

/// Catalog scale: 1/10 of the Table 2–3 cardinalities (`figures perf`).
pub const SCALE: usize = 10;

/// Seed of the generated catalog. The catalog is fixed configuration, like
/// its scale; the workload seed drives the simulated crowd (the server's
/// runtime seed).
pub const CATALOG_SEED: u64 = 42;

/// A workload seed no tuning run uses; a performance claim is re-checked
/// on it.
pub const CLAIM_CHECK_SEED: u64 = 9_001;

/// The retry policy `figures serve`, `runtime` and `shard` use. The
/// shipped default exhausts retries on most Table-4 queries.
pub const RETRY: RetryPolicy = RetryPolicy { deadline_ms: 300_000, max_retries: 8 };

/// Every tenant's envelope. Wallets keep actual spend committed, so the
/// budget must cover a whole run's spend: 10^12 cents is several orders of
/// magnitude above the largest run (about 10^7 cents on `selections`).
pub const ENVELOPE: Envelope =
    Envelope { budget_cents: 1_000_000_000_000, max_active: 8, queue_capacity: 1_024 };

/// Per-query money cap in the submission; above every query's hold.
pub const QUERY_BUDGET_CENTS: u64 = 1_000_000_000;

/// `mixed`: fixed arrival rate of heavy Table-4 queries, per second.
pub const HEAVY_RATE: f64 = 0.5;

/// `mixed`: light queries per heavy one in the single-client and traced
/// replays.
pub const LIGHT_PER_HEAVY: usize = 100;

/// Light tenants in `mixed`, used round-robin.
pub const MIXED_LIGHT_TENANTS: usize = 8;

/// Tenants in `selections`, used round-robin.
pub const SELECTION_TENANTS: usize = 16;

/// Client threads: the load comes from one process with at most `nproc`.
pub const CLIENTS: usize = 2;

/// Server starts per run; `setup_s` is their median.
pub const SETUPS: usize = 21;

/// Seconds a run may overrun its window before unfinished queries count
/// as failed and the server is stopped.
pub const GRACE_SECS: u64 = 60;

/// Execution threads of the server: one per core.
pub fn exec_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The server configuration for a workload seed.
pub fn serve_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::default();
    cfg.runtime.seed = seed;
    cfg.runtime.retry = RETRY;
    cfg.exec_threads = exec_threads();
    cfg.default_envelope = ENVELOPE;
    cfg.round_delay_ms = 0;
    cfg
}

/// One query a workload submits.
#[derive(Debug, Clone)]
pub struct Query {
    /// `dataset/label`, e.g. `award/3J`, or `sel/<column>`.
    pub name: String,
    /// The CQL text.
    pub sql: String,
    /// Whether the query has a CROWDJOIN (the heavy class in `mixed`).
    pub heavy: bool,
}

/// The 15 Table-4 queries: paper, award, movie × 2J/2J1S/3J/3J1S/3J2S.
pub fn table4_queries() -> Vec<Query> {
    ["paper", "award", "movie"]
        .iter()
        .flat_map(|ds| {
            cdb_datagen::queries_for(ds).into_iter().map(move |q| Query {
                name: format!("{ds}/{}", q.label),
                sql: q.cql,
                heavy: true,
            })
        })
        .collect()
}

/// Five single-table CROWDEQUAL selections, one per selected column that
/// the Table-4 queries use.
pub fn selection_queries() -> Vec<Query> {
    [
        ("University", "name", "country", "USA"),
        ("Paper", "title", "conference", "sigmod"),
        ("City", "birthplace", "country", "USA"),
        ("Movie", "title", "genre", "drama"),
        ("Studio", "name", "country", "USA"),
    ]
    .iter()
    .map(|(table, out, col, lit)| Query {
        name: format!("sel/{table}.{col}"),
        sql: format!("SELECT {table}.{out} FROM {table} WHERE {table}.{col} CROWDEQUAL \"{lit}\""),
        heavy: false,
    })
    .collect()
}
