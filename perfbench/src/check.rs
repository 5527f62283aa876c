//! Answer checks, run after the timed window: every stream is checked for
//! a clean end, duplicate bindings and a consistent binding count; a
//! sample of each SQL's streams is re-executed in process with
//! `cdb_serve::verify_streams`; every tenant ledger must balance; and the
//! F-measure is scored against the true answers.

use std::collections::{BTreeMap, BTreeSet};

use cdb_core::QueryTruth;
use cdb_serve::{Client, ServeConfig, StreamEvent};
use cdb_storage::Database;

use crate::catalog::{self, Reference};
use crate::config::Query;
use crate::load::Record;

/// Streams per SQL that the in-process oracle re-executes.
const ORACLE_SAMPLE: usize = 2;

/// What the checks found.
#[derive(Debug, Default)]
pub struct Checked {
    /// Measured queries that failed or broke a check.
    pub failed: usize,
    /// One line per violation, for the log.
    pub violations: Vec<String>,
    /// Mean F-measure over measured completed queries.
    pub f1: f64,
    /// Cents the measured tenants spent, from their ledgers.
    pub spent_cents: u64,
    /// Streams the oracle re-executed.
    pub oracle_streams: u64,
}

/// Net bindings of a stream (round deltas minus retractions) and whether
/// any binding arrived twice.
fn net_bindings(events: &[StreamEvent]) -> (BTreeSet<Vec<u64>>, bool) {
    let mut net = BTreeSet::new();
    let mut dup = false;
    for e in events {
        match e {
            StreamEvent::Round { new, .. } => {
                for b in new {
                    dup |= !net.insert(b.clone());
                }
            }
            StreamEvent::Retract { bindings } => {
                for b in bindings {
                    net.remove(b);
                }
            }
            _ => {}
        }
    }
    (net, dup)
}

/// Run every check. `client` is `None` when the server is already gone
/// (an aborted run), in which case the ledgers cannot be read and every
/// unfinished query has already failed.
pub fn check(
    records: &[Record],
    queries: &[Query],
    db: &Database,
    truth: &QueryTruth,
    cfg: &ServeConfig,
    client: Option<&mut Client>,
) -> Checked {
    let used: BTreeSet<usize> = records.iter().map(|r| r.query).collect();
    let refs: BTreeMap<usize, Reference> = par_map(used.iter().copied().collect(), |k| {
        (k, catalog::reference(db, truth, cfg, &queries[k].sql))
    })
    .into_iter()
    .collect();

    let mut bad = vec![false; records.len()];
    let mut out = Checked::default();
    let mut f1_sum = 0.0;
    let mut f1_n = 0usize;
    for (i, r) in records.iter().enumerate() {
        if let Some(e) = &r.error {
            bad[i] = true;
            out.violations.push(format!("query {:?} ({}): {e}", r.id, queries[r.query].name));
            continue;
        }
        let (net, dup) = net_bindings(&r.events);
        let Some(StreamEvent::Done { bindings, .. }) = r.events.last() else {
            unreachable!("a record without an error ends in a done line")
        };
        if dup || net.len() as u64 != *bindings {
            bad[i] = true;
            out.violations.push(format!(
                "query {:?}: duplicated bindings or {} streamed vs {bindings} final",
                r.id,
                net.len()
            ));
            continue;
        }
        if r.measured {
            f1_sum += cdb_core::precision_recall(&net, &refs[&r.query].answers).f_measure;
            f1_n += 1;
        }
    }
    out.f1 = if f1_n == 0 { 0.0 } else { f1_sum / f1_n as f64 };

    // The oracle: re-execute an evenly spaced sample of each SQL's
    // completed streams with the server's exact configuration.
    let samples: Vec<(usize, Vec<usize>)> = used
        .iter()
        .map(|&k| {
            let idx: Vec<usize> =
                (0..records.len()).filter(|&i| !bad[i] && records[i].query == k).collect();
            let step = idx.len().div_ceil(ORACLE_SAMPLE).max(1);
            (k, idx.into_iter().step_by(step).collect())
        })
        .collect();
    let verdicts = par_map(samples, |(k, idx)| {
        let streams: BTreeMap<u64, Vec<StreamEvent>> = idx
            .iter()
            .map(|&i| (records[i].id.expect("completed"), records[i].events.clone()))
            .collect();
        let check = cdb_serve::verify_streams(db, truth, cfg, &queries[k].sql, &streams);
        (k, idx, check)
    });
    for (k, idx, check) in verdicts {
        out.oracle_streams += check.queries;
        if !check.clean() {
            out.violations.push(format!("oracle on {}: {check:?}", queries[k].name));
            idx.iter().for_each(|&i| bad[i] = true);
        }
    }

    // Ledgers: spent + refunded must equal what admission held, refunds
    // must match the streams, and nothing may stay committed but spend.
    if let Some(client) = client {
        let mut by_tenant: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, r) in records.iter().enumerate() {
            if r.id.is_some() {
                by_tenant.entry(&r.tenant).or_default().push(i);
            }
        }
        for (tenant, idx) in by_tenant {
            let held: u64 = idx.iter().map(|&i| refs[&records[i].query].hold_cents).sum();
            let streamed_refund: u64 = idx
                .iter()
                .map(|&i| match records[i].events.last() {
                    Some(StreamEvent::Done { refund_cents, .. }) => *refund_cents,
                    _ => refs[&records[i].query].hold_cents,
                })
                .sum();
            let ledger = client.tenant_status(tenant).ok().flatten();
            let field = |name: &str| {
                ledger.as_ref().and_then(|j| j.get(name)).and_then(|v| v.as_num()).map(|v| v as u64)
            };
            let (spent, refunded, committed) =
                (field("spent_cents"), field("refunded_cents"), field("committed_cents"));
            let balanced = matches!((spent, refunded, committed),
                (Some(s), Some(r), Some(c)) if s + r == held && r == streamed_refund && c == s);
            if !balanced {
                out.violations.push(format!(
                    "tenant {tenant}: held {held}, streamed refunds {streamed_refund}, \
                     ledger spent {spent:?} refunded {refunded:?} committed {committed:?}"
                ));
                idx.iter().for_each(|&i| bad[i] = true);
            }
            if idx.iter().any(|&i| records[i].measured) {
                out.spent_cents += spent.unwrap_or(0);
            }
        }
    }

    out.failed = records.iter().zip(&bad).filter(|(r, &b)| r.measured && b).count();
    out
}

/// Map `f` over `items`, one scoped thread per item, keeping the order.
fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items.into_iter().map(|t| s.spawn(move || f(t))).collect();
        handles.into_iter().map(|h| h.join().expect("check thread panicked")).collect()
    })
}
