//! The served catalog: paper + award + movie merged into one `Database`
//! and one `QueryTruth` (their 12 table names are distinct).

use std::collections::BTreeSet;

use cdb_core::{build_query_graph, QueryTruth};
use cdb_datagen::{award_dataset, movie_dataset, paper_dataset, DatasetScale};
use cdb_storage::Database;

use crate::config::{CATALOG_SEED, SCALE};

/// Generate the three datasets and merge them.
pub fn build() -> (Database, QueryTruth) {
    let seed = CATALOG_SEED;
    let mut db = Database::new();
    let mut truth = QueryTruth::default();
    for ds in [
        paper_dataset(DatasetScale::paper_full().scaled(SCALE), seed),
        award_dataset(DatasetScale::award_full().scaled(SCALE), seed),
        movie_dataset(DatasetScale::movie_full().scaled(SCALE), seed),
    ] {
        for t in ds.db.tables() {
            db.add_table(t.clone()).expect("dataset table names are distinct");
        }
        truth.joins.extend(ds.truth.joins);
        truth.selections.extend(ds.truth.selections);
    }
    (db, truth)
}

/// What the answer check needs to know about one SQL text, computed in
/// process exactly as the server plans it.
pub struct Reference {
    /// The admission hold the server commits for the query.
    pub hold_cents: u64,
    /// The true answer bindings (node ids), the F-measure reference.
    pub answers: BTreeSet<Vec<u64>>,
}

/// Plan `sql` the way the server does and derive its reference answers.
pub fn reference(
    db: &Database,
    truth: &QueryTruth,
    cfg: &cdb_serve::ServeConfig,
    sql: &str,
) -> Reference {
    let cdb_cql::Statement::Select(q) = cdb_cql::parse(sql).expect("workload SQL parses") else {
        panic!("workload SQL must be a SELECT");
    };
    let analyzed = cdb_cql::analyze_select(&q, db).expect("workload SQL analyzes");
    let graph = build_query_graph(&analyzed, db, &cfg.build);
    let edge_truth = truth.edge_truth(&graph);
    let estimate = cdb_core::cost::estimate::estimate(
        &graph,
        cfg.runtime.exec.redundancy,
        cfg.task_price_cents,
    );
    let answers = cdb_core::executor::true_answers(&graph, &edge_truth)
        .into_iter()
        .map(|c| c.binding.iter().map(|n| n.0 as u64).collect())
        .collect();
    Reference { hold_cents: estimate.cost_cents_upper, answers }
}
