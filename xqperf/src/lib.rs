//! End-to-end and per-layer benchmark of the XQueC workspace.
//!
//! `xqperf --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and prints one JSON result line; see README.md.

pub mod inputs;
pub mod metrics;
pub mod oracle;
pub mod pager;
pub mod reference;
pub mod run;
pub mod stats;
pub mod trace;
pub mod wire;

use inputs::{INGEST_BYTES, PRIMARY_BYTES};
use oracle::Oracle;
use run::Workload;
use wire::Answers;

/// Every answer a run of `workload` with `seed` checks against, computed
/// apart from XQueC.
pub fn oracle_answers(workload: Workload, seed: u64) -> Result<Answers, String> {
    let mut a = Answers::default();
    let cycle_xml = inputs::xmark(workload.cycle_bytes(), seed);
    let o = Oracle::new(&cycle_xml)?;
    a.insert("cycle.catalog", oracle::catalog(&cycle_xml, &o)?);
    a.insert(
        "cycle.values",
        o.values_by_path()
            .into_iter()
            .map(|(path, vals)| {
                std::iter::once(path)
                    .chain(vals)
                    .collect::<Vec<_>>()
                    .join("\0")
            })
            .collect(),
    );
    let lookups = |o: &Oracle, bytes| {
        inputs::lookups(bytes, seed)
            .iter()
            .map(|q| o.lookup(q))
            .collect()
    };
    match workload {
        Workload::Ingest => a.insert("lookups", lookups(&o, INGEST_BYTES)),
        Workload::Catalog => {
            drop(o);
            let xml = inputs::xmark(PRIMARY_BYTES, seed);
            let o = Oracle::new(&xml)?;
            a.insert("lookups", lookups(&o, PRIMARY_BYTES));
            a.insert("catalog", oracle::catalog(&xml, &o)?);
        }
    }
    Ok(a)
}
