//! The oracle agrees with the Galax-like baseline, XQueC agrees with the
//! oracle, and a wrong answer is counted as a failed operation.

use xqperf::inputs::{lookups, Lookup, Shape};
use xqperf::oracle::{self, canonical, Oracle};
use xqperf::run::{catalog_queries, check_containers, lookup_queries, timed_loop, Tally};
use xquec_baselines::GalaxEngine;
use xquec_core::queries::{xmark_workload, XMARK_QUERIES};
use xquec_core::{load_with, Engine, LoaderOptions, Repository};

const SMALL: usize = 150_000;

fn small_doc() -> String {
    xqperf::inputs::xmark(SMALL, 5)
}

fn load(xml: &str) -> Repository {
    let opts = LoaderOptions {
        workload: Some(xmark_workload()),
        threads: 1,
        ..Default::default()
    };
    load_with(xml, &opts).expect("small document loads")
}

#[test]
fn oracle_answers_equal_galax_including_q8_q9_hash_joins() {
    let xml = small_doc();
    let o = Oracle::new(&xml).unwrap();
    let galax = GalaxEngine::load(&xml).unwrap();
    let answers = oracle::catalog(&xml, &o).unwrap();
    assert_eq!(answers.len(), XMARK_QUERIES.len());
    for (q, a) in XMARK_QUERIES.iter().zip(&answers) {
        let g = galax.run(q.text).unwrap();
        assert_eq!(*a, canonical(q.id, &g), "{} differs from Galax", q.id);
    }
    // The hand-written joins are compared with Galax's nested loops directly.
    let q = |id| xquec_core::queries::query(id).unwrap().text;
    assert_eq!(o.q8(), galax.run(q("Q8")).unwrap());
    assert_eq!(o.q9(), galax.run(q("Q9")).unwrap());
    assert!(
        o.q9().contains("<item>"),
        "the document has European purchases"
    );
}

#[test]
fn lookup_answers_equal_galax_and_xquec() {
    let xml = small_doc();
    let o = Oracle::new(&xml).unwrap();
    let galax = GalaxEngine::load(&xml).unwrap();
    let repo = load(&xml);
    let engine = Engine::new(&repo);
    let mut list = lookups(SMALL, 5);
    // Make sure present and absent ids both occur.
    list.push(Lookup {
        shape: Shape::PersonById,
        id: 1,
        lo: 0,
        hi: 0,
    });
    list.push(Lookup {
        shape: Shape::ItemById,
        id: 1_000_000,
        lo: 0,
        hi: 0,
    });
    let mut empty = 0;
    for l in &list {
        let want = o.lookup(l);
        empty += usize::from(want.is_empty());
        assert_eq!(want, galax.run(&l.text()).unwrap(), "{:?}", l);
        assert_eq!(want, engine.run(&l.text()).unwrap(), "{:?}", l);
    }
    assert!(
        empty > 0 && empty < list.len(),
        "{empty} of {} lookups are empty",
        list.len()
    );
}

#[test]
fn containers_hold_the_documents_values() {
    let xml = small_doc();
    let o = Oracle::new(&xml).unwrap();
    let repo = load(&xml);
    let mut expected: Vec<String> = o
        .values_by_path()
        .into_iter()
        .map(|(p, v)| std::iter::once(p).chain(v).collect::<Vec<_>>().join("\0"))
        .collect();
    check_containers(&repo, &expected).unwrap();
    // One value changed anywhere is caught.
    let i = expected
        .iter()
        .position(|e| e.contains("/site/people/person/name/text()"))
        .unwrap();
    expected[i].push('x');
    assert!(check_containers(&repo, &expected).is_err());
}

#[test]
fn a_corrupted_answer_counts_as_a_failed_operation() {
    let xml = small_doc();
    let o = Oracle::new(&xml).unwrap();
    let repo = load(&xml);
    let engine = Engine::new(&repo);
    let mut answers = oracle::catalog(&xml, &o).unwrap();

    let mut tally = Tally::default();
    let lat = timed_loop(&engine, &catalog_queries(&answers), 0.0, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (16, 0));
    assert!(lat.iter().all(|l| l.len() == 1));

    answers[3].push('1');
    let mut tally = Tally::default();
    timed_loop(&engine, &catalog_queries(&answers), 0.0, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (16, 1));

    let list = lookups(SMALL, 5);
    let mut want: Vec<String> = list.iter().map(|l| o.lookup(l)).collect();
    want[0] = format!("{}?", want[0]);
    let mut tally = Tally::default();
    timed_loop(&engine, &lookup_queries(&list, &want), 0.0, &mut tally);
    assert_eq!((tally.attempted, tally.failed), (list.len() as u64, 1));
}
