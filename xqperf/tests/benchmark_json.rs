//! BENCHMARK.json names exactly the workloads and metrics the runs print.

use xqperf::metrics::spec;
use xqperf::run::Workload;
use xquec_obs::json::Json;

fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(a)) => a,
        _ => panic!("BENCHMARK.json lacks the list {key}"),
    }
}

fn names_units(j: &Json, key: &str) -> Vec<(String, String)> {
    list(j, key)
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_owned();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let j = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    // BENCHMARK.json names exactly the workloads the command runs, in the
    // command's order.
    let workloads: Vec<&str> = list(&j, "workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    let owned = |v: Vec<(String, &str)>| {
        v.into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect::<Vec<_>>()
    };
    assert_eq!(names_units(&j, "end_to_end"), owned(spec(false)));
    assert_eq!(names_units(&j, "per_layer"), owned(spec(true)));
}
