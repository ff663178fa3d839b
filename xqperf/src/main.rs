//! Command line of the benchmark.
//!
//! * `xqperf --workload W --seed N --seconds S --trace 0|1` — one run: the
//!   oracle computes every answer first, then a separate workload process
//!   (so that its peak memory excludes the oracle's) runs and checks the
//!   workload. Prints one JSON result line.
//! * `xqperf spread --workload W --runs N [--seconds S] [--trace 0|1|both]
//!   [--first-seed N]` — N runs with seeds N, N+1, ...; prints each
//!   metric's median, quartiles and spread.
//! * `xqperf reference [--seed N]` — the one-off
//!   reference figures of README.md.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use xqperf::run::{self, Config, Workload};
use xqperf::stats::{median, quartiles};
use xqperf::wire::Answers;
use xquec_obs::json::Json;

const WORK_DIR: &str = ".xqperf_work";
const OUT_DIR: &str = ".xqperf_out";

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: xqperf --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         xqperf spread --workload <name> --runs <n> [--seconds <s>] [--trace <0|1|both>] [--first-seed <n>]\n       \
         xqperf reference [--seed <n>]",
        names.join("|")
    )
}

/// `--key value` pairs.
fn flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        out.push((key.to_owned(), v.clone()));
    }
    Ok(out)
}

fn flag<'a>(f: &'a [(String, String)], key: &str) -> Option<&'a str> {
    f.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn need<'a>(f: &'a [(String, String)], key: &str) -> Result<&'a str, String> {
    flag(f, key).ok_or_else(|| format!("missing --{key}"))
}

fn num<T: std::str::FromStr>(f: &[(String, String)], key: &str) -> Result<T, String> {
    need(f, key)?
        .parse()
        .map_err(|_| format!("--{key} must be a number"))
}

fn workload(f: &[(String, String)]) -> Result<Workload, String> {
    let w = need(f, "workload")?;
    Workload::parse(w).ok_or_else(|| format!("unknown workload {w}"))
}

fn trace_paths(w: Workload, seed: u64) -> (PathBuf, PathBuf) {
    let stem = format!("trace-{}-{seed}", w.name());
    let dir = Path::new(OUT_DIR);
    (
        dir.join(format!("{stem}.jsonl")),
        dir.join(format!("{stem}.summary.json")),
    )
}

/// One run: oracle here, workload in a child process.
fn run_once(f: &[(String, String)]) -> Result<String, String> {
    let w = workload(f)?;
    let seed: u64 = num(f, "seed")?;
    let seconds: f64 = num(f, "seconds")?;
    let trace = match need(f, "trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let dir = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = (|| {
        let t = Instant::now();
        let answers = xqperf::oracle_answers(w, seed)?;
        let path = dir.join("answers.bin");
        answers
            .write(&path)
            .map_err(|e| format!("write answers: {e}"))?;
        drop(answers);
        eprintln!(
            "xqperf: oracle answers for {} seed {seed} in {:.1} s",
            w.name(),
            t.elapsed().as_secs_f64()
        );
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let out = Command::new(exe)
            .args(["worker", "--workload", w.name()])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--answers")
            .arg(&path)
            .arg("--dir")
            .arg(&dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("start workload process: {e}"))?;
        if !out.status.success() {
            return Err(format!("workload process ended with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout
            .lines()
            .last()
            .map(str::to_owned)
            .ok_or_else(|| "workload printed no result".to_owned())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(WORK_DIR);
    result
}

/// The workload process.
fn worker(f: &[(String, String)]) -> Result<String, String> {
    let w = workload(f)?;
    let seed: u64 = num(f, "seed")?;
    let trace = need(f, "trace")? == "1";
    let (trace_file, summary) = trace_paths(w, seed);
    if trace {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    }
    let cfg = Config {
        workload: w,
        seed,
        seconds: num(f, "seconds")?,
        trace,
        dir: PathBuf::from(need(f, "dir")?),
        trace_file: trace.then_some(trace_file),
    };
    let answers =
        Answers::read(Path::new(need(f, "answers")?)).map_err(|e| format!("read answers: {e}"))?;
    let outcome = run::run(&cfg, &answers)?;
    if let Some(qps) = outcome.traced_queries_per_s {
        std::fs::write(&summary, format!("{{\"traced_queries_per_s\": {qps}}}\n"))
            .map_err(|e| format!("write {}: {e}", summary.display()))?;
    }
    outcome.values.result_line(
        &xqperf::metrics::spec(trace),
        outcome.correct,
        outcome.tally.attempted,
        outcome.tally.failed,
    )
}

/// Runs of one workload with consecutive seeds; per metric median,
/// quartiles and spread ((q3 - q1) / median).
fn spread(f: &[(String, String)]) -> Result<String, String> {
    let w = workload(f)?;
    let runs: u64 = num(f, "runs")?;
    let seconds = flag(f, "seconds").unwrap_or("10");
    let first: u64 = flag(f, "first-seed").map_or(Ok(1), |s| {
        s.parse().map_err(|_| "--first-seed must be a number")
    })?;
    let modes: &[&str] = match flag(f, "trace").unwrap_or("0") {
        "both" => &["0", "1"],
        "1" => &["1"],
        _ => &["0"],
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut report = String::new();
    let mut untraced_qps = Vec::new();
    let mut traced_qps = Vec::new();
    for &mode in modes {
        let mut rows: Vec<(String, String, Vec<f64>)> = Vec::new();
        let mut shares = Vec::new();
        for seed in first..first + runs {
            let t = Instant::now();
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    seconds,
                    "--trace",
                    mode,
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::null())
                .output()
                .map_err(|e| format!("start run: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let j = Json::parse(line)
                .map_err(|e| format!("seed {seed}: bad result line ({e:?}): {line}"))?;
            if !out.status.success() || j.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("seed {seed}: run failed or incorrect: {line}"));
            }
            let attempted = j
                .get("attempted")
                .and_then(Json::as_num)
                .unwrap_or(f64::NAN);
            let failed = j.get("failed").and_then(Json::as_num).unwrap_or(f64::NAN);
            shares.push(format!("{failed}/{attempted}"));
            if let Some(Json::Obj(metrics)) = j.get("metrics") {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::as_num).unwrap_or(f64::NAN);
                    let unit = m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_owned();
                    match rows.iter_mut().find(|(n, _, _)| n == name) {
                        Some(row) => row.2.push(value),
                        None => rows.push((name.clone(), unit, vec![value])),
                    }
                }
            }
            if mode == "1" {
                let summary = std::fs::read_to_string(trace_paths(w, seed).1).unwrap_or_default();
                if let Some(q) = Json::parse(&summary)
                    .ok()
                    .and_then(|j| j.get("traced_queries_per_s").and_then(Json::as_num))
                {
                    traced_qps.push(q);
                }
            }
            eprintln!(
                "xqperf spread: {} trace={mode} seed {seed}: {:.1} s",
                w.name(),
                t.elapsed().as_secs_f64()
            );
        }
        report.push_str(&format!(
            "\n{} --trace {mode}: {runs} runs, --seconds {seconds}, seeds {first}..={}\n",
            w.name(),
            first + runs - 1
        ));
        report.push_str(&format!(
            "{:<36} {:>6} {:>14} {:>14} {:>14} {:>8}\n",
            "metric", "unit", "median", "q1", "q3", "spread"
        ));
        for (name, unit, xs) in &rows {
            let med = median(xs);
            let (q1, _, q3) = quartiles(xs).unwrap_or((f64::NAN, med, f64::NAN));
            report.push_str(&format!(
                "{name:<36} {unit:>6} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}%\n",
                (q3 - q1) / med * 100.0
            ));
            if name == "queries_per_s" {
                untraced_qps.clone_from(xs);
            }
        }
        report.push_str(&format!("failed/attempted per run: {}\n", shares.join(" ")));
    }
    if !untraced_qps.is_empty() && !traced_qps.is_empty() {
        let (u, t) = (median(&untraced_qps), median(&traced_qps));
        report.push_str(&format!(
            "tracing overhead: {u:.3} queries/s untraced vs {t:.3} traced (median), {:.2}% slower\n",
            (1.0 - t / u) * 100.0
        ));
    }
    Ok(report)
}

fn reference(f: &[(String, String)]) -> Result<String, String> {
    let seed = flag(f, "seed")
        .map_or(Ok(1), str::parse)
        .map_err(|_| "--seed must be a number")?;
    let dir = Path::new(WORK_DIR).join(format!("reference-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let out = xqperf::reference::report(seed, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(WORK_DIR);
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => flags(&args[1..]).and_then(|f| worker(&f)),
        Some("spread") => flags(&args[1..]).and_then(|f| spread(&f)),
        Some("reference") => flags(&args[1..]).and_then(|f| reference(&f)),
        _ => flags(&args).and_then(|f| run_once(&f)),
    };
    match result {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xqperf: {e}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
