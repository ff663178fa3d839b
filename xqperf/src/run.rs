//! The workload process: set-up, the timed loop, and the checks of every
//! output against the oracle's answers.
//!
//! Everything here runs on one thread, and the loader runs with
//! `threads: 1`. Each end-to-end time is a median or a rate over many
//! repetitions within the run.

use crate::inputs::{self, Lookup, INGEST_BYTES, PRIMARY_BYTES, PROBE_BYTES};
use crate::metrics::Values;
use crate::oracle::canonical;
use crate::pager::{CountingPager, PageCounts};
use crate::stats::{geomean, median, percentile};
use crate::trace::Tracer;
use crate::wire::Answers;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use xquec_compress::{blz, CodecKind};
use xquec_core::queries::{xmark_workload, XMARK_QUERIES};
use xquec_core::{load_profiled, load_with, persist, query, Engine, LoaderOptions, Repository};
use xquec_storage::{FilePager, MemPager, Pager};
use xquec_xml::Reader;

/// Rounds per run of the 16 MB workload; each makes one set-up, and
/// `setup_s` is their median.
const PRIMARY_ROUNDS: usize = 4;
/// Set-ups per run of the ingest workload (document generation only).
const INGEST_SETUPS: usize = 9;
/// Fewest load → save → open cycles an ingest run makes.
const MIN_CYCLES: usize = 6;
/// Opens of the saved repository per cycle, each followed by a cold
/// catalog pass.
const OPENS_PER_CYCLE: usize = 4;
/// Repetitions of each measurement of the carry-over table.
const CARRYOVER_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Catalog,
    Ingest,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Catalog, Workload::Ingest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Catalog => "xmark16-catalog",
            Workload::Ingest => "xmark4-ingest",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Size of the document of the workload's load → save → open cycles.
    pub fn cycle_bytes(self) -> usize {
        match self {
            Workload::Catalog => PROBE_BYTES,
            Workload::Ingest => INGEST_BYTES,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the run's scratch files (the saved repository).
    pub dir: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_file: Option<PathBuf>,
}

/// Operations attempted and failed. A failed operation is one that
/// returned an error or whose output disagrees with the oracle.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("xqperf: {what} failed: {}", truncate(&e));
            }
        }
    }
}

fn truncate(s: &str) -> &str {
    match s.char_indices().nth(300) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// A query to run and the answer it must give.
#[derive(Debug, Clone)]
pub struct Query {
    /// Catalog id (`Q1`) or lookup shape name.
    pub label: String,
    pub text: String,
    pub expected: String,
}

impl Query {
    /// Compare an output with the expected answer.
    pub fn check(&self, out: Result<String, String>) -> Result<(), String> {
        let out = out?;
        if canonical(&self.label, &out) == self.expected {
            Ok(())
        } else {
            Err(format!(
                "{}: output ({} bytes) differs from the oracle's ({} bytes)",
                self.label,
                out.len(),
                self.expected.len()
            ))
        }
    }
}

pub fn catalog_queries(expected: &[String]) -> Vec<Query> {
    XMARK_QUERIES
        .iter()
        .zip(expected)
        .map(|(q, e)| Query {
            label: q.id.to_owned(),
            text: q.text.to_owned(),
            expected: e.clone(),
        })
        .collect()
}

pub fn lookup_queries(lookups: &[Lookup], expected: &[String]) -> Vec<Query> {
    lookups
        .iter()
        .zip(expected)
        .map(|(l, e)| Query {
            label: l.shape.name().to_owned(),
            text: l.text(),
            expected: e.clone(),
        })
        .collect()
}

fn loader_options() -> LoaderOptions {
    LoaderOptions {
        workload: Some(xmark_workload()),
        threads: 1,
        ..Default::default()
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run one query untraced; returns its latency in ms and the outcome.
fn run_query(engine: &Engine<'_>, q: &Query) -> (f64, Result<(), String>) {
    let t = Instant::now();
    let out = engine.run(black_box(&q.text));
    let ms = secs(t) * 1e3;
    (ms, q.check(out.map_err(|e| e.to_string())))
}

/// Whole rounds of `queries`, at least one, until `seconds` have passed.
/// Returns each query's latencies (ms), indexed like `queries`.
pub fn timed_loop(
    engine: &Engine<'_>,
    queries: &[Query],
    seconds: f64,
    tally: &mut Tally,
) -> Vec<Vec<f64>> {
    let mut lat = vec![Vec::new(); queries.len()];
    let start = Instant::now();
    loop {
        for (i, q) in queries.iter().enumerate() {
            let (ms, ok) = run_query(engine, q);
            lat[i].push(ms);
            tally.op(&q.label, ok);
        }
        if secs(start) >= seconds {
            return lat;
        }
    }
}

/// Latency figures of a loop: rate, geometric mean of the per-label
/// medians, p50 and p99 over every query.
fn latency_metrics(v: &mut Values, queries: &[Query], lat: &[Vec<f64>]) {
    let all: Vec<f64> = lat.iter().flatten().copied().collect();
    let mut labels: Vec<&str> = queries.iter().map(|q| q.label.as_str()).collect();
    labels.sort_unstable();
    labels.dedup();
    let medians: Vec<f64> = labels
        .iter()
        .map(|l| {
            let xs: Vec<f64> = queries
                .iter()
                .zip(lat)
                .filter(|(q, _)| q.label == *l)
                .flat_map(|(_, xs)| xs.iter().copied())
                .collect();
            median(&xs)
        })
        .collect();
    v.set("queries_per_s", rate(lat));
    v.set("query_geomean_ms", geomean(&medians));
    v.set("query_p50_ms", percentile(&all, 50.0));
    v.set("query_p99_ms", percentile(&all, 99.0));
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Check that every container decompresses to exactly the values found at
/// its path in the parsed document, and that no path lost its values.
pub fn check_containers(repo: &Repository, expected: &[String]) -> Result<(), String> {
    let mut want: std::collections::BTreeMap<&str, Vec<&str>> = expected
        .iter()
        .map(|e| {
            let mut parts = e.split('\0');
            let path = parts.next().unwrap_or_default();
            (path, parts.collect())
        })
        .collect();
    for c in &repo.containers {
        let path = repo.container_path_string(c.id);
        let mut got = c.decompress_all().map_err(|e| e.to_string())?;
        got.sort_unstable();
        let want_vals = want
            .remove(path.as_str())
            .ok_or_else(|| format!("no document values at {path}"))?;
        if got.len() != want_vals.len() || got.iter().zip(&want_vals).any(|(g, w)| g != w) {
            return Err(format!(
                "container {path}: values differ from the document's"
            ));
        }
    }
    match want.keys().next() {
        Some(path) => Err(format!("document values at {path} are in no container")),
        None => Ok(()),
    }
}

/// Figures of one cycle: load, save, then [`OPENS_PER_CYCLE`] times open
/// and a cold catalog pass on a fresh engine over the repository just
/// opened.
struct Cycle {
    load_s: f64,
    save_s: f64,
    open_s: Vec<f64>,
    /// Wall time of each cold pass, `Engine::new` included (ms).
    cold_ms: Vec<f64>,
    /// Each cold pass's per-query latencies (ms), in catalog order.
    cold_lat: Vec<Vec<f64>>,
    repo_bytes: usize,
    stored_bytes: u64,
    /// Traced runs only.
    traced: Option<TracedCycle>,
    /// The last reopened repository (kept for the last cycle only).
    reopened: Option<Repository>,
}

struct TracedCycle {
    phases: Vec<(&'static str, f64)>,
    save_cpu_s: f64,
    pages_written: u64,
    bytes_written: u64,
    syncs: u64,
    /// Pages read by one open.
    pages_read: u64,
    passes: Vec<PassTotals>,
}

fn remove_store(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(xquec_storage::wal::wal_path(path));
}

/// A traced load: its length and the loader's phase times.
type Phases = Vec<(&'static str, f64)>;

fn load_traced(
    tr: &Tracer,
    xml: &str,
    opts: &LoaderOptions,
) -> Result<(Repository, f64, Phases), String> {
    let (r, d) = tr.span("load", || {
        tr.span("xquec_core::load_profiled", || load_profiled(xml, opts))
            .0
    });
    let (repo, p) = r.map_err(|e| e.to_string())?;
    let phases = p
        .phases
        .iter()
        .map(|ph| (ph.name, ph.nanos as f64 / 1e9))
        .collect();
    Ok((repo, d.as_secs_f64(), phases))
}

/// One cycle on `xml`. Counts its operations in `tally`: the load, the
/// save, each open (with the size check, and on the first open the
/// container check) and each cold query.
fn cycle(
    xml: &str,
    answers: &Answers,
    dir: &Path,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Result<Cycle, String> {
    let opts = loader_options();
    let store = dir.join("cycle.xqc");
    remove_store(&store);
    let catalog = catalog_queries(answers.get("cycle.catalog").map_err(|e| e.to_string())?);
    let values = answers.get("cycle.values").map_err(|e| e.to_string())?;
    let fail = |tally: &mut Tally, what: &str, e: String| {
        tally.op(what, Err(e.clone()));
        format!("{what}: {e}")
    };

    let loaded = match tracer {
        None => {
            let t = Instant::now();
            let r = load_with(black_box(xml), &opts).map_err(|e| e.to_string());
            r.map(|r| (r, secs(t), Vec::new()))
        }
        Some(tr) => load_traced(tr, xml, &opts),
    };
    let (repo, load_s, phases) = loaded.map_err(|e| fail(tally, "load", e))?;
    tally.op("load", Ok(()));

    let counts = Arc::new(PageCounts::default());
    let save = match tracer {
        None => {
            let t = Instant::now();
            persist::save(&repo, &store).map(|()| secs(t))
        }
        Some(tr) => {
            let c = counts.clone();
            let wrap = move |p: Arc<dyn Pager>| CountingPager::wrap(p, c.clone());
            let (r, d) = tr.span("save", || {
                tr.span("persist::save_with", || {
                    persist::save_with(&repo, &store, &wrap)
                })
                .0
            });
            r.map(|()| d.as_secs_f64())
        }
    };
    let save_s = save.map_err(|e| fail(tally, "save", e.to_string()))?;
    tally.op("save", Ok(()));
    let stored_bytes = std::fs::metadata(&store).map_err(|e| e.to_string())?.len();
    let save_cpu_s = tracer.map(|tr| {
        let (r, d) = tr.span("save to memory", || {
            tr.span("persist::save_to_pager", || {
                persist::save_to_pager(&repo, Arc::new(MemPager::new()))
            })
            .0
        });
        r.map_or(f64::NAN, |()| d.as_secs_f64())
    });
    let size = repo.size_report();
    let repo_bytes = size.total();
    drop(repo);

    let (mut open_s, mut cold_ms, mut cold_lat, mut passes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reopened = None;
    let mut pages_read = 0;
    for k in 0..OPENS_PER_CYCLE {
        drop(reopened.take());
        let open = match tracer {
            None => {
                let t = Instant::now();
                persist::load(&store).map(|r| (r, secs(t)))
            }
            Some(tr) => {
                let c = Arc::new(PageCounts::default());
                let (r, d) = tr.span("open", || {
                    tr.span("persist::load_from_pager", || {
                        let pager = FilePager::open(&store).map_err(persist::PersistError::from)?;
                        persist::load_from_pager(CountingPager::wrap(Arc::new(pager), c.clone()))
                    })
                    .0
                });
                pages_read = c.read();
                r.map(|r| (r, d.as_secs_f64()))
            }
        };
        let (repo, s) = open.map_err(|e| fail(tally, "open", e.to_string()))?;
        open_s.push(s);
        let mut check = if repo.size_report() == size {
            Ok(())
        } else {
            Err("reopened repository's size report differs from the loaded one's".to_owned())
        };
        if k == 0 {
            check = check.and_then(|()| check_containers(&repo, values));
        }
        tally.op("open", check);

        let mut lat = Vec::with_capacity(catalog.len());
        let mut pass = PassTotals::default();
        let t = Instant::now();
        {
            let engine = Engine::new(&repo);
            for q in &catalog {
                let (ms, ok) = match tracer {
                    None => run_query(&engine, q),
                    Some(tr) => {
                        let r = run_traced(tr, &engine, q);
                        pass.add(&r);
                        (r.ms, r.ok)
                    }
                };
                lat.push(ms);
                tally.op(&q.label, ok);
            }
        }
        cold_ms.push(secs(t) * 1e3);
        cold_lat.push(lat);
        passes.push(pass);
        reopened = Some(repo);
    }
    remove_store(&store);
    let traced = tracer.map(|_| TracedCycle {
        phases,
        save_cpu_s: save_cpu_s.unwrap_or(f64::NAN),
        pages_written: counts.written(),
        bytes_written: counts.bytes_written(),
        syncs: counts.synced(),
        pages_read,
        passes,
    });
    Ok(Cycle {
        load_s,
        save_s,
        open_s,
        cold_ms,
        cold_lat,
        repo_bytes,
        stored_bytes,
        traced,
        reopened,
    })
}

/// The write-path figures of a set of cycles.
fn cycle_metrics(v: &mut Values, cycles: &[Cycle], input_bytes: usize) {
    let all = |f: &dyn Fn(&Cycle) -> &[f64]| {
        median(
            &cycles
                .iter()
                .flat_map(|c| f(c).to_vec())
                .collect::<Vec<_>>(),
        )
    };
    v.set(
        "save_s",
        median(&cycles.iter().map(|c| c.save_s).collect::<Vec<_>>()),
    );
    v.set("open_s", all(&|c| &c.open_s));
    v.set("cold_catalog_ms", all(&|c| &c.cold_ms));
    v.set(
        "stored_bytes_per_input_byte",
        median(
            &cycles
                .iter()
                .map(|c| c.stored_bytes as f64)
                .collect::<Vec<_>>(),
        ) / input_bytes as f64,
    );
}

// ---- traced queries -------------------------------------------------------

/// One traced query: latency, phase times, and the engine's work counts.
struct TracedQuery {
    ms: f64,
    parse_ms: f64,
    execute_ms: f64,
    serialize_ms: f64,
    value_fetches: usize,
    decompressions: usize,
    bytes_decompressed: usize,
    compressed_ops: usize,
    cache_hits: usize,
    cache_misses: usize,
    plan_nodes: usize,
    ok: Result<(), String>,
}

/// Run a query as one request with a span around each layer call it makes,
/// `Engine::eval_query` (which parses the query) and `Engine::serialize`.
/// `query::parse` is timed as a request of its own before it, so that the
/// query's latency holds only the work the program does.
fn run_traced(tr: &Tracer, engine: &Engine<'_>, q: &Query) -> TracedQuery {
    let (_, parse) = tr.span("query::parse", || black_box(query::parse(&q.text)).is_ok());
    let ((execute, serialize, out), total) = tr.span(&format!("query {}", q.label), || {
        let (seq, execute) = tr.span("Engine::eval_query", || engine.eval_query(&q.text));
        let (out, serialize) = match seq {
            Ok(seq) => tr.span("Engine::serialize", || engine.serialize(&seq)),
            Err(e) => (Err(e), Default::default()),
        };
        (execute, serialize, out)
    });
    let st = engine.stats.borrow();
    TracedQuery {
        ms: total.as_secs_f64() * 1e3,
        parse_ms: parse.as_secs_f64() * 1e3,
        execute_ms: execute.as_secs_f64() * 1e3,
        serialize_ms: serialize.as_secs_f64() * 1e3,
        value_fetches: st.value_fetches,
        decompressions: st.decompressions,
        bytes_decompressed: st.bytes_decompressed,
        compressed_ops: st.compressed_eq + st.compressed_cmp,
        cache_hits: st.cache_hits,
        cache_misses: st.cache_misses,
        plan_nodes: engine.last_plan().size(),
        ok: q.check(out.map_err(|e| e.to_string())),
    }
}

/// Sums over one pass of a query list.
#[derive(Debug, Default, Clone)]
struct PassTotals {
    parse_ms: f64,
    execute_ms: f64,
    serialize_ms: f64,
    value_fetches: f64,
    decompressions: f64,
    bytes_decompressed: f64,
    compressed_ops: f64,
    cache_hits: f64,
    cache_misses: f64,
    plan_nodes: f64,
}

impl PassTotals {
    fn add(&mut self, r: &TracedQuery) {
        self.parse_ms += r.parse_ms;
        self.execute_ms += r.execute_ms;
        self.serialize_ms += r.serialize_ms;
        self.value_fetches += r.value_fetches as f64;
        self.decompressions += r.decompressions as f64;
        self.bytes_decompressed += r.bytes_decompressed as f64;
        self.compressed_ops += r.compressed_ops as f64;
        self.cache_hits += r.cache_hits as f64;
        self.cache_misses += r.cache_misses as f64;
        self.plan_nodes += r.plan_nodes as f64;
    }
}

fn pass_metrics(v: &mut Values, passes: &[PassTotals]) {
    let m = |f: &dyn Fn(&PassTotals) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    v.set("query.parse_ms", m(&|p| p.parse_ms));
    v.set("query.execute_ms", m(&|p| p.execute_ms));
    v.set("query.serialize_ms", m(&|p| p.serialize_ms));
    v.set("query.value_fetches", m(&|p| p.value_fetches));
    v.set("query.decompressions", m(&|p| p.decompressions));
    v.set("query.bytes_decompressed", m(&|p| p.bytes_decompressed));
    v.set("query.compressed_ops", m(&|p| p.compressed_ops));
    v.set(
        "query.cache_hit_ratio",
        m(&|p| {
            if p.cache_hits + p.cache_misses > 0.0 {
                p.cache_hits / (p.cache_hits + p.cache_misses)
            } else {
                0.0
            }
        }),
    );
    v.set("query.plan_nodes", m(&|p| p.plan_nodes));
}

/// Traced passes over `queries`: whole passes until `seconds` have passed
/// and at least `min_passes` ran. Returns per-query latencies and per-pass
/// totals.
fn traced_passes(
    tr: &Tracer,
    engine: &Engine<'_>,
    queries: &[Query],
    seconds: f64,
    min_passes: usize,
    tally: &mut Tally,
) -> (Vec<Vec<f64>>, Vec<PassTotals>) {
    let mut lat = vec![Vec::new(); queries.len()];
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < min_passes || secs(start) < seconds {
        let mut pass = PassTotals::default();
        for (i, q) in queries.iter().enumerate() {
            let r = run_traced(tr, engine, q);
            lat[i].push(r.ms);
            pass.add(&r);
            tally.op(&q.label, r.ok);
        }
        passes.push(pass);
    }
    (lat, passes)
}

/// Median latency per catalog query, as `query.<id>_ms`.
fn catalog_query_metrics(v: &mut Values, queries: &[Query], lat: &[Vec<f64>]) {
    for (q, xs) in queries.iter().zip(lat) {
        v.set(format!("query.{}_ms", q.label), median(xs));
    }
}

/// Median latency per lookup shape, as `query.lookup.<shape>_ms`.
fn lookup_shape_metrics(v: &mut Values, queries: &[Query], lat: &[Vec<f64>]) {
    for shape in inputs::Shape::ALL {
        let xs: Vec<f64> = queries
            .iter()
            .zip(lat)
            .filter(|(q, _)| q.label == shape.name())
            .flat_map(|(_, xs)| xs.iter().copied())
            .collect();
        v.set(format!("query.lookup.{}_ms", shape.name()), median(&xs));
    }
}

/// Extra latency of Q1 right after each catalog query over Q1 right after
/// itself, per preceding query (ms, medians of [`CARRYOVER_REPS`]).
fn carryover(
    tr: &Tracer,
    engine: &Engine<'_>,
    catalog: &[Query],
    tally: &mut Tally,
) -> Vec<(String, f64)> {
    let q1 = &catalog[0];
    let q1_after = |prev: &Query, tally: &mut Tally| {
        let xs: Vec<f64> = (0..CARRYOVER_REPS)
            .map(|_| {
                let p = run_traced(tr, engine, prev);
                tally.op(&prev.label, p.ok);
                let r = run_traced(tr, engine, q1);
                tally.op(&q1.label, r.ok);
                r.ms
            })
            .collect();
        median(&xs)
    };
    let base = q1_after(q1, tally);
    catalog
        .iter()
        .map(|prev| (prev.label.clone(), q1_after(prev, tally) - base))
        .collect()
}

/// Codec throughput over the repository's containers: decode through
/// `Container::decompress_all`, encode through each container's codec (the
/// blz block for block containers). MB/s per codec class.
fn codec_metrics(tr: &Tracer, v: &mut Values, repo: &Repository) -> Result<(), String> {
    let mut acc: std::collections::BTreeMap<&str, (f64, f64, f64)> = Default::default();
    for c in &repo.containers {
        let class = if !c.is_individual() {
            "blz"
        } else {
            match c.codec().kind() {
                CodecKind::Alm => "alm",
                CodecKind::Numeric => "numeric",
                _ => continue,
            }
        };
        let (vals, dec) = tr
            .span(&format!("codec probe {class}"), || {
                let (vals, dec) = tr.span("Container::decompress_all", || c.decompress_all());
                let vals = vals.map_err(|e| e.to_string())?;
                let enc = if class == "blz" {
                    let mut concat = Vec::new();
                    for s in &vals {
                        xquec_compress::bitio::write_varint(&mut concat, s.len());
                        concat.extend_from_slice(s.as_bytes());
                    }
                    tr.span("blz::compress", || black_box(blz::compress(&concat)))
                        .1
                } else {
                    let codec = c.codec();
                    tr.span("ValueCodec::compress", || {
                        for s in &vals {
                            black_box(codec.compress(s.as_bytes()));
                        }
                    })
                    .1
                };
                Ok::<_, String>((vals, (dec, enc)))
            })
            .0?;
        let bytes = vals.iter().map(String::len).sum::<usize>() as f64;
        let e = acc.entry(class).or_default();
        e.0 += bytes;
        e.1 += dec.0.as_secs_f64();
        e.2 += dec.1.as_secs_f64();
    }
    for class in ["alm", "numeric", "blz"] {
        let (bytes, dec, enc) = acc.get(class).copied().unwrap_or_default();
        v.set(format!("compress.decode_mb_s.{class}"), bytes / 1e6 / dec);
        v.set(format!("compress.encode_mb_s.{class}"), bytes / 1e6 / enc);
    }
    Ok(())
}

/// Pull-parser throughput over `xml` (median of three passes).
fn reader_metric(tr: &Tracer, v: &mut Values, xml: &str) -> Result<(), String> {
    let mut rates = Vec::new();
    for _ in 0..3 {
        let (r, d) = tr.span("read document", || {
            tr.span("Reader::next_event", || {
                let mut reader = Reader::new(xml);
                let mut events = 0u64;
                while reader.next_event().map_err(|e| e.to_string())?.is_some() {
                    events += 1;
                }
                Ok::<_, String>(black_box(events))
            })
            .0
        });
        r?;
        rates.push(xml.len() as f64 / 1e6 / d.as_secs_f64());
    }
    v.set("xml.reader_mb_s", median(&rates));
    Ok(())
}

fn phase_metrics(v: &mut Values, loads: &[Vec<(&'static str, f64)>]) {
    for p in [
        "parse",
        "stats",
        "cost_search",
        "codec_training",
        "container_build",
    ] {
        let xs: Vec<f64> = loads
            .iter()
            .filter_map(|ph| ph.iter().find(|(n, _)| *n == p).map(|&(_, s)| s))
            .collect();
        v.set(format!("loader.{p}_s"), median(&xs));
    }
}

fn storage_metrics(v: &mut Values, cycles: &[&TracedCycle]) {
    let m =
        |f: &dyn Fn(&TracedCycle) -> f64| median(&cycles.iter().map(|c| f(c)).collect::<Vec<_>>());
    v.set("persist.save_cpu_s", m(&|c| c.save_cpu_s));
    v.set("storage.pages_written", m(&|c| c.pages_written as f64));
    v.set("storage.bytes_written", m(&|c| c.bytes_written as f64));
    v.set("storage.syncs", m(&|c| c.syncs as f64));
    v.set("storage.pages_read", m(&|c| c.pages_read as f64));
}

/// The outcome of a workload run.
pub struct Outcome {
    pub values: Values,
    /// False when a check that belongs to no single operation failed (the
    /// trace's self-time invariant).
    pub correct: bool,
    pub tally: Tally,
    /// Traced runs: queries per second over the traced loop's requests.
    pub traced_queries_per_s: Option<f64>,
}

/// Run the workload `cfg` names, checking against `answers`.
pub fn run(cfg: &Config, answers: &Answers) -> Result<Outcome, String> {
    let mut v = Values::default();
    let mut tally = Tally::default();
    let tracer = cfg.trace.then(Tracer::default);
    let tr = tracer.as_ref();
    let traced_qps = match cfg.workload {
        Workload::Ingest => ingest(cfg, answers, tr, &mut v, &mut tally)?,
        Workload::Catalog => primary(cfg, answers, tr, &mut v, &mut tally)?,
    };
    v.set("peak_rss_mb", peak_rss_mb());
    let mut correct = true;
    if let Some(tr) = tr {
        if let Err(e) = tr.check() {
            eprintln!("xqperf: trace check failed: {e}");
            correct = false;
        }
        if let Some(path) = &cfg.trace_file {
            tr.write_jsonl(path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    Ok(Outcome {
        values: v,
        correct,
        tally,
        traced_queries_per_s: traced_qps,
    })
}

/// Queries completed per second of query time.
fn rate(lat: &[Vec<f64>]) -> f64 {
    let all: Vec<f64> = lat.iter().flatten().copied().collect();
    all.len() as f64 / (all.iter().sum::<f64>() / 1e3)
}

/// The 16 MB catalog workload, in rounds. Each round makes one write-path
/// cycle on the 1 MB document, one set-up on the 16 MB document, and runs a
/// share of the timed loop on that set-up's engine, so that every figure's
/// samples are spread over the whole run.
fn primary(
    cfg: &Config,
    answers: &Answers,
    tr: Option<&Tracer>,
    v: &mut Values,
    tally: &mut Tally,
) -> Result<Option<f64>, String> {
    let catalog = catalog_queries(answers.get("catalog").map_err(|e| e.to_string())?);
    let cycle_xml = inputs::xmark(cfg.workload.cycle_bytes(), cfg.seed);
    let opts = loader_options();
    let mut cycles = Vec::new();
    let (mut setup_s, mut load_s, mut phases) = (Vec::new(), Vec::new(), Vec::new());
    let mut lat = vec![Vec::new(); catalog.len()];
    let mut passes = Vec::new();
    for round in 0..PRIMARY_ROUNDS {
        let mut c = cycle(&cycle_xml, answers, &cfg.dir, tr, tally)?;
        c.reopened = None;
        cycles.push(c);

        let t = Instant::now();
        let xml = inputs::xmark(PRIMARY_BYTES, cfg.seed);
        let tl = Instant::now();
        let repo = match tr {
            None => load_with(black_box(&xml), &opts).map_err(|e| e.to_string())?,
            Some(tr) => {
                let (repo, _, p) = load_traced(tr, &xml, &opts)?;
                phases.push(p);
                repo
            }
        };
        load_s.push(secs(tl));
        let engine = Engine::new(&repo);
        let warm: Vec<_> = catalog
            .iter()
            .map(|q| engine.run(&q.text).map_err(|e| e.to_string()))
            .collect();
        setup_s.push(secs(t));
        for (q, out) in catalog.iter().zip(warm) {
            tally.op(&q.label, q.check(out));
        }

        let share = cfg.seconds / PRIMARY_ROUNDS as f64;
        let segment = match tr {
            None => timed_loop(&engine, &catalog, share, tally),
            Some(tr) => {
                let (l, p) = traced_passes(tr, &engine, &catalog, share, 1, tally);
                passes.extend(p);
                l
            }
        };
        for (all, seg) in lat.iter_mut().zip(segment) {
            all.extend(seg);
        }
        if round + 1 < PRIMARY_ROUNDS {
            continue;
        }
        v.set(
            "repo_bytes_per_input_byte",
            repo.size_report().total() as f64 / xml.len() as f64,
        );
        if let Some(tr) = tr {
            // One lookup round on the same engine, for the lookup shapes.
            let lookups = lookup_queries(
                &inputs::lookups(PRIMARY_BYTES, cfg.seed),
                answers.get("lookups").map_err(|e| e.to_string())?,
            );
            let (l, _) = traced_passes(tr, &engine, &lookups, 0.0, 1, tally);
            lookup_shape_metrics(v, &lookups, &l);
            carryover_metric(v, &carryover(tr, &engine, &catalog, tally));
            codec_metrics(tr, v, &repo)?;
            reader_metric(tr, v, &xml)?;
        }
    }
    cycle_metrics(v, &cycles, cycle_xml.len());
    v.set("setup_s", median(&setup_s));
    v.set("load_s", median(&load_s));
    let Some(_) = tr else {
        latency_metrics(v, &catalog, &lat);
        return Ok(None);
    };
    phase_metrics(v, &phases);
    storage_metrics(
        v,
        &cycles
            .iter()
            .filter_map(|c| c.traced.as_ref())
            .collect::<Vec<_>>(),
    );
    pass_metrics(v, &passes);
    catalog_query_metrics(v, &catalog, &lat);
    Ok(Some(rate(&lat)))
}

/// `query.carryover_ms`, and the table behind it on standard error.
fn carryover_metric(v: &mut Values, table: &[(String, f64)]) {
    for (prev, ms) in table {
        eprintln!("xqperf: carry-over of Q1 after {prev}: {ms:.3} ms");
    }
    v.set("query.carryover_ms", table.iter().map(|(_, ms)| ms).sum());
}

/// The ingest workload: repeated load → save → open → cold catalog cycles
/// on the 4 MB document.
fn ingest(
    cfg: &Config,
    answers: &Answers,
    tr: Option<&Tracer>,
    v: &mut Values,
    tally: &mut Tally,
) -> Result<Option<f64>, String> {
    let mut setup_s = Vec::new();
    let mut xml = String::new();
    for _ in 0..INGEST_SETUPS {
        let t = Instant::now();
        xml = black_box(inputs::xmark(INGEST_BYTES, cfg.seed));
        setup_s.push(secs(t));
    }
    v.set("setup_s", median(&setup_s));

    let mut cycles: Vec<Cycle> = Vec::new();
    let start = Instant::now();
    while cycles.len() < MIN_CYCLES || secs(start) < cfg.seconds {
        let c = cycle(&xml, answers, &cfg.dir, tr, tally)?;
        // Keep only the last reopened repository alive.
        if let Some(prev) = cycles.last_mut() {
            prev.reopened = None;
        }
        cycles.push(c);
    }
    cycle_metrics(v, &cycles, xml.len());
    v.set(
        "load_s",
        median(&cycles.iter().map(|c| c.load_s).collect::<Vec<_>>()),
    );
    v.set(
        "repo_bytes_per_input_byte",
        cycles[0].repo_bytes as f64 / xml.len() as f64,
    );
    let catalog = catalog_queries(answers.get("cycle.catalog").map_err(|e| e.to_string())?);
    let lat: Vec<Vec<f64>> = (0..catalog.len())
        .map(|i| {
            cycles
                .iter()
                .flat_map(|c| c.cold_lat.iter().map(move |l| l[i]))
                .collect()
        })
        .collect();
    let Some(tr) = tr else {
        latency_metrics(v, &catalog, &lat);
        return Ok(None);
    };
    let traced: Vec<&TracedCycle> = cycles.iter().filter_map(|c| c.traced.as_ref()).collect();
    phase_metrics(
        v,
        &traced.iter().map(|c| c.phases.clone()).collect::<Vec<_>>(),
    );
    storage_metrics(v, &traced);
    pass_metrics(
        v,
        &traced
            .iter()
            .flat_map(|c| c.passes.clone())
            .collect::<Vec<_>>(),
    );
    catalog_query_metrics(v, &catalog, &lat);
    let traced_qps = rate(&lat);

    let last = cycles
        .last()
        .and_then(|c| c.reopened.as_ref())
        .expect("the last cycle keeps its reopened repository");
    let engine = Engine::new(last);
    let lookups = lookup_queries(
        &inputs::lookups(INGEST_BYTES, cfg.seed),
        answers.get("lookups").map_err(|e| e.to_string())?,
    );
    let (lat, _) = traced_passes(tr, &engine, &lookups, 0.0, 1, tally);
    lookup_shape_metrics(v, &lookups, &lat);
    carryover_metric(v, &carryover(tr, &engine, &catalog, tally));
    codec_metrics(tr, v, last)?;
    reader_metric(tr, v, &xml)?;
    Ok(Some(traced_qps))
}
