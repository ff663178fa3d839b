//! `xqperf reference`: the one-off reference figures recorded in README.md.
//! Not part of any workload run; takes a few minutes.

use crate::inputs::{self, INGEST_BYTES, PRIMARY_BYTES};
use crate::stats::median;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;
use xquec_baselines::GalaxEngine;
use xquec_core::queries::{xmark_workload, XMARK_QUERIES};
use xquec_core::{load_with, persist, Engine, LoaderOptions};

/// Galax runs longer than this are stopped (its nested-loop Q9 does not
/// end in minutes on the 16 MB document).
const GALAX_TIMEOUT_S: f64 = 60.0;

fn opts(threads: usize) -> LoaderOptions {
    LoaderOptions {
        workload: Some(xmark_workload()),
        threads,
        ..Default::default()
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Galax against XQueC on the 16 MB document, one-thread against
/// two-thread loads, save time by size, and a cold catalog pass against a
/// warm one. `dir` holds the saved repositories while they are timed.
pub fn report(seed: u64, dir: &Path) -> Result<String, String> {
    let mut out = String::new();
    let e = |e: &dyn std::fmt::Display| e.to_string();

    {
        let xml = inputs::xmark(PRIMARY_BYTES, seed);
        let repo = load_with(&xml, &opts(1)).map_err(|x| e(&x))?;
        let engine = Engine::new(&repo);
        for q in XMARK_QUERIES {
            engine.run(q.text).map_err(|x| e(&x))?;
        }
        let galax = GalaxEngine::load(&xml).map_err(|x| e(&x))?;
        let _ = writeln!(
            out,
            "Galax-like baseline vs XQueC (warm), {} bytes, seed {seed}",
            xml.len()
        );
        let _ = writeln!(out, "| query | Galax ms | XQueC ms |\n|---|---:|---:|");
        for q in XMARK_QUERIES {
            let xq = median(
                &(0..5)
                    .map(|_| {
                        let t = Instant::now();
                        let _ = engine.run(q.text);
                        ms(t)
                    })
                    .collect::<Vec<_>>(),
            );
            galax.set_timeout(GALAX_TIMEOUT_S);
            let t = Instant::now();
            let g = match galax.run(q.text) {
                Ok(_) => format!("{:.1}", ms(t)),
                Err(_) => format!("> {GALAX_TIMEOUT_S:.0} s (stopped)"),
            };
            let _ = writeln!(out, "| {} | {g} | {xq:.1} |", q.id);
        }
    }

    let xml = inputs::xmark(INGEST_BYTES, seed);
    let _ = writeln!(out, "\nLoad of {} bytes (s), seven loads each", xml.len());
    for threads in [1, 2] {
        let mut xs = Vec::new();
        for _ in 0..7 {
            let t = Instant::now();
            load_with(&xml, &opts(threads)).map_err(|x| e(&x))?;
            xs.push(ms(t) / 1e3);
        }
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(0.0, f64::max);
        let _ = writeln!(
            out,
            "threads {threads}: median {:.2}, range {lo:.2}..{hi:.2}",
            median(&xs)
        );
    }

    let store = dir.join("reference.xqc");
    {
        let repo = load_with(&xml, &opts(1)).map_err(|x| e(&x))?;
        persist::save(&repo, &store).map_err(|x| e(&x))?;
        let reopened = persist::load(&store).map_err(|x| e(&x))?;
        let _ = std::fs::remove_file(&store);
        let fresh = Engine::new(&reopened);
        let t = Instant::now();
        for q in XMARK_QUERIES {
            fresh.run(q.text).map_err(|x| e(&x))?;
        }
        let cold = ms(t);
        let warm = median(
            &(0..5)
                .map(|_| {
                    let t = Instant::now();
                    for q in XMARK_QUERIES {
                        let _ = fresh.run(q.text);
                    }
                    ms(t)
                })
                .collect::<Vec<_>>(),
        );
        let _ = writeln!(out, "\nCatalog pass on the reopened 4 MB repository: cold {cold:.1} ms, warm {warm:.1} ms (median of 5)");
    }

    let _ = writeln!(
        out,
        "\nSave (persist::save, journal and fsync included) by size"
    );
    for mb in [2, 4, 8, 16] {
        let xml = inputs::xmark(mb * 1_000_000, seed);
        let repo = load_with(&xml, &opts(1)).map_err(|x| e(&x))?;
        let t = Instant::now();
        persist::save(&repo, &store).map_err(|x| e(&x))?;
        let s = ms(t) / 1e3;
        let _ = std::fs::remove_file(&store);
        let _ = writeln!(out, "{mb:>2} MB: {s:.2} s");
    }
    Ok(out)
}
