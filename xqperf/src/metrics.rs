//! The benchmark's metrics: names, units, and the result line.

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_geomean_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("load_s", "s"),
    ("save_s", "s"),
    ("open_s", "s"),
    ("cold_catalog_ms", "ms"),
    ("repo_bytes_per_input_byte", "B/B"),
    ("stored_bytes_per_input_byte", "B/B"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![("xml.reader_mb_s".into(), "MB/s")];
    for p in [
        "parse",
        "stats",
        "cost_search",
        "codec_training",
        "container_build",
    ] {
        m.push((format!("loader.{p}_s"), "s"));
    }
    for dir in ["decode", "encode"] {
        for codec in ["alm", "numeric", "blz"] {
            m.push((format!("compress.{dir}_mb_s.{codec}"), "MB/s"));
        }
    }
    for phase in ["parse", "execute", "serialize"] {
        m.push((format!("query.{phase}_ms"), "ms"));
    }
    for q in xquec_core::queries::XMARK_QUERIES {
        m.push((format!("query.{}_ms", q.id), "ms"));
    }
    for shape in crate::inputs::Shape::ALL {
        m.push((format!("query.lookup.{}_ms", shape.name()), "ms"));
    }
    m.extend([
        ("query.value_fetches".into(), "count"),
        ("query.decompressions".into(), "count"),
        ("query.bytes_decompressed".into(), "B"),
        ("query.compressed_ops".into(), "count"),
        ("query.cache_hit_ratio".into(), "ratio"),
        ("query.plan_nodes".into(), "count"),
        ("query.carryover_ms".into(), "ms"),
        ("persist.save_cpu_s".into(), "s"),
        ("storage.pages_written".into(), "count"),
        ("storage.bytes_written".into(), "B"),
        ("storage.syncs".into(), "count"),
        ("storage.pages_read".into(), "count"),
    ]);
    m
}

/// Measured values, by metric name.
#[derive(Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The result line: every metric of `spec` in order. A metric that was
    /// not measured or is not a finite number makes the line incorrect.
    pub fn result_line(
        &self,
        spec: &[(String, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut fields = Vec::with_capacity(spec.len());
        for (name, unit) in spec {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            fields.join(", ")
        ))
    }
}

/// The metrics a run prints: per-layer when traced, end-to-end otherwise.
pub fn spec(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    }
}
