//! Query profiles: the data behind `Engine::profile_report()`.
//!
//! A profile is assembled by the engine after each run from the
//! pipeline's per-stage counters, the pushdown decision, the source
//! supervisor, and the geo service delta — then rendered either as an
//! `EXPLAIN ANALYZE`-style text table or as JSON (schema-validated by
//! CI the same way `BENCH_*.json` is).

/// Per-operator profile row.
#[derive(Debug, Clone, Default)]
pub struct StageProfile {
    /// Stage label (`where+project`, `async:latitude`, …).
    pub name: String,
    /// Records consumed.
    pub records_in: u64,
    /// Records emitted.
    pub records_out: u64,
    /// Micro-batches consumed via the vectorized path.
    pub batches: u64,
    /// Wall time spent inside the operator (summed across worker
    /// clones; non-deterministic, reported but never asserted).
    pub busy_nanos: u64,
    /// Observed selectivity `records_out / records_in` (None when no
    /// input reached the stage).
    pub selectivity: Option<f64>,
    /// Pre-run estimate from the selectivity probe (scan stage only).
    pub est_selectivity: Option<f64>,
    /// Operator-specific counters (cache hits, breaker opens, conjunct
    /// re-ranks, windows emitted, …), sorted by key.
    pub extras: Vec<(String, u64)>,
}

impl StageProfile {
    /// Observed selectivity, computed from the counters.
    pub fn observed(records_in: u64, records_out: u64) -> Option<f64> {
        (records_in > 0).then(|| records_out as f64 / records_in as f64)
    }
}

/// The full profile of one `execute()` call.
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// The query's identity within its issuing engine or host.
    pub query: crate::query::QueryId,
    /// The SQL that ran.
    pub sql: String,
    /// Pushdown decision rendered for humans.
    pub pushdown: String,
    /// Per-operator rows.
    pub stages: Vec<StageProfile>,
    /// Tweets the source delivered (after pushdown).
    pub records_decoded: u64,
    /// Source supervisor counters.
    pub source_disconnects: u64,
    pub source_reconnects: u64,
    pub source_duplicates_dropped: u64,
    pub source_gaps: u64,
    /// Windows flagged under-sampled by the aggregate.
    pub gap_windows: u64,
    /// Geocode service requests this run.
    pub geo_requests: u64,
    /// Geocode cache hits / misses this run.
    pub geo_cache_hits: u64,
    pub geo_cache_misses: u64,
    /// Stream time consumed, virtual milliseconds.
    pub stream_time_ms: i64,
}

impl QueryProfile {
    /// `EXPLAIN ANALYZE`-style text table (the REPL's `:stats` body).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Query [{}]: {}\n", self.query, self.sql.trim()));
        out.push_str(&format!("Pushdown: {}\n", self.pushdown));
        out.push_str(&format!(
            "Source: {} records decoded, {} disconnect(s), {} gap(s); \
             {} window(s) flagged; stream time {}ms\n",
            self.records_decoded,
            self.source_disconnects,
            self.source_gaps,
            self.gap_windows,
            self.stream_time_ms,
        ));
        if self.geo_requests > 0 || self.geo_cache_hits > 0 {
            out.push_str(&format!(
                "Geo service: {} request(s), cache {} hit(s) / {} miss(es)\n",
                self.geo_requests, self.geo_cache_hits, self.geo_cache_misses,
            ));
        }
        out.push_str(&format!(
            "{:<22} {:>12} {:>12} {:>8} {:>11} {:>9} {:>9}\n",
            "operator", "rows in", "rows out", "batches", "busy ms", "sel", "est sel"
        ));
        for s in &self.stages {
            let sel = s
                .selectivity
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "-".into());
            let est = s
                .est_selectivity
                .map(|v| format!("{v:.4}"))
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{:<22} {:>12} {:>12} {:>8} {:>11.3} {:>9} {:>9}\n",
                s.name,
                s.records_in,
                s.records_out,
                s.batches,
                s.busy_nanos as f64 / 1e6,
                sel,
                est,
            ));
            for (k, v) in &s.extras {
                out.push_str(&format!("{:<22}   {k} = {v}\n", ""));
            }
        }
        out
    }

    /// JSON rendering (hand-rolled: the vendored serde is a stub).
    pub fn to_json(&self, indent: usize) -> String {
        let p0 = " ".repeat(indent);
        let p1 = " ".repeat(indent + 2);
        let p2 = " ".repeat(indent + 4);
        let p3 = " ".repeat(indent + 6);
        let mut out = String::from("{\n");
        out.push_str(&format!("{p1}\"query_id\": {},\n", self.query.raw()));
        out.push_str(&format!("{p1}\"sql\": {:?},\n", self.sql.trim()));
        out.push_str(&format!("{p1}\"pushdown\": {:?},\n", self.pushdown));
        out.push_str(&format!(
            "{p1}\"records_decoded\": {},\n",
            self.records_decoded
        ));
        out.push_str(&format!(
            "{p1}\"source\": {{\"disconnects\": {}, \"reconnects\": {}, \
             \"duplicates_dropped\": {}, \"gaps\": {}}},\n",
            self.source_disconnects,
            self.source_reconnects,
            self.source_duplicates_dropped,
            self.source_gaps,
        ));
        out.push_str(&format!("{p1}\"gap_windows\": {},\n", self.gap_windows));
        out.push_str(&format!(
            "{p1}\"geo\": {{\"requests\": {}, \"cache_hits\": {}, \"cache_misses\": {}}},\n",
            self.geo_requests, self.geo_cache_hits, self.geo_cache_misses,
        ));
        out.push_str(&format!(
            "{p1}\"stream_time_ms\": {},\n",
            self.stream_time_ms
        ));
        out.push_str(&format!("{p1}\"stages\": [\n"));
        for (i, s) in self.stages.iter().enumerate() {
            let sel = s
                .selectivity
                .map(|v| format!("{v:.6}"))
                .unwrap_or_else(|| "null".into());
            let est = s
                .est_selectivity
                .map(|v| format!("{v:.6}"))
                .unwrap_or_else(|| "null".into());
            out.push_str(&format!("{p2}{{\n"));
            out.push_str(&format!("{p3}\"name\": {:?},\n", s.name));
            out.push_str(&format!("{p3}\"records_in\": {},\n", s.records_in));
            out.push_str(&format!("{p3}\"records_out\": {},\n", s.records_out));
            out.push_str(&format!("{p3}\"batches\": {},\n", s.batches));
            out.push_str(&format!("{p3}\"busy_nanos\": {},\n", s.busy_nanos));
            out.push_str(&format!("{p3}\"selectivity\": {sel},\n"));
            out.push_str(&format!("{p3}\"est_selectivity\": {est},\n"));
            out.push_str(&format!("{p3}\"extras\": {{"));
            for (j, (k, v)) in s.extras.iter().enumerate() {
                let comma = if j + 1 < s.extras.len() { ", " } else { "" };
                out.push_str(&format!("{k:?}: {v}{comma}"));
            }
            out.push_str("}\n");
            out.push_str(&format!(
                "{p2}}}{}\n",
                if i + 1 < self.stages.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!("{p1}]\n"));
        out.push_str(&format!("{p0}}}"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryProfile {
        QueryProfile {
            sql: "SELECT text FROM twitter".into(),
            pushdown: "track(obama)".into(),
            stages: vec![
                StageProfile {
                    name: "where+project".into(),
                    records_in: 100,
                    records_out: 25,
                    batches: 2,
                    busy_nanos: 1_500_000,
                    selectivity: StageProfile::observed(100, 25),
                    est_selectivity: Some(0.3),
                    extras: vec![("conjunct_reranks".into(), 1)],
                },
                StageProfile {
                    name: "limit".into(),
                    records_in: 25,
                    records_out: 10,
                    batches: 2,
                    busy_nanos: 2_000,
                    selectivity: StageProfile::observed(25, 10),
                    est_selectivity: None,
                    extras: vec![],
                },
            ],
            records_decoded: 100,
            ..QueryProfile::default()
        }
    }

    #[test]
    fn text_report_has_all_stages_and_selectivities() {
        let text = sample().render_text();
        assert!(text.contains("where+project"));
        assert!(text.contains("limit"));
        assert!(text.contains("0.2500"), "{text}");
        assert!(text.contains("0.3000"), "{text}");
        assert!(text.contains("conjunct_reranks = 1"), "{text}");
        assert!(text.contains("track(obama)"));
    }

    #[test]
    fn observed_selectivity_handles_empty_input() {
        assert_eq!(StageProfile::observed(0, 0), None);
        assert_eq!(StageProfile::observed(4, 1), Some(0.25));
    }

    #[test]
    fn json_is_balanced_and_carries_stage_fields() {
        let json = sample().to_json(0);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"records_in\": 100"));
        assert!(json.contains("\"est_selectivity\": 0.300000"));
        assert!(json.contains("\"est_selectivity\": null"));
        assert!(json.contains("\"conjunct_reranks\": 1"));
    }
}
