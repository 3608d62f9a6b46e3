//! Spans recorded by the traced run, from the benchmark's own files
//! around each call into a layer's public functions. Kept in memory and
//! written to `benchmark/out/trace-<workload>.jsonl` when the run ends.

use crate::json;
use std::collections::HashMap;
use std::fmt::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder of one workload's traced run. Ids are 1-based
/// positions in the span list, so a parent always precedes its
/// children.
pub struct Trace {
    workload: String,
    t0: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl Trace {
    pub fn new(workload: &str) -> Trace {
        Trace {
            workload: workload.to_string(),
            t0: Instant::now(),
            spans: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder that records nothing: the untraced twin of a rung,
    /// whose wall-time difference is the tracing overhead.
    pub fn disabled() -> Trace {
        Trace {
            enabled: false,
            ..Trace::new("")
        }
    }

    /// Open a span; close it with [`Trace::exit`].
    pub fn enter(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    pub fn exit(&mut self, id: u32) {
        if self.enabled {
            self.spans[id as usize - 1].end_ns = self.t0.elapsed().as_nanos() as u64;
        }
    }

    /// Record a span around `f`.
    pub fn time<R>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, Some(parent));
        let r = f();
        self.exit(id);
        r
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Summed duration in nanoseconds of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Summed duration in nanoseconds of the spans called `name`
    /// directly under `parent` — one rung's share when several rungs
    /// make the same call.
    pub fn total_ns_in(&self, name: &str, parent: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(parent))
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"workload\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                parent,
                json::quote(s.name),
                json::quote(&self.workload),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// Check that a written trace is one tree: exactly one root, every
/// other span names an earlier span as its parent and lies within it.
pub fn validate_tree(jsonl: &str) -> Result<usize, String> {
    let mut bounds: HashMap<u64, (f64, f64)> = HashMap::new();
    let mut roots = 0;
    for (n, line) in jsonl.lines().enumerate() {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let num = |k: &str| {
            v.get(k)
                .as_f64()
                .ok_or_else(|| format!("line {}: no {k}", n + 1))
        };
        let (id, start, end) = (num("id")? as u64, num("start_ns")?, num("end_ns")?);
        if end < start {
            return Err(format!("span {id} ends before it starts"));
        }
        match v.get("parent").as_f64() {
            None => roots += 1,
            Some(p) => {
                let Some(&(ps, pe)) = bounds.get(&(p as u64)) else {
                    return Err(format!("span {id} names unknown parent {p}"));
                };
                if start < ps || end > pe {
                    return Err(format!("span {id} is not inside its parent {p}"));
                }
            }
        }
        if bounds.insert(id, (start, end)).is_some() {
            return Err(format!("span id {id} used twice"));
        }
    }
    if roots != 1 {
        return Err(format!("{roots} root spans, want 1"));
    }
    Ok(bounds.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_the_tree_validates() {
        let mut t = Trace::new("w");
        let root = t.enter("root", None);
        let a = t.enter("a", Some(root));
        t.time("b", a, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(a);
        t.exit(root);
        assert!(t.total_ns("b") >= 2e6);
        assert_eq!(t.total_ns_in("b", a), t.total_ns("b"));
        assert_eq!(t.total_ns_in("b", root), 0.0);
        let text = t.to_jsonl();
        assert_eq!(validate_tree(&text), Ok(3));
        let second_root = text
            .lines()
            .next()
            .unwrap()
            .replace("\"id\": 1", "\"id\": 9");
        assert!(validate_tree(&format!("{text}{second_root}")).is_err());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut t = Trace::disabled();
        let id = t.enter("x", None);
        t.exit(id);
        assert!(t.to_jsonl().is_empty());
    }
}
