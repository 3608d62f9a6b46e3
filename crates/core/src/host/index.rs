//! The common-filter index: one Aho-Corasick automaton over every
//! registered query's `contains` needles.
//!
//! Each query's optimized logical plan already names the WHERE
//! conjuncts the streaming API could evaluate server-side
//! ([`ApiCandidate`]). On a shared connection nothing can be pushed
//! down, but a `track(...)` candidate is still a *necessary condition*:
//! a row that matches none of the candidate's keywords cannot satisfy
//! that conjunct, so the query's pipeline would drop it anyway. The
//! index exploits this: all keywords from all registered queries are
//! interned into one automaton, each row's text is scanned **once**,
//! and a query is dispatched only when every one of its indexed
//! conjunct groups has at least one keyword hit. 10k `contains` queries
//! therefore cost one text scan per row, not 10k.
//!
//! The prefilter may over-dispatch (the pipeline re-filters every row),
//! but it must never under-dispatch. It cannot: [`AhoCorasick`] accepts
//! a needle exactly where the pipeline's case-folded `contains` does,
//! for every needle, ASCII or not.
//!
//! The needle set and the automaton are two steps. Interning
//! ([`FilterIndex::groups_for`]) is cheap and happens at registration,
//! so the needle count is always current; [`FilterIndex::build`] is
//! the expensive step and the host defers it to the next pump.

use crate::plan::ApiCandidate;
use std::collections::HashMap;
use tweeql_firehose::FilterSpec;
use tweeql_text::ac::AhoCorasick;
use tweeql_text::fold_needle;

/// Conjunctive groups of OR'd needle ids: a row is a candidate for the
/// query iff *every* group has at least one matching needle.
pub(crate) type NeedleGroups = Vec<Vec<u32>>;

/// The interned needles, the automaton last built over them, and
/// per-row match scratch.
#[derive(Default)]
pub(crate) struct FilterIndex {
    /// Folded needles in id order.
    needles: Vec<String>,
    ids: HashMap<String, u32>,
    /// Covers `needles` as of the last [`FilterIndex::build`].
    ac: AhoCorasick,
    /// `seen[id] == stamp` — needle `id` matched the current row.
    seen: Vec<u64>,
    /// Ids that matched the current row, each once.
    touched: Vec<u32>,
    /// Per-row version; never reset, so stale marks cannot collide.
    stamp: u64,
}

impl FilterIndex {
    fn intern(&mut self, needle: &str) -> u32 {
        let key = fold_needle(needle);
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.needles.len() as u32;
        self.needles.push(key.clone());
        self.ids.insert(key, id);
        id
    }

    /// Forget every needle (the caller re-interns the surviving
    /// queries' groups).
    pub(crate) fn clear(&mut self) {
        self.needles.clear();
        self.ids.clear();
    }

    /// Intern the indexable conjunct groups of one query's pushdown
    /// candidates. `None` ⇒ nothing indexable; the query must be
    /// dispatched unconditionally.
    pub(crate) fn groups_for(&mut self, candidates: &[ApiCandidate]) -> Option<NeedleGroups> {
        let mut groups = NeedleGroups::new();
        for c in candidates {
            if let FilterSpec::Track(kws) = &c.spec {
                // An empty keyword is contained in every text.
                if kws.is_empty() || kws.iter().any(|k| k.is_empty()) {
                    continue;
                }
                groups.push(kws.iter().map(|k| self.intern(k)).collect());
            }
        }
        (!groups.is_empty()).then_some(groups)
    }

    /// Build the automaton over the needles interned so far.
    pub(crate) fn build(&mut self) {
        self.ac = AhoCorasick::new(&self.needles);
        self.seen.clear();
        self.seen.resize(self.needles.len(), 0);
        self.touched.clear();
    }

    /// Total distinct needles across all registered queries.
    pub(crate) fn needle_count(&self) -> usize {
        self.needles.len()
    }

    /// True when no query contributed an indexable needle.
    pub(crate) fn is_empty(&self) -> bool {
        self.needles.is_empty()
    }

    /// States of the built automaton.
    pub(crate) fn states(&self) -> usize {
        self.ac.state_count()
    }

    /// Heap bytes of the built automaton's tables.
    pub(crate) fn table_bytes(&self) -> usize {
        self.ac.table_bytes()
    }

    /// Scan one row's text, recording which needles matched (replacing
    /// the previous row's). Requires a [`FilterIndex::build`] since the
    /// last interned needle.
    pub(crate) fn match_row(&mut self, text: &str) {
        self.stamp += 1;
        self.touched.clear();
        let FilterIndex {
            ac,
            seen,
            touched,
            stamp,
            ..
        } = self;
        ac.scan_into(text, &mut |id| {
            if seen[id] != *stamp {
                seen[id] = *stamp;
                touched.push(id as u32);
            }
        });
    }

    /// Did needle `id` match the most recently scanned row? The
    /// dispatcher consumes [`FilterIndex::touched`] instead; this is
    /// the direct oracle the tests check it against.
    #[cfg(test)]
    pub(crate) fn hit(&self, id: u32) -> bool {
        self.stamp > 0 && self.seen[id as usize] == self.stamp
    }

    /// Needle ids that matched the most recently scanned row. The
    /// dispatcher walks only these — per-row cost is O(matches), not
    /// O(registered queries).
    pub(crate) fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Does the most recently scanned row satisfy every group?
    #[cfg(test)]
    pub(crate) fn satisfies(&self, groups: &NeedleGroups) -> bool {
        groups.iter().all(|g| g.iter().any(|&id| self.hit(id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn track(kws: &[&str]) -> ApiCandidate {
        ApiCandidate {
            spec: FilterSpec::Track(kws.iter().map(|s| s.to_string()).collect()),
            description: format!("track({})", kws.join(", ")),
        }
    }

    #[test]
    fn interns_and_dedupes_across_queries() {
        let mut idx = FilterIndex::default();
        let g1 = idx.groups_for(&[track(&["obama"]), track(&["speech", "rally"])]);
        let g2 = idx.groups_for(&[track(&["OBAMA"])]);
        assert_eq!(idx.needle_count(), 3, "obama shared case-insensitively");
        let g1 = g1.unwrap();
        let g2 = g2.unwrap();
        assert_eq!(g1.len(), 2, "two conjunct groups");
        assert_eq!(g2[0], g1[0], "same needle id both queries");
        assert_ne!(g1[0], g1[1]);
    }

    #[test]
    fn conjunctive_or_group_semantics() {
        let mut idx = FilterIndex::default();
        let groups = idx
            .groups_for(&[track(&["obama"]), track(&["speech", "rally"])])
            .unwrap();
        idx.build();
        idx.match_row("obama gave a speech");
        assert!(idx.satisfies(&groups));
        idx.match_row("obama waved"); // first conjunct only
        assert!(!idx.satisfies(&groups));
        idx.match_row("a great RALLY"); // second conjunct only
        assert!(!idx.satisfies(&groups));
        idx.match_row("nothing relevant");
        assert!(!idx.satisfies(&groups));
    }

    #[test]
    fn repeated_occurrences_touch_a_needle_once() {
        let mut idx = FilterIndex::default();
        let g = idx.groups_for(&[track(&["aa", "b"])]).unwrap();
        idx.build();
        idx.match_row("aaaa b aa B");
        let mut touched = idx.touched().to_vec();
        touched.sort_unstable();
        assert_eq!(touched, g[0]);
        idx.match_row("nothing");
        assert!(idx.touched().is_empty());
    }

    #[test]
    fn non_ascii_groups_are_indexed_and_non_track_skipped() {
        let mut idx = FilterIndex::default();
        assert!(idx.groups_for(&[]).is_none());
        assert!(idx.groups_for(&[track(&["x", ""])]).is_none());
        let g = idx
            .groups_for(&[track(&["café", "\u{0130}stanbul"]), track(&["地震"])])
            .unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(idx.needle_count(), 3);
        idx.build();
        idx.match_row("CAFÉ の 地震");
        assert!(idx.satisfies(&g));
        idx.match_row("istanbul 地震");
        assert!(idx.satisfies(&g));
        idx.match_row("cafe 地震");
        assert!(!idx.satisfies(&g));
    }

    #[test]
    fn empty_index_matches_nothing() {
        let mut idx = FilterIndex::default();
        assert!(idx.is_empty());
        idx.match_row("any text at all");
        assert!(idx.touched().is_empty());
        assert!(idx.satisfies(&NeedleGroups::new()), "vacuous truth");
    }

    #[test]
    fn clear_forgets_needles_until_reinterned() {
        let mut idx = FilterIndex::default();
        idx.groups_for(&[track(&["obama", "rally"])]);
        idx.clear();
        assert!(idx.is_empty());
        let g = idx.groups_for(&[track(&["rally"])]).unwrap();
        assert_eq!((idx.needle_count(), g[0][0]), (1, 0));
    }
}
