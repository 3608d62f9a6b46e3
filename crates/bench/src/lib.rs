//! Experiment harness for the reproduction: one module per experiment
//! in DESIGN.md's index (E1–E8). Each returns structured results; the
//! `report` binary renders them as the tables recorded in
//! EXPERIMENTS.md, and each module's tests gate the seed-42 figures of
//! its table.

pub mod e1_dashboard;
pub mod e2_peaks;
pub mod e3_selectivity;
pub mod e4_confidence;
pub mod e5_latency;
pub mod e6_engine;
pub mod e7_sentiment;
pub mod e8_reorder;

/// Render a markdown table from a header and rows.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", header.join(" | ")));
    out.push_str(&format!(
        "|{}\n",
        header.iter().map(|_| "---|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_shapes() {
        let t = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert_eq!(t.lines().count(), 4);
        assert!(t.starts_with("| a | b |"));
        assert!(t.contains("| 3 | 4 |"));
    }
}
