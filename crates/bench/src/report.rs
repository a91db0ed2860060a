//! Plain-text table formatting in the paper's style, and [`Report`], the
//! one emitter behind every `BENCH_*.json` artifact.

use std::fmt::Display;
use std::path::PathBuf;

use crate::runner::ExperimentRow;

/// One study's JSON artifact: a flat array of data rows and acceptance
/// bars, in the order they were recorded. Each row is one line of the
/// file, so a rerun diffs row by row.
#[derive(Debug)]
pub struct Report {
    path: PathBuf,
    write: bool,
    rows: Vec<String>,
    pass: bool,
}

impl Report {
    /// A report for `path`; with `write` off (the budgeted smoke runs),
    /// bars still print but [`Report::finish`] writes nothing.
    pub fn new(path: impl Into<PathBuf>, write: bool) -> Self {
        Self {
            path: path.into(),
            write,
            rows: Vec::new(),
            pass: true,
        }
    }

    /// Appends a data row; `fields` is the object body, e.g.
    /// `"instance": "g1", "nodes": 42`.
    pub fn row(&mut self, fields: &str) {
        self.rows.push(format!("  {{{fields}}}"));
    }

    /// Records a row that could not be produced. The report fails; a time
    /// limit is a result, not an error, so it never comes here.
    pub fn error(&mut self, what: impl Display) {
        eprintln!("{what}");
        self.pass = false;
    }

    /// Records the acceptance bar `name`: prints `acceptance [PASS|FAIL]:
    /// {summary}` and appends `{"acceptance": name, <fields>, "pass": pass}`.
    pub fn bar(&mut self, name: &str, fields: &str, pass: bool, summary: impl Display) {
        println!(
            "acceptance [{}]: {summary}",
            if pass { "PASS" } else { "FAIL" }
        );
        let sep = if fields.is_empty() { "" } else { ", " };
        self.row(&format!(
            "\"acceptance\": \"{name}\"{sep}{fields}, \"pass\": {pass}"
        ));
        self.pass &= pass;
    }

    /// Writes the artifact (to `<path>.tmp`, then renamed into place, so an
    /// interrupted run never leaves a truncated file) and returns whether
    /// every bar passed, no row failed and the write succeeded.
    pub fn finish(self) -> bool {
        if !self.write {
            return self.pass;
        }
        let path = self.path.display();
        let json = format!("[\n{}\n]\n", self.rows.join(",\n"));
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        match std::fs::write(&tmp, json).and_then(|()| std::fs::rename(&tmp, &self.path)) {
            Ok(()) => {
                println!("wrote {path} ({} rows)", self.rows.len());
                self.pass
            }
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                false
            }
        }
    }
}

/// JSON rendering of an optional value: the value itself, or `null`.
pub fn or_null(v: Option<impl Display>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Renders rows in the layout of the paper's Tables 1–4.
pub fn format_table(title: &str, rows: &[ExperimentRow], limit: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<6} {:>5} {:>5} {:>2} {:>6} {:>2} {:>6} {:>7} {:>9} {:>8} {:>6} {:>4} {:>8} {}\n",
        "Graph",
        "Tasks",
        "Opers",
        "N",
        "A+M+S",
        "L",
        "Var",
        "Const",
        "RunTime",
        "Feasible",
        "Cost",
        "Used",
        "Nodes",
        "Rule"
    ));
    for r in rows {
        let (a, m, s) = r.ams;
        out.push_str(&format!(
            "{:<6} {:>5} {:>5} {:>2} {:>6} {:>2} {:>6} {:>7} {:>9} {:>8} {:>6} {:>4} {:>8} {}\n",
            r.graph_no,
            r.tasks,
            r.opers,
            r.n,
            format!("{a}+{m}+{s}"),
            r.l,
            r.vars,
            r.consts,
            r.runtime_display(limit),
            r.feasible_display(),
            r.cost.map_or("-".to_string(), |c| c.to_string()),
            r.partitions_used.map_or("-".to_string(), |u| u.to_string()),
            r.nodes,
            r.rule,
        ));
    }
    out
}

/// Renders rows as a Markdown table (for EXPERIMENTS.md).
pub fn format_markdown(rows: &[ExperimentRow], limit: f64) -> String {
    let mut out = String::new();
    out.push_str(
        "| Graph | N | A+M+S | L | Var | Const | RunTime (s) | Feasible | Cost | Used | Nodes |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|\n");
    for r in rows {
        let (a, m, s) = r.ams;
        out.push_str(&format!(
            "| {} | {} | {a}+{m}+{s} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
            r.graph_no,
            r.n,
            r.l,
            r.vars,
            r.consts,
            r.runtime_display(limit),
            r.feasible_display(),
            r.cost.map_or("-".to_string(), |c| c.to_string()),
            r.partitions_used.map_or("-".to_string(), |u| u.to_string()),
            r.nodes,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempart_core::RuleKind;
    use tempart_lp::MipStats;

    fn sample_row() -> ExperimentRow {
        ExperimentRow {
            graph_no: 1,
            tasks: 5,
            opers: 22,
            n: 3,
            ams: (2, 2, 1),
            l: 1,
            vars: 230,
            consts: 656,
            nnz: 2816,
            seconds: 8.96,
            timed_out: false,
            feasible: Some(true),
            cost: Some(12),
            partitions_used: Some(3),
            nodes: 42,
            lp_iterations: 1000,
            stats: MipStats::default(),
            rule: RuleKind::Paper,
        }
    }

    #[test]
    fn text_table_contains_columns() {
        let s = format_table("Table X", &[sample_row()], 7200.0);
        assert!(s.contains("Table X"));
        assert!(s.contains("2+2+1"));
        assert!(s.contains("8.96"));
        assert!(s.contains("Yes"));
    }

    #[test]
    fn markdown_table_renders() {
        let mut r = sample_row();
        r.timed_out = true;
        let s = format_markdown(&[r], 7200.0);
        assert!(s.starts_with("| Graph"));
        assert!(s.contains(">7200"));
    }

    /// A scratch path unique to this test process and `name`.
    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("tempart-report-{}-{name}", std::process::id()))
    }

    #[test]
    fn failed_bar_fails_the_report() {
        let mut report = Report::new(scratch("unused"), false);
        report.bar("a", "", true, "a holds");
        report.bar("b", "\"value\": 2", false, "b misses");
        assert!(!report.finish());

        let mut report = Report::new(scratch("unused"), false);
        report.error("row failed");
        assert!(!report.finish());
    }

    #[test]
    fn artifact_lands_whole_with_no_tmp_left() {
        let path = scratch("whole.json");
        let mut report = Report::new(&path, true);
        report.row("\"instance\": \"g1\", \"cost\": 13");
        report.bar("cost_13", "\"cost\": 13", true, "cost 13");
        report.bar("empty", "", true, "no fields");
        assert!(report.finish());
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            written,
            "[\n  {\"instance\": \"g1\", \"cost\": 13},\n  \
             {\"acceptance\": \"cost_13\", \"cost\": 13, \"pass\": true},\n  \
             {\"acceptance\": \"empty\", \"pass\": true}\n]\n"
        );
        assert!(!scratch("whole.json.tmp").exists());
    }

    #[test]
    fn smoke_report_writes_nothing() {
        let path = scratch("smoke.json");
        let mut report = Report::new(&path, false);
        report.row("\"instance\": \"g1\"");
        report.bar("holds", "", true, "holds");
        assert!(report.finish());
        assert!(!path.exists());
        assert!(!scratch("smoke.json.tmp").exists());
    }
}
