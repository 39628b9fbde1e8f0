//! Diagnostics: the violation record, the report, and its two output
//! formats (human terminal lines, machine-readable JSON).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Rule identifier (e.g. `slice_indexing`).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong and how to fix it.
    pub message: String,
}

/// The outcome of a full check run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations, sorted by rule, then path, line, column.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Non-fatal notes (e.g. a baseline entry that can be tightened).
    pub notes: Vec<String>,
}

impl Report {
    /// True when the run found no violations.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Violation counts per rule.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for d in &self.diagnostics {
            *out.entry(d.rule).or_insert(0) += 1;
        }
        out
    }

    /// Sorts diagnostics into a stable display order: rule first, then
    /// position. Rule-major order keeps the JSON artifact diff-stable
    /// across runs — filesystem walk order and per-rule emission order
    /// never leak into the report.
    pub fn finish(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.rule, &a.path, a.line, a.col).cmp(&(b.rule, &b.path, b.line, b.col))
        });
    }

    /// Human-readable report (one line per violation plus a summary).
    pub fn to_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "error[{}]: {}:{}:{}: {}",
                d.rule, d.path, d.line, d.col, d.message
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        if self.is_clean() {
            let _ = writeln!(
                out,
                "xlint: {} files checked, no violations",
                self.files_scanned
            );
        } else {
            let per_rule: Vec<String> = self
                .counts()
                .into_iter()
                .map(|(rule, n)| format!("{rule}: {n}"))
                .collect();
            let _ = writeln!(
                out,
                "xlint: {} files checked, {} violation(s) ({})",
                self.files_scanned,
                self.diagnostics.len(),
                per_rule.join(", ")
            );
        }
        out
    }

    /// Machine-readable JSON report.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"version\":1,\"files_scanned\":");
        let _ = write!(out, "{}", self.files_scanned);
        out.push_str(",\"violations\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"rule\":{},\"path\":{},\"line\":{},\"col\":{},\"message\":{}}}",
                json_str(d.rule),
                json_str(&d.path),
                d.line,
                d.col,
                json_str(&d.message)
            );
        }
        out.push_str("],\"summary\":{");
        for (i, (rule, n)) in self.counts().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(rule), n);
        }
        out.push_str("},\"notes\":[");
        for (i, note) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(note));
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_sorts() {
        let mut r = Report {
            files_scanned: 2,
            ..Default::default()
        };
        r.diagnostics.push(Diagnostic {
            rule: "b_rule",
            path: "z.rs".into(),
            line: 1,
            col: 1,
            message: "has \"quotes\"".into(),
        });
        r.diagnostics.push(Diagnostic {
            rule: "a_rule",
            path: "a.rs".into(),
            line: 9,
            col: 2,
            message: "x".into(),
        });
        r.finish();
        assert_eq!(r.diagnostics[0].path, "a.rs");
        assert_eq!(r.diagnostics[0].rule, "a_rule", "rule-major sort order");
        let json = r.to_json();
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"files_scanned\":2"));
        assert!(!r.is_clean());
        assert_eq!(r.counts().get("a_rule"), Some(&1));
    }
}
