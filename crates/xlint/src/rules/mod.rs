//! The rule engine: shared scan context, suppression accounting, and
//! the individual rule passes.
//!
//! Rule catalogue (see DESIGN.md §10). A rule runs when `xlint.toml`
//! gives its section a `paths` list. The rest of the panic rule and the
//! float rule are held by rustc/clippy (crate-root `deny` attributes and
//! `clippy.toml`), instrumentation names by the type checker
//! (`obs::names` constants), and socket deadlines by both
//! (`serve::conn::Conn` plus `clippy.toml`'s ban on raw `TcpStream`),
//! not here.
//!
//! | id | category | what it enforces |
//! |---|---|---|
//! | `slice_indexing` | panic-freedom | no *new* `expr[...]` indexing (ratcheted per-file baseline) |
//! | `admissibility_coverage` | admissibility | every `DistanceMeasure` impl appears in the bound-matrix property test |
//! | `lock_discipline` | concurrency | `Mutex`/`RwLock` fields are registered, acquired in registry order, and guards are not held across blocking calls |
//! | `suppression` | hygiene | `xlint:allow` needs a reason and must actually suppress something |

pub mod admissibility;
pub mod lock_discipline;
pub mod slice_indexing;

use crate::config::Config;
use crate::diag::{Diagnostic, Report};
use crate::lexer::TokenKind;
use crate::Workspace;

type Rule = fn(&Workspace, &Config, &mut Emitter);

/// Rule identifiers (each one's `xlint.toml` section) and passes, in
/// execution order.
const RULES: &[(&str, Rule)] = &[
    ("slice_indexing", slice_indexing::run),
    ("admissibility_coverage", admissibility::run),
    ("lock_discipline", lock_discipline::run),
];

/// Shared mutable state while rules run: the report plus per-file
/// bookkeeping of which suppression directives were consumed.
pub struct Emitter {
    /// The report being built.
    pub report: Report,
    /// `used[file][suppression]` — directive consumed by some rule.
    used: Vec<Vec<bool>>,
}

impl Emitter {
    /// Fresh emitter for a workspace.
    pub fn new(ws: &Workspace) -> Emitter {
        Emitter {
            report: Report::default(),
            used: ws
                .files
                .iter()
                .map(|f| vec![false; f.lexed.suppressions.len()])
                .collect(),
        }
    }

    /// Returns true (and records the use) when a violation of `rule` at
    /// `line` of file `fi` is covered by an `xlint:allow` on the same
    /// line or the line directly above.
    pub fn is_suppressed(&mut self, ws: &Workspace, fi: usize, line: usize, rule: &str) -> bool {
        let sups = &ws.files[fi].lexed.suppressions;
        for (si, sup) in sups.iter().enumerate() {
            if (sup.line == line || sup.line + 1 == line)
                && sup.rules.iter().any(|r| r == rule || r == "all")
            {
                self.used[fi][si] = true;
                return true;
            }
        }
        false
    }

    /// Emits a diagnostic unless suppressed. Returns whether it was
    /// emitted.
    pub fn emit(
        &mut self,
        ws: &Workspace,
        fi: usize,
        rule: &'static str,
        line: usize,
        col: usize,
        message: String,
    ) -> bool {
        if self.is_suppressed(ws, fi, line, rule) {
            return false;
        }
        self.report.diagnostics.push(Diagnostic {
            rule,
            path: ws.files[fi].path.clone(),
            line,
            col,
            message,
        });
        true
    }

    /// Suppression hygiene: every directive needs a reason, and must
    /// have matched at least one would-be violation.
    pub fn check_suppression_hygiene(&mut self, ws: &Workspace) {
        for (fi, file) in ws.files.iter().enumerate() {
            for (si, sup) in file.lexed.suppressions.iter().enumerate() {
                if !sup.has_reason {
                    self.report.diagnostics.push(Diagnostic {
                        rule: "suppression",
                        path: file.path.clone(),
                        line: sup.line,
                        col: 1,
                        message: format!(
                            "xlint:allow({}) has no reason — write `// xlint:allow({}): why`",
                            sup.rules.join(", "),
                            sup.rules.join(", ")
                        ),
                    });
                } else if !self.used[fi][si] {
                    self.report.diagnostics.push(Diagnostic {
                        rule: "suppression",
                        path: file.path.clone(),
                        line: sup.line,
                        col: 1,
                        message: format!(
                            "unused suppression xlint:allow({}) — the code it excused is gone; remove it",
                            sup.rules.join(", ")
                        ),
                    });
                }
            }
        }
    }
}

/// Runs every rule whose section sets `paths`, then suppression
/// hygiene, and returns the report.
pub fn run_all(ws: &Workspace, cfg: &Config) -> Report {
    let mut em = Emitter::new(ws);
    for (name, run) in RULES {
        if cfg.get(&format!("{name}.paths")).is_some() {
            run(ws, cfg, &mut em);
        }
    }
    em.check_suppression_hygiene(ws);
    let mut report = em.report;
    report.files_scanned = ws.files.len();
    report.finish();
    report
}

/// Indices of files whose path starts with any of the configured
/// prefixes (config key `<rule>.paths`), minus any `<rule>.exclude`
/// prefixes.
pub fn files_in_scope(ws: &Workspace, cfg: &Config, rule: &str) -> Vec<usize> {
    let paths = cfg.list(&format!("{rule}.paths"));
    let exclude = cfg.list(&format!("{rule}.exclude"));
    ws.files
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            paths.iter().any(|p| f.path.starts_with(p.as_str()))
                && !exclude.iter().any(|p| f.path.starts_with(p.as_str()))
        })
        .map(|(i, _)| i)
        .collect()
}

/// Convenience: is this token the identifier `s`?
pub fn is_ident(kind: &TokenKind, s: &str) -> bool {
    matches!(kind, TokenKind::Ident(i) if i == s)
}

/// Convenience: is this token the punctuation `p`?
pub fn is_punct(kind: &TokenKind, p: &str) -> bool {
    matches!(kind, TokenKind::Punct(q) if *q == p)
}
