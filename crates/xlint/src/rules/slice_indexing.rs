//! Slice-indexing ratchet (category 1, panic-freedom).
//!
//! `expr[..]` indexing panics out of bounds. Existing sites are
//! grandfathered through a per-file ratchet baseline
//! (`[baseline.slice_indexing]` in `xlint.toml`): a file may shrink its
//! count but never grow it. An entry naming no scanned file is noted like
//! any other slack, so a file re-created at that path starts from zero.
//! The rest of the panic rule — no `unwrap`, `expect`, `panic!`,
//! `unreachable!` in library code — is held by clippy's deny attributes
//! at the crate roots.

use super::{files_in_scope, is_punct, Emitter};
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::Workspace;

const RULE: &str = "slice_indexing";

/// Keywords that can directly precede `[` without forming an index
/// expression (`match x { .. }[..]` is not real code; `return [..]` is an
/// array literal).
const NON_INDEX_PREFIX: &[&str] = &[
    "if", "in", "return", "else", "match", "mut", "ref", "as", "move", "loop", "while", "for",
    "break", "continue", "where", "unsafe", "dyn", "impl", "let", "const", "static", "fn", "use",
    "pub", "enum", "struct", "trait", "type", "mod",
];

/// Runs the ratcheted slice-indexing check.
pub fn run(ws: &Workspace, cfg: &Config, em: &mut Emitter) {
    let baseline = cfg.int_table("baseline.slice_indexing");
    let scope = files_in_scope(ws, cfg, RULE);
    for &fi in &scope {
        let lexed = &ws.files[fi].lexed;
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for (i, tok) in lexed.tokens.iter().enumerate() {
            if lexed.test_gated[i] || !is_punct(&tok.kind, "[") {
                continue;
            }
            let indexes = match i.checked_sub(1).map(|p| &lexed.tokens[p].kind) {
                // `foo[`, `foo()[`, `foo[0][` — an expression is being
                // indexed. `vec![` has `!` before the bracket, `#[attr]`
                // has `#`, array types/literals have `:`/`=`/`(`/`<`.
                Some(TokenKind::Ident(s)) => !NON_INDEX_PREFIX.contains(&s.as_str()),
                Some(k) => is_punct(k, ")") || is_punct(k, "]"),
                None => false,
            };
            if indexes && !em.is_suppressed(ws, fi, tok.line, RULE) {
                candidates.push((tok.line, tok.col));
            }
        }
        let path = ws.files[fi].path.clone();
        let allowed = baseline.get(&path).copied().unwrap_or(0).max(0) as usize;
        if candidates.len() > allowed {
            for (line, col) in &candidates {
                em.report.diagnostics.push(Diagnostic {
                    rule: RULE,
                    path: path.clone(),
                    line: *line,
                    col: *col,
                    message: format!(
                        "slice indexing can panic; this file has {} index sites but the \
                         xlint.toml baseline allows {allowed} — use `.get(..)`, iterators, \
                         or fix the baseline only when reviewed",
                        candidates.len()
                    ),
                });
            }
        } else if candidates.len() < allowed {
            em.report
                .notes
                .push(slack_note(&path, allowed, candidates.len()));
        }
    }
    for (path, &allowed) in &baseline {
        if allowed > 0 && !scope.iter().any(|&fi| ws.files[fi].path == *path) {
            em.report.notes.push(slack_note(path, allowed as usize, 0));
        }
    }
}

/// The note for a baseline entry that allows more sites than remain.
fn slack_note(path: &str, allowed: usize, sites: usize) -> String {
    format!(
        "{path}: slice_indexing baseline is {allowed} but only {sites} sites remain — \
         tighten xlint.toml"
    )
}
