//! `lock_discipline` — registered locks, ordered acquisition, no
//! blocking calls under a guard.
//!
//! The cluster stack holds its shared state behind `Mutex`/`RwLock`
//! fields (worker permits, breaker cores, telemetry rings). The
//! failure modes are classic: two locks taken in opposite orders on
//! two code paths deadlock under load; a guard held across a blocking
//! call (`join`, socket I/O, channel `recv`) turns one slow peer into
//! a stalled process. Neither is visible in review once the
//! acquisition and the blocking call drift a few lines apart.
//!
//! This rule makes the discipline declarative:
//!
//! 1. every `Mutex`/`RwLock` **struct field** in scope must be
//!    registered as `"Struct.field"` in the `[lock_discipline] order`
//!    list of `xlint.toml` — an unregistered lock fails the lint, so
//!    new shared state is forced through the registry;
//! 2. the `order` list is outermost-first: acquiring a lock whose
//!    registry index is *smaller* than one already held is an
//!    ordering violation;
//! 3. while any guard is live, calling a configured blocking
//!    identifier (`blocking` list: `join`, `connect`, `recv`, frame
//!    I/O, `sleep`, ...) is a violation;
//! 4. stale `order` entries (no matching field in scope) fail, so the
//!    registry cannot rot.
//!
//! Guard liveness is tracked lexically: `let g = self.field.lock()`
//! lives until its enclosing block closes or an explicit `drop(g)`;
//! an un-bound guard (`self.field.lock().x = y;`) lives to the end of
//! the statement. Acquisition is recognized as `field.lock()`,
//! `field.read()` or `field.write()` with **empty** argument lists,
//! which keeps `io::Write::write(buf)` out of scope. Condvar waits
//! (`wait_timeout_while` etc.) consume the guard by value and are
//! deliberately not in the default blocking list.

use super::{files_in_scope, is_ident, is_punct, Emitter};
use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::Workspace;
use std::collections::{BTreeMap, BTreeSet};

const RULE: &str = "lock_discipline";

/// Runs the rule.
pub fn run(ws: &Workspace, cfg: &Config, em: &mut Emitter) {
    let order = cfg.list("lock_discipline.order");
    let blocking = cfg.list("lock_discipline.blocking");
    let scope = files_in_scope(ws, cfg, RULE);

    // Map field-name -> smallest registry index using that field name.
    // (Two structs may both call a field `inner`; the guard tracker is
    // name-based, so the strictest — outermost — index wins.)
    let mut field_index: BTreeMap<&str, usize> = BTreeMap::new();
    for (idx, key) in order.iter().enumerate() {
        if let Some((_, field)) = key.split_once('.') {
            field_index.entry(field).or_insert(idx);
        }
    }

    // Pass 1: find every Mutex/RwLock struct field in scope.
    let mut seen_keys: BTreeSet<String> = BTreeSet::new();
    for &fi in &scope {
        scan_struct_fields(ws, em, fi, &order, &mut seen_keys);
    }
    for key in &order {
        if !seen_keys.contains(key) {
            em.report.diagnostics.push(Diagnostic {
                rule: RULE,
                path: "xlint.toml".to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "[lock_discipline] order entry \"{key}\" matches no Mutex/RwLock \
                     struct field in scope — remove the stale entry or restore the field"
                ),
            });
        }
    }

    // Pass 2: guard tracking per file.
    for &fi in &scope {
        track_guards(ws, em, fi, &order, &field_index, &blocking);
    }
}

/// Finds `struct S { .. field: ..Mutex/RwLock.. }` fields and checks
/// registry membership.
fn scan_struct_fields(
    ws: &Workspace,
    em: &mut Emitter,
    fi: usize,
    order: &[String],
    seen_keys: &mut BTreeSet<String>,
) {
    let file = &ws.files[fi];
    let toks = &file.lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if !is_ident(&toks[i].kind, "struct") || file.lexed.test_gated[i] {
            i += 1;
            continue;
        }
        let Some(TokenKind::Ident(struct_name)) = toks.get(i + 1).map(|t| &t.kind) else {
            i += 1;
            continue;
        };
        let struct_name = struct_name.clone();
        // Find the body `{`, skipping generic params; `;` or `(` means
        // a unit/tuple struct — no named fields to check.
        let mut j = i + 2;
        let mut angle = 0i32;
        let body_open = loop {
            match toks.get(j).map(|t| &t.kind) {
                Some(TokenKind::Punct("<")) => angle += 1,
                Some(TokenKind::Punct(">")) => angle -= 1,
                Some(TokenKind::Punct("{")) if angle == 0 => break Some(j),
                Some(TokenKind::Punct(";")) | Some(TokenKind::Punct("(")) if angle == 0 => {
                    break None
                }
                None => break None,
                _ => {}
            }
            j += 1;
        };
        let Some(open) = body_open else {
            i += 1;
            continue;
        };
        // Walk the body at depth 1; a field is `name :` with the type
        // running to the next comma at depth 1 (or the closing brace).
        let mut depth = 0i32;
        let mut k = open;
        while k < toks.len() {
            match &toks[k].kind {
                TokenKind::Punct("{") | TokenKind::Punct("(") | TokenKind::Punct("[") => depth += 1,
                TokenKind::Punct("}") | TokenKind::Punct(")") | TokenKind::Punct("]") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Punct(":") if depth == 1 => {
                    if let Some(TokenKind::Ident(field)) = toks.get(k - 1).map(|t| &t.kind) {
                        // Scan the type tokens for Mutex/RwLock.
                        let mut t = k + 1;
                        let mut tdepth = 0i32;
                        let mut is_lock = false;
                        while let Some(tok) = toks.get(t) {
                            match &tok.kind {
                                TokenKind::Punct("{")
                                | TokenKind::Punct("(")
                                | TokenKind::Punct("[") => tdepth += 1,
                                TokenKind::Punct("}")
                                | TokenKind::Punct(")")
                                | TokenKind::Punct("]") => {
                                    if tdepth == 0 {
                                        break;
                                    }
                                    tdepth -= 1;
                                }
                                TokenKind::Punct(",") if tdepth == 0 => break,
                                TokenKind::Ident(id) if id == "Mutex" || id == "RwLock" => {
                                    is_lock = true;
                                }
                                _ => {}
                            }
                            t += 1;
                        }
                        if is_lock {
                            let key = format!("{struct_name}.{field}");
                            if order.contains(&key) {
                                seen_keys.insert(key);
                            } else {
                                em.emit(
                                    ws,
                                    fi,
                                    RULE,
                                    toks[k - 1].line,
                                    toks[k - 1].col,
                                    format!(
                                        "lock field `{key}` is not registered in the \
                                         [lock_discipline] order list of xlint.toml — every \
                                         shared Mutex/RwLock must be registered (outermost \
                                         first) so the ordering ratchet can see it"
                                    ),
                                );
                            }
                        }
                    }
                }
                _ => {}
            }
            k += 1;
        }
        i = k.max(i + 1);
    }
}

/// A live guard.
struct Guard {
    /// Registry index of the lock (for ordering checks).
    index: usize,
    /// Registry key, for messages.
    key: String,
    /// Let-bound variable name, if any.
    var: Option<String>,
    /// Brace depth at acquisition; the guard dies when depth drops
    /// below this.
    depth: i32,
    /// Un-bound temporary: dies at the next `;` at its depth.
    until_semi: bool,
    /// Acquisition line, for messages.
    line: usize,
}

/// Tracks guard liveness through a file, flagging ordering violations
/// and blocking calls under a guard.
fn track_guards(
    ws: &Workspace,
    em: &mut Emitter,
    fi: usize,
    order: &[String],
    field_index: &BTreeMap<&str, usize>,
    blocking: &[String],
) {
    let file = &ws.files[fi];
    let toks = &file.lexed.tokens;
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        if file.lexed.test_gated[i] {
            i += 1;
            continue;
        }
        match &toks[i].kind {
            TokenKind::Punct("{") => depth += 1,
            TokenKind::Punct("}") => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            TokenKind::Punct(";") => {
                guards.retain(|g| !(g.until_semi && g.depth >= depth));
            }
            // drop(g) releases a named guard early.
            TokenKind::Ident(id) if id == "drop" => {
                if let (
                    Some(TokenKind::Punct("(")),
                    Some(TokenKind::Ident(var)),
                    Some(TokenKind::Punct(")")),
                ) = (
                    toks.get(i + 1).map(|t| &t.kind),
                    toks.get(i + 2).map(|t| &t.kind),
                    toks.get(i + 3).map(|t| &t.kind),
                ) {
                    guards.retain(|g| g.var.as_deref() != Some(var.as_str()));
                }
            }
            TokenKind::Ident(id) => {
                // Acquisition: field.lock() / field.read() / field.write()
                // with empty argument lists.
                let acquires = field_index.get(id.as_str()).copied().and_then(|index| {
                    let verb = match toks.get(i + 2).map(|t| &t.kind) {
                        Some(TokenKind::Ident(v))
                            if (v == "lock" || v == "read" || v == "write")
                                && is_punct(&toks[i + 1].kind, ".")
                                && toks.get(i + 3).is_some_and(|t| is_punct(&t.kind, "("))
                                && toks.get(i + 4).is_some_and(|t| is_punct(&t.kind, ")")) =>
                        {
                            v
                        }
                        _ => return None,
                    };
                    let _ = verb;
                    Some(index)
                });
                if let Some(index) = acquires {
                    let key = order
                        .iter()
                        .find(|k| k.split_once('.').map(|(_, f)| f) == Some(id.as_str()))
                        .cloned()
                        .unwrap_or_else(|| id.clone());
                    for g in &guards {
                        if index < g.index {
                            em.emit(
                                ws,
                                fi,
                                RULE,
                                toks[i].line,
                                toks[i].col,
                                format!(
                                    "lock `{key}` acquired while holding `{}` (line {}) — \
                                     this inverts the [lock_discipline] order registry in \
                                     xlint.toml; acquire locks outermost-first",
                                    g.key, g.line
                                ),
                            );
                        }
                    }
                    // Let-binding? walk back over the receiver chain
                    // (`self.inner`, `shared.queue.inner`) looking for
                    // `let [mut] var =`.
                    let mut recv = i;
                    while recv >= 2
                        && is_punct(&toks[recv - 1].kind, ".")
                        && matches!(&toks[recv - 2].kind, TokenKind::Ident(_))
                    {
                        recv -= 2;
                    }
                    let mut var = None;
                    if recv >= 2 && is_punct(&toks[recv - 1].kind, "=") {
                        let mut v = recv - 2;
                        if let TokenKind::Ident(name) = &toks[v].kind {
                            let name = name.clone();
                            if v >= 1 && is_ident(&toks[v - 1].kind, "mut") {
                                v -= 1;
                            }
                            if v >= 1 && is_ident(&toks[v - 1].kind, "let") {
                                var = Some(name);
                            }
                        }
                    }
                    let until_semi = var.is_none();
                    guards.push(Guard {
                        index,
                        key,
                        var,
                        depth,
                        until_semi,
                        line: toks[i].line,
                    });
                } else if !guards.is_empty()
                    && blocking.iter().any(|b| b == id)
                    && toks.get(i + 1).is_some_and(|t| is_punct(&t.kind, "("))
                {
                    let g = &guards[guards.len() - 1];
                    let (line, col) = (toks[i].line, toks[i].col);
                    let msg = format!(
                        "blocking call `{id}(..)` while holding lock `{}` (acquired line {}) — \
                         drop the guard first or move the blocking work outside the \
                         critical section",
                        g.key, g.line
                    );
                    em.emit(ws, fi, RULE, line, col, msg);
                }
            }
            _ => {}
        }
        i += 1;
    }
}
