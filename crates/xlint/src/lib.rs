#![deny(missing_docs)]

//! `xlint` — workspace static analysis for the earthmover codebase.
//!
//! The correctness of the multistep EMD pipeline rests on properties the
//! compiler cannot see: filters must be admissible lower bounds, slice
//! indexing on query paths may only shrink, and locks must nest in one
//! order. `xlint` machine-checks those contracts on every PR
//! (`cargo run -p xlint -- check`) with a hand-rolled lexer over every
//! workspace `.rs` file — zero dependencies, fully offline, no compiler
//! plugins. What rustc and clippy can check — no
//! `unwrap`/`expect`/`panic!`/`unreachable!` in library code, no exact
//! float compares, span and metric names spelled one way, a deadline on
//! every socket read and write — they do, through crate-root `deny`
//! attributes, `clippy.toml`, the `obs::names` constants and
//! `serve::conn::Conn`.
//!
//! See `xlint.toml` at the workspace root for rule scopes, the
//! slice-indexing ratchet baseline, and suppression policy, and
//! DESIGN.md §10 for the rule catalogue.

pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;

use config::Config;
use diag::Report;
use lexer::LexedFile;
use std::path::{Path, PathBuf};

/// One lexed source file of the workspace.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Its token stream and overlays.
    pub lexed: LexedFile,
}

/// Every `.rs` file the checker can see, lexed once and shared by all
/// rules.
#[derive(Debug, Default)]
pub struct Workspace {
    /// The files, in discovery order.
    pub files: Vec<SourceFile>,
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

impl Workspace {
    /// Loads and lexes every `.rs` file under `root`'s `crates/`, `src/`
    /// and `tests/` directories, skipping build output, vendored stubs,
    /// and lint-test fixtures.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut files = Vec::new();
        for top in ["crates", "src", "tests"] {
            let dir = root.join(top);
            if dir.is_dir() {
                walk(root, &dir, &mut files)?;
            }
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Workspace { files })
    }

    /// Builds a workspace from in-memory `(path, source)` pairs — the
    /// fixture tests use this to exercise rules without touching disk.
    pub fn from_sources<I, P, S>(sources: I) -> Workspace
    where
        I: IntoIterator<Item = (P, S)>,
        P: Into<String>,
        S: AsRef<str>,
    {
        let files = sources
            .into_iter()
            .map(|(p, s)| SourceFile {
                path: p.into(),
                lexed: LexedFile::lex(s.as_ref()),
            })
            .collect();
        Workspace { files }
    }
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            let source = std::fs::read_to_string(&path)?;
            out.push(SourceFile {
                path: rel,
                lexed: LexedFile::lex(&source),
            });
        }
    }
    Ok(())
}

/// Runs every configured rule and returns the sorted report.
pub fn check(ws: &Workspace, cfg: &Config) -> Report {
    rules::run_all(ws, cfg)
}

/// Convenience for the CLI and the self-check test: load `xlint.toml`
/// and the workspace under `root`, run all rules.
pub fn check_root(root: &Path) -> Result<Report, String> {
    let cfg_path = root.join("xlint.toml");
    let text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = Config::parse(&text).map_err(|e| e.to_string())?;
    let ws = Workspace::load(root).map_err(|e| format!("workspace scan failed: {e}"))?;
    Ok(check(&ws, &cfg))
}

/// Walks up from `start` to the directory containing `xlint.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("xlint.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
