//! CLI driver: `cargo run -p xlint -- check [--json PATH] [--root DIR]`.
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage/config error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd: Option<&str> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut root: Option<PathBuf> = None;
    let mut i = 0usize;
    while i < args.len() {
        match args[i].as_str() {
            "check" if cmd.is_none() => cmd = Some("check"),
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(p) => json_out = Some(PathBuf::from(p)),
                    None => return usage("--json needs a path"),
                }
            }
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root = Some(PathBuf::from(p)),
                    None => return usage("--root needs a directory"),
                }
            }
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if cmd != Some("check") {
        return usage("missing subcommand `check`");
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| xlint::find_root(&cwd))
    }) {
        Some(r) => r,
        None => {
            eprintln!("xlint: no xlint.toml found in this or any parent directory");
            return ExitCode::from(2);
        }
    };

    let report = match xlint::check_root(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xlint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("xlint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.to_human());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("xlint: {err}");
    }
    eprintln!(
        "usage: cargo run -p xlint -- check [--json PATH] [--root DIR]\n\
         \n\
         Statically checks the workspace against the rule catalogue in\n\
         xlint.toml (DESIGN.md §10). Exit 0 = clean, 1 = violations,\n\
         2 = usage/config error."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
