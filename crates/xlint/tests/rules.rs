//! Fixture tests for every xlint rule: a positive case (the violation is
//! caught), a negative case (compliant code passes), a suppression case
//! (`xlint:allow` with a reason silences exactly one site), and — for
//! the ratcheted rule — baseline behaviour. The workspaces are built
//! in memory with [`Workspace::from_sources`]; no fixture files on disk.
//!
//! The final test is the self-check: the real workspace must be clean
//! under the real `xlint.toml`.

use xlint::config::Config;
use xlint::diag::Report;
use xlint::{check, Workspace};

/// Runs the checker over in-memory `(path, source)` pairs.
fn run(cfg: &str, sources: &[(&str, &str)]) -> Report {
    let cfg = Config::parse(cfg).expect("fixture config parses");
    let ws = Workspace::from_sources(sources.iter().map(|(p, s)| (*p, *s)));
    check(&ws, &cfg)
}

/// Rule ids of all diagnostics, in report order.
fn rules_of(r: &Report) -> Vec<&'static str> {
    r.diagnostics.iter().map(|d| d.rule).collect()
}

/// A config with only the named rule's section (plus suppression
/// hygiene, which always runs) over `crates/demo/src`.
fn only(rule: &str, extra: &str) -> String {
    format!("[{rule}]\npaths = [\"crates/demo/src\"]\n{extra}")
}

// ------------------------------------------------------------------
// slice_indexing (ratchet baseline)

#[test]
fn slice_indexing_flags_new_sites_over_baseline() {
    let src = "pub fn f(v: &[u32]) -> u32 { v[0] + v[1] }\n";
    let r = run(
        &only("slice_indexing", ""),
        &[("crates/demo/src/lib.rs", src)],
    );
    assert_eq!(rules_of(&r), vec!["slice_indexing"; 2], "{}", r.to_human());
}

#[test]
fn slice_indexing_baseline_grandfathers_exact_count() {
    let src = "pub fn f(v: &[u32]) -> u32 { v[0] + v[1] }\n";
    let cfg = only(
        "slice_indexing",
        "[baseline.slice_indexing]\n\"crates/demo/src/lib.rs\" = 2\n",
    );
    let r = run(&cfg, &[("crates/demo/src/lib.rs", src)]);
    assert!(r.is_clean(), "{}", r.to_human());
    assert!(r.notes.is_empty(), "no ratchet note at the exact count");
}

#[test]
fn slice_indexing_shrinking_below_baseline_notes_the_ratchet() {
    let src = "pub fn f(v: &[u32]) -> u32 { v[0] }\n";
    let cfg = only(
        "slice_indexing",
        "[baseline.slice_indexing]\n\"crates/demo/src/lib.rs\" = 5\n",
    );
    let r = run(&cfg, &[("crates/demo/src/lib.rs", src)]);
    assert!(r.is_clean(), "{}", r.to_human());
    assert_eq!(r.notes.len(), 1, "a tightening note is emitted");
}

#[test]
fn slice_indexing_notes_a_baseline_entry_for_a_missing_file() {
    let src = "pub fn f(v: &[u32]) -> u32 { v[0] }\n";
    let cfg = only(
        "slice_indexing",
        "[baseline.slice_indexing]\n\"crates/demo/src/lib.rs\" = 1\n\
         \"crates/demo/src/gone.rs\" = 3\n",
    );
    let r = run(&cfg, &[("crates/demo/src/lib.rs", src)]);
    assert!(r.is_clean(), "{}", r.to_human());
    assert_eq!(r.notes.len(), 1, "{:?}", r.notes);
    assert!(
        r.notes[0].starts_with("crates/demo/src/gone.rs: slice_indexing baseline is 3 but only 0"),
        "{}",
        r.notes[0]
    );
}

#[test]
fn slice_indexing_ignores_types_attributes_and_test_code() {
    let src = r#"
#[derive(Debug)]
pub struct Buf { data: [u8; 16] }

pub fn mk() -> [u8; 4] { [0u8; 4] }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { let v = vec![1, 2]; assert_eq!(v[0], 1); }
}
"#;
    let r = run(
        &only("slice_indexing", ""),
        &[("crates/demo/src/lib.rs", src)],
    );
    assert!(r.is_clean(), "{}", r.to_human());
}

// ------------------------------------------------------------------
// admissibility_coverage

/// Config for the admissibility fixtures: trait `Bound`, matrix test at
/// `crates/demo/tests/matrix.rs`, `Exempted` excused.
fn admissibility_cfg() -> String {
    only(
        "admissibility_coverage",
        "trait = \"Bound\"\nmatrix_test = \"crates/demo/tests/matrix.rs\"\nexempt = [\"Exempted\"]\n",
    )
}

const BOUND_IMPLS: &str = r#"
pub trait Bound { fn lb(&self) -> f64; }
pub struct Covered;
impl Bound for Covered { fn lb(&self) -> f64 { 0.0 } }
pub struct Missing;
impl Bound for Missing { fn lb(&self) -> f64 { 0.0 } }
pub struct Exempted;
impl Bound for Exempted { fn lb(&self) -> f64 { 0.0 } }
impl<T: Bound> Bound for &T { fn lb(&self) -> f64 { (**self).lb() } }
"#;

#[test]
fn admissibility_flags_impls_absent_from_the_matrix() {
    let matrix = "use demo::Covered;\n#[test]\nfn matrix() { let _ = Covered; }\n";
    let r = run(
        &admissibility_cfg(),
        &[
            ("crates/demo/src/lib.rs", BOUND_IMPLS),
            ("crates/demo/tests/matrix.rs", matrix),
        ],
    );
    // `Missing` is flagged; `Covered` is named, `Exempted` is excused,
    // and the `&T` blanket impl is structural.
    assert_eq!(
        rules_of(&r),
        vec!["admissibility_coverage"],
        "{}",
        r.to_human()
    );
    assert!(
        r.diagnostics[0].message.contains("Missing"),
        "{}",
        r.to_human()
    );
}

#[test]
fn admissibility_passes_when_every_impl_is_named() {
    let matrix =
        "use demo::{Covered, Missing};\n#[test]\nfn matrix() { let _ = (Covered, Missing); }\n";
    let r = run(
        &admissibility_cfg(),
        &[
            ("crates/demo/src/lib.rs", BOUND_IMPLS),
            ("crates/demo/tests/matrix.rs", matrix),
        ],
    );
    assert!(r.is_clean(), "{}", r.to_human());
}

#[test]
fn admissibility_requires_the_matrix_test_to_exist() {
    let r = run(
        &admissibility_cfg(),
        &[("crates/demo/src/lib.rs", BOUND_IMPLS)],
    );
    assert!(
        rules_of(&r).contains(&"admissibility_coverage"),
        "{}",
        r.to_human()
    );
    assert!(
        r.diagnostics[0].message.contains("not found"),
        "{}",
        r.to_human()
    );
}

// ------------------------------------------------------------------
// lock_discipline

const LOCK_CFG: &str = r#"order = ["Outer.inner", "Inner.state"]
blocking = ["join"]
"#;

const LOCK_STRUCTS: &str = r#"
pub struct Outer { inner: Mutex<u32> }
pub struct Inner { state: Mutex<u32> }
"#;

#[test]
fn lock_discipline_flags_unregistered_lock_field() {
    let src = format!(
        "{LOCK_STRUCTS}
pub struct Rogue {{ cache: Mutex<u32> }}
"
    );
    let r = run(
        &only("lock_discipline", LOCK_CFG),
        &[("crates/demo/src/lib.rs", &src)],
    );
    assert_eq!(rules_of(&r), vec!["lock_discipline"], "{}", r.to_human());
    assert!(
        r.diagnostics[0].message.contains("Rogue.cache"),
        "{}",
        r.to_human()
    );
}

#[test]
fn lock_discipline_flags_inversion_and_blocking_under_guard() {
    let src = format!(
        "{LOCK_STRUCTS}
pub fn tangled(o: &Outer, n: &Inner, worker: Worker) {{
    let h = n.state.lock();
    let g = o.inner.lock();
    worker.join();
}}
"
    );
    let r = run(
        &only("lock_discipline", LOCK_CFG),
        &[("crates/demo/src/lib.rs", &src)],
    );
    assert_eq!(rules_of(&r), vec!["lock_discipline"; 2], "{}", r.to_human());
    assert!(
        r.diagnostics[0].message.contains("inverts"),
        "{}",
        r.to_human()
    );
    assert!(
        r.diagnostics[1]
            .message
            .contains("blocking call `join(..)`"),
        "{}",
        r.to_human()
    );
}

#[test]
fn lock_discipline_accepts_ordered_and_released_guards() {
    let src = format!(
        "{LOCK_STRUCTS}
pub fn ordered(o: &Outer, n: &Inner, worker: Worker) {{
    let g = o.inner.lock();
    let h = n.state.lock();
    drop(h);
    drop(g);
    worker.join();
}}

pub fn scoped(o: &Outer, worker: Worker) {{
    {{
        let g = o.inner.lock();
        touch(&g);
    }}
    worker.join();
}}
"
    );
    let r = run(
        &only("lock_discipline", LOCK_CFG),
        &[("crates/demo/src/lib.rs", &src)],
    );
    assert!(r.is_clean(), "{}", r.to_human());
}

#[test]
fn lock_discipline_suppression_silences_one_site() {
    let src = format!(
        "{LOCK_STRUCTS}
pub fn hot(o: &Outer, worker: Worker) {{
    let g = o.inner.lock();
    // xlint:allow(lock_discipline): join completes in microseconds here
    worker.join();
}}
"
    );
    let r = run(
        &only("lock_discipline", LOCK_CFG),
        &[("crates/demo/src/lib.rs", &src)],
    );
    assert!(r.is_clean(), "{}", r.to_human());
}

#[test]
fn suppression_needs_reason_and_use() {
    // No reason: the directive itself is a violation.
    let no_reason = format!(
        "{LOCK_STRUCTS}
pub fn hot(o: &Outer, worker: Worker) {{
    let g = o.inner.lock();
    // xlint:allow(lock_discipline)
    worker.join();
}}
"
    );
    let r = run(
        &only("lock_discipline", LOCK_CFG),
        &[("crates/demo/src/lib.rs", &no_reason)],
    );
    assert!(rules_of(&r).contains(&"suppression"), "{}", r.to_human());

    // Unused: the excused code is gone, the stale allow is flagged.
    let unused = format!(
        "{LOCK_STRUCTS}
pub fn hot(o: &Outer, worker: Worker) {{
    let g = o.inner.lock();
    drop(g);
    // xlint:allow(lock_discipline): excuses nothing
    worker.join();
}}
"
    );
    let r = run(
        &only("lock_discipline", LOCK_CFG),
        &[("crates/demo/src/lib.rs", &unused)],
    );
    assert_eq!(rules_of(&r), vec!["suppression"], "{}", r.to_human());
}

#[test]
fn lock_discipline_flags_stale_order_entry() {
    let cfg = only(
        "lock_discipline",
        "order = [\"Outer.inner\", \"Inner.state\", \"Ghost.lock\"]\nblocking = [\"join\"]\n",
    );
    let r = run(&cfg, &[("crates/demo/src/lib.rs", LOCK_STRUCTS)]);
    assert_eq!(rules_of(&r), vec!["lock_discipline"], "{}", r.to_human());
    assert!(
        r.diagnostics[0].message.contains("Ghost.lock"),
        "{}",
        r.to_human()
    );
    assert_eq!(r.diagnostics[0].path, "xlint.toml");
}

// ------------------------------------------------------------------
// self-check: the real workspace under the real config

#[test]
fn workspace_self_check_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = xlint::check_root(&root).expect("workspace check runs");
    assert!(
        report.is_clean(),
        "the workspace must pass its own linter:\n{}",
        report.to_human()
    );
    assert!(report.files_scanned > 50, "the real workspace was scanned");
}
