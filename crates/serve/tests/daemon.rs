//! The daemons' shared `--flag value` parser: what it accepts comes
//! from the usage text, and every rejection names the offender.

use earthmover_serve::daemon::Flags;

const USAGE: &str = "usage: demo --db FILE [--workers N]\n  [--no-hedge true]   mode-less";

fn parse(args: &[&str]) -> Result<Flags, String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    Flags::parse(&args, USAGE)
}

#[test]
fn parser_accepts_the_usage_flags_and_names_the_offender() {
    let flags = parse(&["--db", "x.emdb", "--workers", "8", "--no-hedge", "true"]).unwrap();
    assert_eq!(flags.get("db"), Some("x.emdb"));
    assert_eq!(flags.num("workers", 4), Ok(8));
    assert_eq!(flags.num("queue", 64), Ok(64));
    assert!(flags.num::<usize>("db", 0).is_err());
    // The typo that used to serve silently with the default pool.
    assert_eq!(
        parse(&["--worker", "8"]).unwrap_err(),
        "unknown flag --worker"
    );
    // Usage prose is not a flag list: only whole `--name` words count.
    assert_eq!(parse(&["--less", "1"]).unwrap_err(), "unknown flag --less");
    assert_eq!(
        parse(&["--db", "x.emdb", "--workers"]).unwrap_err(),
        "flag --workers needs a value"
    );
    assert_eq!(parse(&["db"]).unwrap_err(), "unexpected argument db");
}
