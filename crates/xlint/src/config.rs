//! `xlint.toml` — a hand-rolled parser for the small TOML subset the
//! checker needs (no external crates, per the dependency policy).
//!
//! Supported: `[section]` / `[a.b]` headers, `key = "string"`,
//! `key = 123`, `key = true|false`, `key = ["a", "b"]`, quoted keys,
//! `#` comments, blank lines. Keys are flattened to
//! `section.subsection.key` paths.

use std::collections::BTreeMap;

/// A parsed configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// An array of quoted strings.
    StrList(Vec<String>),
}

/// Flattened key/value view of an `xlint.toml` file.
#[derive(Debug, Default, Clone)]
pub struct Config {
    values: BTreeMap<String, Value>,
}

/// A parse failure with its 1-based line number.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line of the offending entry.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "xlint.toml:{}: {}", self.line, self.message)
    }
}

impl Config {
    /// Parses the configuration text.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut values = BTreeMap::new();
        let mut section = String::new();
        let lines: Vec<&str> = text.lines().collect();
        let mut idx = 0usize;
        while idx < lines.len() {
            let lineno = idx + 1;
            let mut line = strip_comment(lines[idx]).trim().to_string();
            idx += 1;
            if line.is_empty() {
                continue;
            }
            // Multi-line array: keep folding lines until the `]` closes.
            while line.contains('[')
                && !line.contains(']')
                && line
                    .find('=')
                    .map(|eq| line[eq..].contains('['))
                    .unwrap_or(false)
                && idx < lines.len()
            {
                line.push(' ');
                line.push_str(strip_comment(lines[idx]).trim());
                idx += 1;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let inner = rest.strip_suffix(']').ok_or_else(|| ConfigError {
                    line: lineno,
                    message: "unterminated section header".into(),
                })?;
                section = inner.trim().to_string();
                continue;
            }
            let eq = line.find('=').ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("expected `key = value`, got `{line}`"),
            })?;
            let key = parse_key(line[..eq].trim()).ok_or_else(|| ConfigError {
                line: lineno,
                message: "invalid key".into(),
            })?;
            let value = parse_value(line[eq + 1..].trim()).ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("unsupported value: `{}`", line[eq + 1..].trim()),
            })?;
            let full = if section.is_empty() {
                key
            } else {
                format!("{section}.{key}")
            };
            values.insert(full, value);
        }
        Ok(Config { values })
    }

    /// Raw value lookup by flattened path.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.values.get(key)
    }

    /// String value, if present and a string.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.values.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// String-list value, defaulting to empty.
    pub fn list(&self, key: &str) -> Vec<String> {
        match self.values.get(key) {
            Some(Value::StrList(l)) => l.clone(),
            Some(Value::Str(s)) => vec![s.clone()],
            _ => Vec::new(),
        }
    }

    /// All `(suffix, integer)` entries under a section prefix — used for
    /// per-file baseline tables like `[baseline.slice_indexing]`.
    pub fn int_table(&self, section: &str) -> BTreeMap<String, i64> {
        let prefix = format!("{section}.");
        self.values
            .iter()
            .filter_map(|(k, v)| match v {
                Value::Int(n) => k.strip_prefix(&prefix).map(|s| (s.to_string(), *n)),
                _ => None,
            })
            .collect()
    }
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside quotes starts a comment.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_key(raw: &str) -> Option<String> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        return stripped.strip_suffix('"').map(|s| s.to_string());
    }
    if raw.is_empty()
        || !raw
            .chars()
            .all(|c| c.is_alphanumeric() || "_-.".contains(c))
    {
        return None;
    }
    Some(raw.to_string())
}

fn parse_value(raw: &str) -> Option<Value> {
    if raw == "true" {
        return Some(Value::Bool(true));
    }
    if raw == "false" {
        return Some(Value::Bool(false));
    }
    if let Some(stripped) = raw.strip_prefix('"') {
        return stripped
            .strip_suffix('"')
            .map(|s| Value::Str(s.to_string()));
    }
    if let Some(inner) = raw.strip_prefix('[') {
        let inner = inner.strip_suffix(']')?;
        let mut out = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(s) => out.push(s),
                _ => return None,
            }
        }
        return Some(Value::StrList(out));
    }
    raw.parse::<i64>().ok().map(Value::Int)
}

/// Splits on commas that are not inside quotes.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_subset() {
        let cfg = Config::parse(
            r#"
# top comment
enabled = true
[lock_discipline]
strict = false
[admissibility_coverage]
matrix_test = "crates/core/tests/bound_matrix.rs"
exempt = ["QuadraticForm", "Other"] # trailing comment
[baseline.slice_indexing]
"crates/core/src/histogram.rs" = 3
"#,
        )
        .unwrap();
        assert_eq!(cfg.get("enabled"), Some(&Value::Bool(true)));
        assert_eq!(cfg.get("lock_discipline.strict"), Some(&Value::Bool(false)));
        assert_eq!(
            cfg.str("admissibility_coverage.matrix_test"),
            Some("crates/core/tests/bound_matrix.rs")
        );
        assert_eq!(
            cfg.list("admissibility_coverage.exempt"),
            vec!["QuadraticForm", "Other"]
        );
        let table = cfg.int_table("baseline.slice_indexing");
        assert_eq!(table.get("crates/core/src/histogram.rs"), Some(&3));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = Config::parse("ok = true\nbogus line\n").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
