//! A hand-rolled Rust lexer — just enough structure for the rule engine.
//!
//! The goal is *not* a faithful reimplementation of rustc's lexer; it is
//! a token stream precise enough that rules never fire inside comments,
//! string literals, or doc examples, plus two derived overlays the rules
//! share: which tokens sit inside `#[cfg(test)]`-gated items, and which
//! lines carry `// xlint:allow(...)` suppression directives.
//!
//! Handled: line/nested-block comments, doc comments (`///`, `//!`,
//! `/** */`, `/*! */`), string/raw-string/byte-string literals, char
//! literals vs. lifetimes, numeric literals (so `1.0` is one token and
//! `1..4` a range), multi-char operators that matter to the rules (`==`,
//! `!=`, `::`, `..`, `->`, `=>`).

/// What a token is.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (`unwrap`, `pub`, `fn`, ...).
    Ident(String),
    /// A string literal's cooked-ish contents (escapes left verbatim —
    /// the rules only match names that never contain escapes).
    StrLit(String),
    /// Numeric literal, integer or float.
    NumLit,
    /// A lifetime such as `'a` (distinct from char literals).
    Lifetime,
    /// A single punctuation character or one of the combined operators
    /// (`==`, `!=`, `::`, `..`, `->`, `=>`), stored as written.
    Punct(&'static str),
}

/// A token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column of the first character.
    pub col: usize,
}

/// An `// xlint:allow(rule, ...)` suppression directive found in a
/// plain line comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// 1-based line the directive sits on.
    pub line: usize,
    /// The rule names inside the parentheses.
    pub rules: Vec<String>,
    /// Whether a non-empty reason follows the closing `):`.
    pub has_reason: bool,
}

/// The lexed view of one source file.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// Token stream in source order, comments stripped.
    pub tokens: Vec<Token>,
    /// Suppression directives, in source order.
    pub suppressions: Vec<Suppression>,
    /// `tokens[i]` is inside a `#[cfg(test)]`-gated item.
    pub test_gated: Vec<bool>,
}

impl LexedFile {
    /// Lexes `source`, computes the `#[cfg(test)]` overlay, and collects
    /// suppression directives. Never fails: unexpected bytes become
    /// single-character punctuation and the scan continues.
    pub fn lex(source: &str) -> LexedFile {
        let mut lx = Lexer::new(source);
        lx.run();
        let test_gated = mark_test_gated(&lx.tokens);
        LexedFile {
            tokens: lx.tokens,
            suppressions: lx.suppressions,
            test_gated,
        }
    }
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
    tokens: Vec<Token>,
    suppressions: Vec<Suppression>,
    _src: &'a str,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
            suppressions: Vec::new(),
            _src: source,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokenKind, line: usize, col: usize) {
        self.tokens.push(Token { kind, line, col });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(line, col),
                'r' if matches!(self.peek(1), Some('"') | Some('#')) => {
                    if !self.raw_string_or_ident(line, col) {
                        self.ident(line, col);
                    }
                }
                'b' if self.peek(1) == Some('"') => {
                    self.bump(); // b
                    self.string(line, col);
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump(); // b
                    self.char_literal(line, col);
                }
                '\'' => self.lifetime_or_char(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                c if c.is_alphabetic() || c == '_' => self.ident(line, col),
                _ => self.punct(line, col),
            }
        }
    }

    fn line_comment(&mut self, line: usize) {
        self.bump();
        self.bump(); // consume `//`
        let third = self.peek(0);
        // `///` (but not `////`, which rustdoc treats as plain) and `//!`
        // are doc comments: prose, where a directive is only quoted.
        let is_doc = (third == Some('/') && self.peek(1) != Some('/')) || third == Some('!');
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        if !is_doc {
            if let Some(sup) = parse_suppression(&text, line) {
                self.suppressions.push(sup);
            }
        }
    }

    fn block_comment(&mut self) {
        self.bump();
        self.bump(); // consume `/*`
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break,
            }
        }
    }

    fn string(&mut self, line: usize, col: usize) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    // Keep escapes verbatim; skip the escaped character so
                    // `\"` does not terminate the literal.
                    text.push(c);
                    self.bump();
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                '"' => {
                    self.bump();
                    break;
                }
                _ => {
                    text.push(c);
                    self.bump();
                }
            }
        }
        self.push(TokenKind::StrLit(text), line, col);
    }

    /// Returns `false` when the `r` turns out to start a raw *identifier*
    /// (`r#match`), which the caller lexes as an ident instead.
    fn raw_string_or_ident(&mut self, line: usize, col: usize) -> bool {
        // Count `#`s after the `r` without consuming anything yet.
        let mut hashes = 0usize;
        while self.peek(1 + hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(1 + hashes) != Some('"') {
            return false; // raw ident like `r#type`
        }
        self.bump(); // r
        for _ in 0..hashes {
            self.bump();
        }
        self.bump(); // opening quote
        let mut text = String::new();
        'outer: while let Some(c) = self.peek(0) {
            if c == '"' {
                // A quote ends the literal only when followed by `hashes`
                // `#` characters.
                for h in 0..hashes {
                    if self.peek(1 + h) != Some('#') {
                        text.push(c);
                        self.bump();
                        continue 'outer;
                    }
                }
                self.bump(); // closing quote
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokenKind::StrLit(text), line, col);
        true
    }

    fn char_literal(&mut self, line: usize, col: usize) {
        self.bump(); // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    self.bump();
                    self.bump();
                }
                '\'' => {
                    self.bump();
                    break;
                }
                _ => {
                    self.bump();
                }
            }
        }
        self.push(TokenKind::Punct("'"), line, col); // rules never match chars
    }

    fn lifetime_or_char(&mut self, line: usize, col: usize) {
        // `'a` followed by anything but `'` is a lifetime; `'a'`, `'\n'`
        // are char literals.
        let c1 = self.peek(1);
        let c2 = self.peek(2);
        let is_lifetime = matches!(c1, Some(c) if c.is_alphabetic() || c == '_')
            && c2 != Some('\'')
            || c1 == Some('s') && c2 == Some('t'); // 'static
        if is_lifetime {
            self.bump(); // '
            while matches!(self.peek(0), Some(c) if c.is_alphanumeric() || c == '_') {
                self.bump();
            }
            self.push(TokenKind::Lifetime, line, col);
        } else {
            self.char_literal(line, col);
        }
    }

    fn number(&mut self, line: usize, col: usize) {
        // Integer part (also covers 0x/0b/0o prefixes and type suffixes
        // well enough — any alphanumeric run is consumed below).
        while matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
            if matches!(self.peek(0), Some('e') | Some('E'))
                && matches!(self.peek(1), Some(c) if c.is_ascii_digit() || c == '+' || c == '-')
            {
                self.bump(); // e
                if matches!(self.peek(0), Some('+') | Some('-')) {
                    self.bump();
                }
                continue;
            }
            self.bump();
        }
        // Fraction: a dot followed by a digit (so `1..4` and `1.method()`
        // stay two tokens).
        if self.peek(0) == Some('.') && matches!(self.peek(1), Some(c) if c.is_ascii_digit()) {
            self.bump(); // .
            while matches!(self.peek(0), Some(c) if c.is_ascii_alphanumeric() || c == '_') {
                if matches!(self.peek(0), Some('e') | Some('E'))
                    && matches!(self.peek(1), Some(c) if c.is_ascii_digit() || c == '+' || c == '-')
                {
                    self.bump();
                    if matches!(self.peek(0), Some('+') | Some('-')) {
                        self.bump();
                    }
                    continue;
                }
                self.bump();
            }
        } else if self.peek(0) == Some('.')
            && !matches!(self.peek(1), Some('.'))
            && !matches!(self.peek(1), Some(c) if c.is_alphabetic() || c == '_')
        {
            // Trailing-dot float like `1.` (not a range, not a method).
            self.bump();
        }
        self.push(TokenKind::NumLit, line, col);
    }

    fn ident(&mut self, line: usize, col: usize) {
        let mut s = String::new();
        if self.peek(0) == Some('r') && self.peek(1) == Some('#') {
            self.bump();
            self.bump(); // raw ident prefix
        }
        while matches!(self.peek(0), Some(c) if c.is_alphanumeric() || c == '_') {
            if let Some(c) = self.bump() {
                s.push(c);
            }
        }
        if s.is_empty() {
            // Defensive: never loop forever on unexpected input.
            self.bump();
            return;
        }
        self.push(TokenKind::Ident(s), line, col);
    }

    fn punct(&mut self, line: usize, col: usize) {
        let c = match self.bump() {
            Some(c) => c,
            None => return,
        };
        let combined: Option<&'static str> = match (c, self.peek(0)) {
            ('=', Some('=')) => Some("=="),
            ('!', Some('=')) => Some("!="),
            (':', Some(':')) => Some("::"),
            ('.', Some('.')) => Some(".."),
            ('-', Some('>')) => Some("->"),
            ('=', Some('>')) => Some("=>"),
            _ => None,
        };
        if let Some(op) = combined {
            self.bump();
            self.push(TokenKind::Punct(op), line, col);
            return;
        }
        let single: &'static str = match c {
            '(' => "(",
            ')' => ")",
            '[' => "[",
            ']' => "]",
            '{' => "{",
            '}' => "}",
            '<' => "<",
            '>' => ">",
            ',' => ",",
            ';' => ";",
            ':' => ":",
            '.' => ".",
            '#' => "#",
            '!' => "!",
            '&' => "&",
            '|' => "|",
            '+' => "+",
            '-' => "-",
            '*' => "*",
            '/' => "/",
            '%' => "%",
            '=' => "=",
            '?' => "?",
            '@' => "@",
            '$' => "$",
            '^' => "^",
            '~' => "~",
            '\'' => "'",
            _ => "·", // anything exotic — rules never match it
        };
        self.push(TokenKind::Punct(single), line, col);
    }
}

/// Parses `xlint:allow(rule_a, rule_b): reason` out of a comment body.
fn parse_suppression(comment: &str, line: usize) -> Option<Suppression> {
    let idx = comment.find("xlint:allow(")?;
    let rest = &comment[idx + "xlint:allow(".len()..];
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let after = &rest[close + 1..];
    let has_reason = after
        .strip_prefix(':')
        .map(|r| !r.trim().is_empty())
        .unwrap_or(false);
    Some(Suppression {
        line,
        rules,
        has_reason,
    })
}

/// Marks every token that sits inside a `#[cfg(test)]`-gated item.
///
/// The scan finds each `#` `[` `cfg` `(` ... `test` ... `)` ... `]`
/// attribute, skips any further attributes, and then
/// gates the next item: everything up to the first `;` at brace depth 0
/// or through the item's outermost `{ ... }` block.
fn mark_test_gated(tokens: &[Token]) -> Vec<bool> {
    let mut gated = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if let Some(after_attr) = match_cfg_test_attr(tokens, i) {
            let mut j = after_attr;
            // Skip further attributes between the cfg gate and the item.
            while matches!(tokens.get(j).map(|t| &t.kind), Some(TokenKind::Punct("#")))
                && matches!(
                    tokens.get(j + 1).map(|t| &t.kind),
                    Some(TokenKind::Punct("["))
                )
            {
                j = skip_attr(tokens, j);
            }
            // Gate the item body.
            let mut depth = 0usize;
            let mut entered = false;
            while j < tokens.len() {
                gated[j] = true;
                match &tokens[j].kind {
                    TokenKind::Punct("{") => {
                        depth += 1;
                        entered = true;
                    }
                    TokenKind::Punct("}") => {
                        depth = depth.saturating_sub(1);
                        if entered && depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    TokenKind::Punct(";") if !entered && depth == 0 => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            // Also gate the attribute tokens themselves.
            for g in gated.iter_mut().take(after_attr).skip(i) {
                *g = true;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    gated
}

/// If `tokens[i..]` starts a `#[cfg(...test...)]` attribute, returns the
/// index just past its closing `]`.
fn match_cfg_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if !matches!(tokens.get(i).map(|t| &t.kind), Some(TokenKind::Punct("#"))) {
        return None;
    }
    if !matches!(
        tokens.get(i + 1).map(|t| &t.kind),
        Some(TokenKind::Punct("["))
    ) {
        return None;
    }
    match tokens.get(i + 2).map(|t| &t.kind) {
        Some(TokenKind::Ident(s)) if s == "cfg" => {}
        _ => return None,
    }
    // Scan to the matching `]`, checking for a bare `test` ident inside.
    let mut depth = 1usize; // we are inside the `[`
    let mut has_test = false;
    let mut j = i + 3;
    while j < tokens.len() && depth > 0 {
        match &tokens[j].kind {
            TokenKind::Punct("[") => depth += 1,
            TokenKind::Punct("]") => depth -= 1,
            TokenKind::Ident(s) if s == "test" => has_test = true,
            _ => {}
        }
        j += 1;
    }
    if has_test {
        Some(j)
    } else {
        None
    }
}

/// Skips a `#[...]` attribute starting at `i`, returning the index just
/// past its closing `]`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0usize;
    let mut j = i;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokenKind::Punct("[") => depth += 1,
            TokenKind::Punct("]") => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(lx: &LexedFile) -> Vec<&str> {
        lx.tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let lx =
            LexedFile::lex("// unwrap in a comment\nlet s = \"panic!\"; /* unwrap */ x.unwrap();");
        let ids = idents(&lx);
        assert_eq!(ids, vec!["let", "s", "x", "unwrap"]);
    }

    #[test]
    fn raw_strings_and_chars() {
        let lx = LexedFile::lex(r####"let a = r#"un"wrap"#; let b = '"'; let c = 'x';"####);
        let strs: Vec<&str> = lx
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                TokenKind::StrLit(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, vec!["un\"wrap"]);
        assert!(!idents(&lx).contains(&"x"));
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let lx = LexedFile::lex("fn f<'a>(x: &'a str) -> &'static str { x }");
        assert_eq!(
            lx.tokens
                .iter()
                .filter(|t| matches!(t.kind, TokenKind::Lifetime))
                .count(),
            3
        );
    }

    #[test]
    fn cfg_test_gates_module() {
        let src = "fn live() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { b.unwrap(); }\n}\nfn live2() {}";
        let lx = LexedFile::lex(src);
        let gated_idents: Vec<(&str, bool)> = lx
            .tokens
            .iter()
            .zip(&lx.test_gated)
            .filter_map(|(t, g)| match &t.kind {
                TokenKind::Ident(s) if s == "unwrap" => Some((s.as_str(), *g)),
                TokenKind::Ident(s) if s == "live2" => Some((s.as_str(), *g)),
                _ => None,
            })
            .collect();
        assert_eq!(
            gated_idents,
            vec![("unwrap", false), ("unwrap", true), ("live2", false)]
        );
    }

    #[test]
    fn suppressions_parse() {
        let lx = LexedFile::lex(
            "x.join(); // xlint:allow(lock_discipline): join completes in microseconds\ny(); // xlint:allow(a, b)\n",
        );
        assert_eq!(lx.suppressions.len(), 2);
        assert_eq!(lx.suppressions[0].rules, vec!["lock_discipline"]);
        assert!(lx.suppressions[0].has_reason);
        assert_eq!(lx.suppressions[1].rules, vec!["a", "b"]);
        assert!(!lx.suppressions[1].has_reason);
    }

    #[test]
    fn doc_comments_yield_no_tokens_and_no_suppressions() {
        let lx = LexedFile::lex(
            "/// docs with .unwrap() inside\npub fn f() {}\n//! xlint:allow(lock_discipline): quoted\n",
        );
        assert_eq!(idents(&lx), vec!["pub", "fn", "f"]);
        assert!(lx.suppressions.is_empty());
    }
}
