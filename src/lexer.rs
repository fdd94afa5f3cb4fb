//! A lightweight Rust tokenizer for the workspace's source checks.
//!
//! The workspace builds fully offline, so instead of `syn`/`proc-macro2`
//! this module implements the small token model the checks in
//! [`crate::rules`] need: identifiers, literals, multi-character
//! operators, and doc comments, each tagged with its 1-based source line.
//! Ordinary comments are consumed, string and char literals are fully
//! skipped over (so their contents can never fake a match), and
//! `#[cfg(test)]` regions can be mapped to line ranges with
//! [`test_line_ranges`].

/// What kind of lexeme a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw `r#ident`s, without the `r#`).
    Ident,
    /// A lifetime such as `'a` (text excludes the quote).
    Lifetime,
    /// Integer literal (decimal, hex, octal, binary; suffix included).
    Int,
    /// Floating-point literal (has a fraction, exponent, or float suffix).
    Float,
    /// String, byte-string, or raw-string literal (text is the raw lexeme).
    Str,
    /// Character or byte literal.
    Char,
    /// Punctuation / operator, maximal-munch (`==`, `::`, `->`, …).
    Punct,
    /// Outer doc comment (`///`, `/** */`), text without markers.
    DocComment,
    /// Inner doc comment (`//!`, `/*! */`), text without markers. Kept
    /// distinct so a module header is never taken for the doc of the first
    /// item below it.
    InnerDoc,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Lexeme class.
    pub kind: TokKind,
    /// Lexeme text (see [`TokKind`] for what is included).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// True if this token is the exact identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True if this token is the exact punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// Multi-character operators, longest first so maximal munch is a prefix
/// scan. Single characters fall through to one-char puncts.
const OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    out: Vec<Tok>,
}

/// Tokenizes Rust source. Unrecognized bytes are skipped (the checks only
/// need a faithful stream for well-formed code, and `rustc` is the real
/// syntax gate).
pub fn lex(src: &str) -> Vec<Tok> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    };
    lx.run();
    lx.out
}

impl<'a> Lexer<'a> {
    fn peek(&self, off: usize) -> u8 {
        *self.src.get(self.pos + off).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        if b == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
        b
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.push(Tok { kind, text, line });
    }

    fn run(&mut self) {
        while self.pos < self.src.len() {
            let b = self.peek(0);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.ident_or_prefixed(),
                b'0'..=b'9' => self.number(),
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                _ => self.punct(),
            }
        }
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        while self.pos < self.src.len() && self.peek(0) != b'\n' {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("");
        // `///x` is an outer doc, `//!x` an inner doc; `////…` is plain.
        if let Some(body) = text
            .strip_prefix("///")
            .filter(|_| !text.starts_with("////"))
        {
            self.push(TokKind::DocComment, body.trim().to_string(), line);
        } else if let Some(body) = text.strip_prefix("//!") {
            self.push(TokKind::InnerDoc, body.trim().to_string(), line);
        }
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let start = self.pos;
        self.bump(); // '/'
        self.bump(); // '*'
                     // `/** …` and `/*! …` are docs; `/***…` is not (rustdoc rule) and
                     // the empty `/**/` is a plain comment, not an empty doc
        let is_doc =
            matches!(self.peek(0), b'*' | b'!') && self.peek(1) != b'*' && self.peek(1) != b'/';
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                depth += 1;
                self.bump();
                self.bump();
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                depth -= 1;
                self.bump();
                self.bump();
            } else {
                self.bump();
            }
        }
        if is_doc {
            let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap_or("");
            let kind = if text.starts_with("/*!") {
                TokKind::InnerDoc
            } else {
                TokKind::DocComment
            };
            let body = text
                .trim_start_matches("/**")
                .trim_start_matches("/*!")
                .trim_end_matches("*/");
            self.push(kind, body.trim().to_string(), line);
        }
    }

    fn ident_or_prefixed(&mut self) {
        let line = self.line;
        // String prefixes: r"", r#"", b"", br"", b'', and raw idents r#x.
        match self.peek(0) {
            b'r' => {
                // raw string: `r"…"` or `r#…#"…"#…#` with any number of
                // hashes — scan past the hash run before deciding, so
                // `r##"…"##` does not fall through to the ident path (which
                // would let the string's body swallow the following lines)
                let mut h = 1usize;
                while self.peek(h) == b'#' {
                    h += 1;
                }
                if self.peek(h) == b'"' {
                    self.raw_string();
                    return;
                }
                if self.peek(1) == b'#' && is_ident_start(self.peek(2)) {
                    self.bump();
                    self.bump(); // skip r#
                    self.plain_ident(line);
                    return;
                }
            }
            b'b' => {
                if self.peek(1) == b'"' {
                    self.bump();
                    self.string();
                    return;
                }
                if self.peek(1) == b'\'' {
                    self.bump();
                    self.char_or_lifetime();
                    return;
                }
                if self.peek(1) == b'r' && (self.peek(2) == b'"' || self.peek(2) == b'#') {
                    self.bump();
                    self.raw_string();
                    return;
                }
            }
            _ => {}
        }
        self.plain_ident(line);
    }

    fn plain_ident(&mut self, line: u32) {
        let start = self.pos;
        while is_ident_continue(self.peek(0)) {
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .unwrap_or("")
            .to_string();
        self.push(TokKind::Ident, text, line);
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.pos;
        let mut float = false;
        if self.peek(0) == b'0' && matches!(self.peek(1), b'x' | b'o' | b'b') {
            self.bump();
            self.bump();
            while self.peek(0).is_ascii_alphanumeric() || self.peek(0) == b'_' {
                self.bump();
            }
        } else {
            while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                self.bump();
            }
            // fraction: a '.' followed by a digit (not `..` or `.method()`)
            if self.peek(0) == b'.' && self.peek(1).is_ascii_digit() {
                float = true;
                self.bump();
                while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                    self.bump();
                }
            } else if self.peek(0) == b'.' && self.peek(1) != b'.' && !is_ident_start(self.peek(1))
            {
                // trailing-dot float such as `1.`
                float = true;
                self.bump();
            }
            // exponent
            if matches!(self.peek(0), b'e' | b'E')
                && (self.peek(1).is_ascii_digit()
                    || (matches!(self.peek(1), b'+' | b'-') && self.peek(2).is_ascii_digit()))
            {
                float = true;
                self.bump();
                if matches!(self.peek(0), b'+' | b'-') {
                    self.bump();
                }
                while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                    self.bump();
                }
            }
            // suffix (f32/f64 makes it a float; u8…i128/usize stay ints)
            if self.peek(0) == b'f' && (self.peek(1) == b'3' || self.peek(1) == b'6') {
                float = true;
            }
            while is_ident_continue(self.peek(0)) {
                self.bump();
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .unwrap_or("")
            .to_string();
        self.push(
            if float { TokKind::Float } else { TokKind::Int },
            text,
            line,
        );
    }

    fn string(&mut self) {
        let line = self.line;
        let start = self.pos;
        self.bump(); // opening quote
        while self.pos < self.src.len() {
            match self.peek(0) {
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b'"' => {
                    self.bump();
                    break;
                }
                _ => {
                    self.bump();
                }
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .unwrap_or("")
            .to_string();
        self.push(TokKind::Str, text, line);
    }

    fn raw_string(&mut self) {
        let line = self.line;
        let start = self.pos;
        self.bump(); // 'r'
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        loop {
            if self.pos >= self.src.len() {
                break;
            }
            if self.peek(0) == b'"' {
                let mut ok = true;
                for i in 0..hashes {
                    if self.peek(1 + i) != b'#' {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    for _ in 0..=hashes {
                        self.bump();
                    }
                    break;
                }
            }
            self.bump();
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .unwrap_or("")
            .to_string();
        self.push(TokKind::Str, text, line);
    }

    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let start = self.pos;
        self.bump(); // '\''
        if is_ident_start(self.peek(0)) && self.peek(1) != b'\'' {
            // lifetime: 'a, 'static — ident chars, no closing quote
            let istart = self.pos;
            while is_ident_continue(self.peek(0)) {
                self.bump();
            }
            let text = std::str::from_utf8(&self.src[istart..self.pos])
                .unwrap_or("")
                .to_string();
            self.push(TokKind::Lifetime, text, line);
            return;
        }
        // char literal: consume to the closing quote, skipping escapes —
        // multi-byte escapes (`'\x41'`, `'\u{1F600}'`) must not leave the
        // tail of the literal behind as stray tokens
        while self.pos < self.src.len() {
            match self.peek(0) {
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b'\'' => {
                    self.bump();
                    break;
                }
                _ => {
                    self.bump();
                }
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .unwrap_or("")
            .to_string();
        self.push(TokKind::Char, text, line);
    }

    fn punct(&mut self) {
        let line = self.line;
        for op in OPS {
            let bytes = op.as_bytes();
            if self.src[self.pos..].starts_with(bytes) {
                for _ in 0..bytes.len() {
                    self.bump();
                }
                self.push(TokKind::Punct, (*op).to_string(), line);
                return;
            }
        }
        let b = self.bump();
        self.push(TokKind::Punct, (b as char).to_string(), line);
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Line ranges (1-based, inclusive) of items under a `#[cfg(test)]` or
/// `#[test]` attribute: the attribute line through the closing brace of the
/// item it gates (or its `;` for brace-less items).
pub fn test_line_ranges(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && i + 1 < tokens.len() && tokens[i + 1].is_punct("[") {
            // collect attribute tokens up to the matching ']'
            let attr_line = tokens[i].line;
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut is_test_attr = false;
            while j < tokens.len() {
                if tokens[j].is_punct("[") {
                    depth += 1;
                } else if tokens[j].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if tokens[j].is_ident("test") || tokens[j].is_ident("bench") {
                    is_test_attr = true;
                }
                j += 1;
            }
            if is_test_attr {
                // find the item's body: first '{' at attribute end, matched
                // to its closing '}' (or a ';' before any '{')
                let mut k = j + 1;
                let mut bdepth = 0usize;
                let mut end_line = attr_line;
                while k < tokens.len() {
                    if tokens[k].is_punct("{") {
                        bdepth += 1;
                    } else if tokens[k].is_punct("}") {
                        // at depth 0 the `}` closes an enclosing block: the
                        // gated item (a field, a statement) ended before it
                        if bdepth <= 1 {
                            end_line = tokens[k].line;
                            break;
                        }
                        bdepth -= 1;
                    } else if tokens[k].is_punct(";") && bdepth == 0 {
                        end_line = tokens[k].line;
                        break;
                    }
                    k += 1;
                }
                if k >= tokens.len() {
                    end_line = tokens.last().map_or(attr_line, |t| t.line);
                }
                ranges.push((attr_line, end_line));
                i = k + 1;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_operators_and_idents() {
        let toks = lex("let x == y != z :: w;");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["let", "x", "==", "y", "!=", "z", "::", "w", ";"]);
    }

    #[test]
    fn distinguishes_int_and_float() {
        let toks = lex("a(1, 2.5, 0x10, 1e-3, 3f64, x.0)");
        let kinds: Vec<TokKind> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Int | TokKind::Float))
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            [
                TokKind::Int,
                TokKind::Float,
                TokKind::Int,
                TokKind::Float,
                TokKind::Float,
                TokKind::Int
            ]
        );
    }

    #[test]
    fn string_contents_do_not_leak_tokens() {
        let toks = lex(r#"let s = "HashMap.iter() == 1.0"; t"#);
        assert!(!toks.iter().any(|t| t.is_ident("HashMap")));
        assert!(toks.iter().any(|t| t.is_ident("t")));
    }

    #[test]
    fn raw_strings_and_chars() {
        let toks = lex(r##"let s = r#"a "quoted" x"#; let c = 'x'; let l: &'a str = s;"##);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
    }

    #[test]
    fn doc_comments_are_tokens_plain_comments_are_not() {
        let toks = lex("/// docs here\n// plain\npub fn f() {}\n//! inner\n");
        let outer: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::DocComment)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(outer, ["docs here"]);
        let inner: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::InnerDoc)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(inner, ["inner"]);
    }

    #[test]
    fn multi_hash_raw_strings_do_not_swallow_following_lines() {
        // regression: `r##"…"##` used to fall through to the ident path,
        // letting the string body open an ordinary `"` literal that ran to
        // the next quote — silently swallowing the following lines (and any
        // matches on them)
        let src = "let s = r##\"contains \"# quote\"##;\nlet t = Instant::now();\n";
        let toks = lex(src);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert!(toks.iter().any(|t| t.is_ident("Instant") && t.line == 2));
        assert!(toks.iter().any(|t| t.is_ident("now")));
        // byte raw strings with multiple hashes take the same path
        let toks = lex("let b = br##\"x\"#y\"##; after");
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
        assert!(toks.iter().any(|t| t.is_ident("after")));
    }

    #[test]
    fn byte_string_literals_tokenize_as_one_str() {
        // regression: byte strings with escapes and hash-raw byte strings
        // must not leak their contents as tokens
        let src = "let a = b\"Hash\\\"Map\"; let b = br#\"iter()\"#; tail";
        let toks = lex(src);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
        assert!(!toks.iter().any(|t| t.is_ident("HashMap")));
        assert!(!toks.iter().any(|t| t.is_ident("iter")));
        assert!(toks.iter().any(|t| t.is_ident("tail")));
    }

    #[test]
    fn multi_byte_char_escapes_stay_inside_the_literal() {
        // regression: `'\x41'` used to leave `41` and a stray `';` behind,
        // desynchronizing everything after it on the line
        let src = "let c = '\\x41'; let u = '\\u{1F600}'; let b = b'\\xFF'; done";
        let toks = lex(src);
        assert_eq!(toks.iter().filter(|t| t.kind == TokKind::Char).count(), 3);
        assert!(toks.iter().any(|t| t.is_ident("done")));
        assert!(!toks.iter().any(|t| t.kind == TokKind::Int));
    }

    #[test]
    fn nested_block_comments_consume_exactly_their_extent() {
        let src = "/* a /* b \"not a string\" */ c */ fn after() {}\n/* x /* y */ z */ let i = Instant::now();";
        let toks = lex(src);
        assert!(toks.iter().any(|t| t.is_ident("after")));
        assert!(toks.iter().any(|t| t.is_ident("Instant") && t.line == 2));
        assert!(!toks.iter().any(|t| t.is_ident("b")));
        // `/**/` is a plain empty comment, not a doc comment
        let toks = lex("/**/ pub fn f() {}");
        assert!(!toks.iter().any(|t| t.kind == TokKind::DocComment));
    }

    #[test]
    fn lines_are_tracked() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn cfg_test_ranges_cover_module() {
        let src = "pub fn real() {}\n#[cfg(test)]\nmod tests {\n    fn x() {}\n}\n";
        let toks = lex(src);
        let ranges = test_line_ranges(&toks);
        assert_eq!(ranges, vec![(2, 5)]);
    }
}
