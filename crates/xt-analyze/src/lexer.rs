//! A minimal Rust lexer: just enough structure for the rule passes.
//!
//! Produces a flat token stream (identifiers, single-character
//! punctuation, literals) plus the line comments, each carrying its
//! source line and byte offset so diagnostics can point at the exact
//! site. Deliberately not a parser: the scanners in
//! [`model`](crate::model) pattern-match over this stream, the same
//! offline stand-in approach as `crates/proptest` —
//! no `syn`, no compiler plugin, no network.

/// What kind of token this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `publish`, ...).
    Ident,
    /// One punctuation character (`::` arrives as two `:` tokens).
    Punct,
    /// String literal (raw/byte included); text is not retained.
    Str,
    /// Character literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// One token with its source position.
#[derive(Clone, Debug)]
pub struct Tok {
    pub kind: TokKind,
    /// Identifier/punctuation text; empty for string literals.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// Byte offset into the file.
    pub offset: u32,
}

impl Tok {
    /// `true` if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// `true` if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// A `//` line comment (doc comments included), whole line text.
#[derive(Clone, Debug)]
pub struct Comment {
    pub text: String,
    pub line: u32,
    pub offset: u32,
}

/// Lexes `src` into tokens and line comments. Never panics on malformed
/// input — unterminated literals simply run to end of file.
pub fn lex(src: &str) -> (Vec<Tok>, Vec<Comment>) {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                comments.push(Comment {
                    text: src[start..i].to_string(),
                    line,
                    offset: start as u32,
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Nested block comments, rustc-style.
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let (ni, nl) = skip_string(b, i, line);
                toks.push(tok(TokKind::Str, "", line, i));
                line = nl;
                i = ni;
            }
            b'r' | b'b' if raw_or_byte_string(b, i).is_some() => {
                let (kind, ni, nl) = raw_or_byte_string(b, i).expect("checked above");
                toks.push(tok(kind, "", line, i));
                line = nl;
                i = ni;
            }
            b'\'' => {
                // Lifetime or char literal. A backslash or a
                // single-char-then-quote shape means char.
                if b.get(i + 1) == Some(&b'\\') {
                    let mut j = i + 3; // skip quote, backslash, escaped char
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    toks.push(tok(TokKind::Char, "", line, i));
                    i = (j + 1).min(b.len());
                } else if is_ident_start(b.get(i + 1).copied().unwrap_or(0))
                    && b.get(i + 2) != Some(&b'\'')
                {
                    let mut j = i + 1;
                    while j < b.len() && is_ident_continue(b[j]) {
                        j += 1;
                    }
                    toks.push(tok(TokKind::Lifetime, &src[i..j], line, i));
                    i = j;
                } else {
                    // 'x' or an odd quote: consume to the closing quote.
                    let mut j = i + 1;
                    while j < b.len() && b[j] != b'\'' && b[j] != b'\n' {
                        j += 1;
                    }
                    toks.push(tok(TokKind::Char, "", line, i));
                    i = if j < b.len() && b[j] == b'\'' {
                        j + 1
                    } else {
                        j
                    };
                }
            }
            _ if is_ident_start(c) => {
                let mut j = i + 1;
                while j < b.len() && is_ident_continue(b[j]) {
                    j += 1;
                }
                toks.push(tok(TokKind::Ident, &src[i..j], line, i));
                i = j;
            }
            _ if c.is_ascii_digit() => {
                let mut j = i + 1;
                while j < b.len() && (is_ident_continue(b[j])) {
                    j += 1;
                }
                // A fraction: `1.5`, but not the range `1..5` or a method
                // call on a literal.
                if j < b.len() && b[j] == b'.' && b.get(j + 1).is_some_and(u8::is_ascii_digit) {
                    j += 1;
                    while j < b.len() && is_ident_continue(b[j]) {
                        j += 1;
                    }
                }
                toks.push(tok(TokKind::Num, &src[i..j], line, i));
                i = j;
            }
            _ => {
                toks.push(tok(TokKind::Punct, &src[i..i + 1], line, i));
                i += 1;
            }
        }
    }
    (toks, comments)
}

fn tok(kind: TokKind, text: &str, line: u32, offset: usize) -> Tok {
    Tok {
        kind,
        text: text.to_string(),
        line,
        offset: offset as u32,
    }
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic()
}

fn is_ident_continue(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Skips a plain `"..."` string starting at `i`; returns (next index,
/// line after the literal).
fn skip_string(b: &[u8], i: usize, mut line: u32) -> (usize, u32) {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'"' => return (j + 1, line),
            b'\n' => {
                line += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (j, line)
}

/// Recognizes `r"..."`, `r#"..."#` (any number of `#`), `b"..."`,
/// `br#"..."#`, and `b'x'` starting at `i`. Returns `(kind, next index,
/// next line)` or `None` if the prefix is just an identifier.
fn raw_or_byte_string(b: &[u8], i: usize) -> Option<(TokKind, usize, u32)> {
    let mut j = i;
    let mut raw = false;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        raw = true;
        j += 1;
    }
    if raw {
        let mut hashes = 0usize;
        while j < b.len() && b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j >= b.len() || b[j] != b'"' {
            return None;
        }
        j += 1;
        let mut lines = 0u32;
        while j < b.len() {
            if b[j] == b'\n' {
                lines += 1;
            }
            if b[j] == b'"' {
                let mut k = j + 1;
                let mut seen = 0usize;
                while k < b.len() && b[k] == b'#' && seen < hashes {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return Some((TokKind::Str, k, lines));
                }
            }
            j += 1;
        }
        Some((TokKind::Str, j, lines))
    } else if b[i] == b'b' && j < b.len() && b[j] == b'"' {
        let (nj, _) = skip_string(b, j, 0);
        Some((TokKind::Str, nj, 0))
    } else if b[i] == b'b' && j < b.len() && b[j] == b'\'' {
        let mut k = j + 1;
        if k < b.len() && b[k] == b'\\' {
            k += 2;
        }
        while k < b.len() && b[k] != b'\'' {
            k += 1;
        }
        Some((TokKind::Char, (k + 1).min(b.len()), 0))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_puncts_and_positions() {
        let (toks, comments) = lex("fn foo() { x.iter(); } // xt-analyze: note\n");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["fn", "foo", "x", "iter"]);
        assert_eq!(comments.len(), 1);
        assert!(comments[0].text.contains("xt-analyze"));
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[0].offset, 0);
    }

    #[test]
    fn raw_strings_and_lifetimes_do_not_derail() {
        let src = "let s = r#\"quote \" inside\"#; fn f<'a>(x: &'a str) -> char { 'x' }";
        let (toks, _) = lex(src);
        assert!(toks.iter().any(|t| t.is_ident("char")));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert!(toks.iter().any(|t| t.kind == TokKind::Char));
    }

    #[test]
    fn multiline_strings_keep_line_numbers_right() {
        let src = "let s = \"line\nbreak\";\nfn g() {}";
        let (toks, _) = lex(src);
        let g = toks.iter().find(|t| t.is_ident("g")).unwrap();
        assert_eq!(g.line, 3);
    }

    #[test]
    fn numbers_ranges_and_floats() {
        let (toks, _) = lex("0..10 1.5e3 0xFF_u32 x.0");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Num)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(nums, ["0", "10", "1.5e3", "0xFF_u32", "0"]);
    }
}
