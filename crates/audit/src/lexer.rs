//! A hand-rolled Rust lexer, just deep enough for static analysis.
//!
//! The auditor does not need a real parser: every rule it enforces is
//! expressible over a token stream with line numbers, provided the
//! stream is *honest* — comments, strings (including raw and byte
//! strings), char literals, and lifetimes must never be confused with
//! code. Those are exactly the places a regex-based scanner lies, and
//! the reason this module exists.
//!
//! Design choices:
//!
//! * Comments are **kept** as tokens: the annotation grammar
//!   (`// audit: ...`) lives in them.
//! * String/char contents are discarded (one [`Tok::Str`] token each);
//!   no rule looks inside a literal.
//! * Numbers are lexed loosely (`0xff_u64`, `1.5e-3`): rules only need
//!   to know "this is a literal operand", never its value.
//! * The lexer never fails. Unterminated constructs lex as a final
//!   token ending at EOF — the audited code is known to compile, and a
//!   fixture that does not is still scanned best-effort.

/// Kinds of token the scanner distinguishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (`fn`, `price`, `r#type` — raw-ident
    /// prefix stripped).
    Ident(String),
    /// A lifetime such as `'a` (distinguished from char literals).
    Lifetime,
    /// Numeric literal.
    Num,
    /// String, raw string, byte string, or char literal.
    Str,
    /// Single punctuation character (`+`, `{`, `.`, `#`, …).
    Punct(char),
    /// `// …` comment, text after the slashes (also `///`, `//!`).
    LineComment(String),
    /// `/* … */` comment (nesting handled), inner text.
    BlockComment(String),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based source line of the token's first character.
    pub line: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.tok {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.tok == Tok::Punct(c)
    }

    /// Whether this token is a comment (line or block).
    pub fn is_comment(&self) -> bool {
        matches!(self.tok, Tok::LineComment(_) | Tok::BlockComment(_))
    }
}

/// Lex `source` into a token stream (comments included).
pub fn lex(source: &str) -> Vec<Token> {
    Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, tok: Tok, line: u32) {
        self.out.push(Token { tok, line });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string(line);
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.char_literal(line);
                }
                // Raw strings r"…", r#"…"#, br#"…"#; raw idents r#name.
                'r' | 'b' if self.raw_string_ahead() => self.raw_string(line),
                'r' if self.peek(1) == Some('#') && self.is_ident_start(2) => {
                    // Raw identifier r#type: skip the prefix, lex the name.
                    self.bump();
                    self.bump();
                    self.ident(line);
                }
                '\'' => self.lifetime_or_char(line),
                c if c.is_ascii_digit() => self.number(line),
                c if c.is_alphabetic() || c == '_' => self.ident(line),
                _ => {
                    self.bump();
                    self.push(Tok::Punct(c), line);
                }
            }
        }
        self.out
    }

    fn is_ident_start(&self, ahead: usize) -> bool {
        matches!(self.peek(ahead), Some(c) if c.is_alphabetic() || c == '_')
    }

    /// Is the cursor at `r`/`b`/`br`/`rb` followed by `#…#"` or `"`,
    /// i.e. a raw-string opener?
    fn raw_string_ahead(&self) -> bool {
        let mut i = 0;
        // Up to two prefix letters (r, b, br, rb).
        while i < 2 && matches!(self.peek(i), Some('r') | Some('b')) {
            i += 1;
        }
        if i == 0 || !matches!(self.chars.get(self.pos), Some('r') | Some('b')) {
            return false;
        }
        // The prefix must actually contain an `r` to be raw.
        let prefix: Vec<char> = (0..i).filter_map(|k| self.peek(k)).collect();
        if !prefix.contains(&'r') {
            return false;
        }
        let mut j = i;
        while self.peek(j) == Some('#') {
            j += 1;
        }
        self.peek(j) == Some('"')
    }

    fn line_comment(&mut self, line: u32) {
        self.bump();
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(Tok::LineComment(text), line);
    }

    fn block_comment(&mut self, line: u32) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        let mut text = String::new();
        while let Some(c) = self.bump() {
            if c == '/' && self.peek(0) == Some('*') {
                self.bump();
                depth += 1;
            } else if c == '*' && self.peek(0) == Some('/') {
                self.bump();
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
            }
        }
        self.push(Tok::BlockComment(text), line);
    }

    fn string(&mut self, line: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(Tok::Str, line);
    }

    fn raw_string(&mut self, line: u32) {
        // Consume prefix letters.
        while matches!(self.peek(0), Some('r') | Some('b')) {
            self.bump();
        }
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            self.bump();
            hashes += 1;
        }
        self.bump(); // opening quote
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for k in 0..hashes {
                    if self.peek(k) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(Tok::Str, line);
    }

    fn char_literal(&mut self, line: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '\'' => break,
                _ => {}
            }
        }
        self.push(Tok::Str, line);
    }

    /// `'` starts either a lifetime (`'a`, `'static`) or a char literal
    /// (`'x'`, `'\n'`). A lifetime is `'` + ident **not** followed by a
    /// closing `'`.
    fn lifetime_or_char(&mut self, line: u32) {
        if self.is_ident_start(1) {
            // Scan the identifier; if it ends with `'`, it was a char
            // literal like 'a'.
            let mut j = 1;
            while matches!(self.peek(j), Some(c) if c.is_alphanumeric() || c == '_') {
                j += 1;
            }
            if self.peek(j) == Some('\'') {
                self.char_literal(line);
            } else {
                self.bump(); // the quote
                for _ in 1..j {
                    self.bump();
                }
                self.push(Tok::Lifetime, line);
            }
        } else {
            self.char_literal(line);
        }
    }

    fn number(&mut self, line: u32) {
        // Loose: digits, underscores, hex/bin letters, type suffixes,
        // one decimal point followed by a digit, exponent with sign.
        self.bump();
        loop {
            match self.peek(0) {
                Some(c) if c.is_ascii_alphanumeric() || c == '_' => {
                    let exp = c == 'e' || c == 'E';
                    self.bump();
                    // Exponent sign: `1e-5` — consume the sign so the
                    // `-` is not misread as an operator.
                    if exp
                        && matches!(self.peek(0), Some('+') | Some('-'))
                        && matches!(self.peek(1), Some(d) if d.is_ascii_digit())
                    {
                        self.bump();
                    }
                }
                // `1.5` but not `1..n` and not `1.method()`.
                Some('.') if matches!(self.peek(1), Some(d) if d.is_ascii_digit()) => {
                    self.bump();
                }
                _ => break,
            }
        }
        self.push(Tok::Num, line);
    }

    fn ident(&mut self, line: u32) {
        let mut name = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                name.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(Tok::Ident(name), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("let x = a + b;");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("let".into()),
                Tok::Ident("x".into()),
                Tok::Punct('='),
                Tok::Ident("a".into()),
                Tok::Punct('+'),
                Tok::Ident("b".into()),
                Tok::Punct(';'),
            ]
        );
    }

    #[test]
    fn comments_are_kept_with_text() {
        let toks = lex("// audit: bounded(x)\nfn f() {}\n/* block */");
        assert_eq!(toks[0].tok, Tok::LineComment(" audit: bounded(x)".into()));
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert!(matches!(
            toks.last().map(|t| &t.tok),
            Some(Tok::BlockComment(_))
        ));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* a /* b */ c */ x");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], Tok::Ident("x".into()));
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "a + b // not a comment";"#);
        assert!(toks.contains(&Tok::Str));
        assert!(!toks.iter().any(|t| matches!(t, Tok::LineComment(_))));
        assert!(!toks.contains(&Tok::Punct('+')));
    }

    #[test]
    fn raw_strings_and_byte_strings() {
        let toks = kinds(r##"let s = r#"un"quoted + // stuff"#; let b = b"x"; let rb = br#"y"#;"##);
        assert_eq!(toks.iter().filter(|t| **t == Tok::Str).count(), 3);
        assert!(!toks.contains(&Tok::Punct('+')));
    }

    #[test]
    fn raw_idents() {
        let toks = kinds("let r#type = 1;");
        assert!(toks.contains(&Tok::Ident("type".into())));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str, c: char) { let y = 'z'; let nl = '\\n'; }");
        assert_eq!(toks.iter().filter(|t| **t == Tok::Lifetime).count(), 2);
        assert_eq!(toks.iter().filter(|t| **t == Tok::Str).count(), 2);
    }

    #[test]
    fn numbers_do_not_swallow_operators() {
        let toks = kinds("1..n");
        assert_eq!(
            toks,
            vec![
                Tok::Num,
                Tok::Punct('.'),
                Tok::Punct('.'),
                Tok::Ident("n".into())
            ]
        );
        let toks = kinds("1.5e-3 + 0xff_u64 * 2");
        assert_eq!(
            toks,
            vec![
                Tok::Num,
                Tok::Punct('+'),
                Tok::Num,
                Tok::Punct('*'),
                Tok::Num
            ]
        );
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let toks = lex("/* a\nb */\nfn f() {}\n\"s\ntring\"\nx");
        let x = toks.iter().find(|t| t.ident() == Some("x")).unwrap();
        assert_eq!(x.line, 6);
    }
}
