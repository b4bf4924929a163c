//! A small shared lexer.
//!
//! Used by the textual query language in this crate and re-used by the PTL
//! surface syntax in `tdb-ptl`. Produces identifiers, numeric and string
//! literals, and multi-character punctuation, with byte offsets for error
//! reporting.

use crate::error::{RelError, Result};

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword (keywords are resolved by the parsers,
    /// case-insensitively).
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    /// Punctuation / operator, e.g. `"("`, `"<="`, `":="`.
    Punct(&'static str),
}

impl Tok {
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("identifier `{s}`"),
            Tok::Int(i) => format!("integer `{i}`"),
            Tok::Float(f) => format!("float `{f}`"),
            Tok::Str(s) => format!("string \"{s}\""),
            Tok::Punct(p) => format!("`{p}`"),
        }
    }

    /// True if this token is the given keyword (case-insensitive).
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// A token plus its byte range in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedTok {
    pub tok: Tok,
    /// Byte offset of the first byte of the token.
    pub offset: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
}

/// Multi-character punctuation, longest first so `<=` wins over `<`.
const PUNCTS: &[&str] = &[
    "<=", ">=", "!=", "<>", ":=", "<-", "->", "&&", "||", "==", "(", ")", "[", "]", "{", "}", ",",
    ";", "<", ">", "=", "+", "-", "*", "/", "%", "$", "@", "!", ".", "?",
];

/// Tokenizes `src`. `--` starts a line comment.
pub fn lex(src: &str) -> Result<Vec<SpannedTok>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comments.
        if c == '-' && bytes.get(i + 1) == Some(&b'-') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // String literals, single or double quoted, with backslash escapes,
        // read as UTF-8.
        if c == '"' || c == '\'' {
            let start = i;
            let mut s = String::new();
            let mut chars = src[i + 1..].char_indices();
            while let Some((k, d)) = chars.next() {
                match d {
                    '\\' => match chars.next() {
                        Some((_, 'n')) => s.push('\n'),
                        Some((_, 't')) => s.push('\t'),
                        Some((_, e)) => s.push(e),
                        None => break,
                    },
                    _ if d == c => {
                        i += k + 2;
                        out.push(SpannedTok {
                            tok: Tok::Str(s),
                            offset: start,
                            end: i,
                        });
                        continue 'outer;
                    }
                    _ => s.push(d),
                }
            }
            return Err(RelError::Parse(format!(
                "unterminated string at offset {start}"
            )));
        }
        // Numbers.
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let mut is_float = false;
            if i < bytes.len()
                && bytes[i] == b'.'
                && i + 1 < bytes.len()
                && (bytes[i + 1] as char).is_ascii_digit()
            {
                is_float = true;
                i += 1;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
            }
            let text = &src[start..i];
            let tok = if is_float {
                Tok::Float(text.parse().map_err(|_| {
                    RelError::Parse(format!("bad float literal `{text}` at offset {start}"))
                })?)
            } else {
                Tok::Int(text.parse().map_err(|_| {
                    RelError::Parse(format!("integer literal `{text}` out of range"))
                })?)
            };
            out.push(SpannedTok {
                tok,
                offset: start,
                end: i,
            });
            continue;
        }
        // Identifiers.
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() {
                let d = bytes[i] as char;
                if d.is_ascii_alphanumeric() || d == '_' {
                    i += 1;
                } else {
                    break;
                }
            }
            out.push(SpannedTok {
                tok: Tok::Ident(src[start..i].to_string()),
                offset: start,
                end: i,
            });
            continue;
        }
        // Punctuation (longest match first).
        for p in PUNCTS {
            if src[i..].starts_with(p) {
                out.push(SpannedTok {
                    tok: Tok::Punct(p),
                    offset: i,
                    end: i + p.len(),
                });
                i += p.len();
                continue 'outer;
            }
        }
        let c = src[i..].chars().next().unwrap_or(c);
        return Err(RelError::Parse(format!(
            "unexpected character `{c}` at offset {i}"
        )));
    }
    Ok(out)
}

/// How deep the recursive-descent parsers over a [`Cursor`] may nest. A
/// level of a rule's condition takes at most two (`not (…)`), so every
/// rule within the registration bound of 256 levels parses; deeper input
/// is a parse error, not a stack overflow.
pub const MAX_PARSE_DEPTH: usize = 2 * 256 + 8;

/// A cursor over a token stream shared by the recursive-descent parsers.
#[derive(Debug)]
pub struct Cursor {
    toks: Vec<SpannedTok>,
    pos: usize,
    src_len: usize,
    /// How many nesting levels ([`Cursor::deeper`]) enclose the parser.
    depth: usize,
}

impl Cursor {
    pub fn new(src: &str) -> Result<Cursor> {
        Ok(Cursor {
            toks: lex(src)?,
            pos: 0,
            src_len: src.len(),
            depth: 0,
        })
    }

    /// Runs `parse` one nesting level deeper, refusing input nested deeper
    /// than [`MAX_PARSE_DEPTH`].
    pub fn nested<T, E: From<RelError>>(
        &mut self,
        parse: impl FnOnce(&mut Cursor) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        self.chain(|c| {
            c.deeper()?;
            parse(c)
        })
    }

    /// Runs `parse`, which builds a left-associative chain and calls
    /// [`Cursor::deeper`] for each level the chain nests, and restores the
    /// depth after, whatever the outcome.
    pub fn chain<T, E>(
        &mut self,
        parse: impl FnOnce(&mut Cursor) -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        let depth = self.depth;
        let out = parse(self);
        self.depth = depth;
        out
    }

    /// Goes one nesting level deeper, refusing input nested deeper than
    /// [`MAX_PARSE_DEPTH`].
    pub fn deeper(&mut self) -> Result<()> {
        if self.depth == MAX_PARSE_DEPTH {
            let msg = format!("nested deeper than {MAX_PARSE_DEPTH} levels");
            return Err(self.error(&msg));
        }
        self.depth += 1;
        Ok(())
    }

    pub fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    /// Byte offset of the next unconsumed token, or the source length at the
    /// end of input. Parsers use this to attach positions to errors and spans.
    pub fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|s| s.offset)
            .unwrap_or(self.src_len)
    }

    /// Byte offset one past the last consumed token (0 before any token has
    /// been consumed). Parsers use this as the end of a just-parsed node.
    pub fn prev_end(&self) -> usize {
        if self.pos == 0 {
            0
        } else {
            self.toks[self.pos - 1].end
        }
    }

    /// Current position, for backtracking parsers.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Restores a position previously returned by [`Cursor::pos`].
    pub fn set_pos(&mut self, pos: usize) {
        self.pos = pos.min(self.toks.len());
    }

    pub fn peek_at(&self, ahead: usize) -> Option<&Tok> {
        self.toks.get(self.pos + ahead).map(|s| &s.tok)
    }

    pub fn next_tok(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    pub fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// Consumes the next token if it equals the punctuation `p`.
    pub fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(q)) if *q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consumes the next token if it is the keyword `kw` (case-insensitive).
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Requires the punctuation `p` next.
    pub fn expect_punct(&mut self, p: &str) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{p}`")))
        }
    }

    /// Requires the keyword `kw` next.
    pub fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{kw}`")))
        }
    }

    /// Requires and returns an identifier.
    pub fn expect_ident(&mut self) -> Result<String> {
        match self.next_tok() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => Err(RelError::Parse(format!(
                "expected identifier, found {}",
                t.describe()
            ))),
            None => Err(RelError::Parse(
                "expected identifier, found end of input".into(),
            )),
        }
    }

    /// Builds a parse error naming the current token.
    pub fn error(&self, msg: &str) -> RelError {
        match self.toks.get(self.pos) {
            Some(s) => RelError::Parse(format!(
                "{msg}, found {} at offset {}",
                s.tok.describe(),
                s.offset
            )),
            None => RelError::Parse(format!("{msg}, found end of input")),
        }
    }

    /// Fails unless every token has been consumed.
    pub fn expect_end(&self) -> Result<()> {
        if self.at_end() {
            Ok(())
        } else {
            Err(self.error("expected end of input"))
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn lexes_mixed_input() {
        let toks = lex("select name, 2.5 from STOCK where price >= $0 -- trailing").unwrap();
        let kinds: Vec<_> = toks.iter().map(|s| s.tok.clone()).collect();
        assert_eq!(kinds[0], Tok::Ident("select".into()));
        assert_eq!(kinds[2], Tok::Punct(","));
        assert_eq!(kinds[3], Tok::Float(2.5));
        assert!(kinds.contains(&Tok::Punct(">=")));
        assert!(kinds.contains(&Tok::Punct("$")));
    }

    #[test]
    fn longest_punct_wins() {
        let toks = lex("<= < := : = <-").unwrap_err();
        // `:` alone is not a token; ensure the error mentions it.
        assert!(toks.to_string().contains("unexpected character `:`"));
        let toks = lex("<= < := =").unwrap();
        assert_eq!(toks[0].tok, Tok::Punct("<="));
        assert_eq!(toks[1].tok, Tok::Punct("<"));
        assert_eq!(toks[2].tok, Tok::Punct(":="));
    }

    #[test]
    fn strings_with_escapes() {
        let toks = lex(r#""a\"b" 'c\nd'"#).unwrap();
        assert_eq!(toks[0].tok, Tok::Str("a\"b".into()));
        assert_eq!(toks[1].tok, Tok::Str("c\nd".into()));
        assert!(lex("\"unterminated").is_err());
        let toks = lex("\"Zürich\" '☃' x").unwrap();
        assert_eq!(toks[0].tok, Tok::Str("Zürich".into()));
        assert_eq!((toks[0].offset, toks[0].end), (0, 9));
        assert_eq!(toks[1].tok, Tok::Str("☃".into()));
        assert_eq!(toks[2].offset, 16);
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(Tok::Ident("SELECT".into()).is_kw("select"));
        assert!(!Tok::Ident("selects".into()).is_kw("select"));
    }

    #[test]
    fn cursor_navigation() {
        let mut c = Cursor::new("select x").unwrap();
        assert!(c.eat_kw("select"));
        assert_eq!(c.expect_ident().unwrap(), "x");
        assert!(c.expect_end().is_ok());
        assert!(c.next_tok().is_none());
    }

    #[test]
    fn tokens_carry_byte_ranges() {
        let toks = lex("ab <= \"cd\" 12").unwrap();
        assert_eq!((toks[0].offset, toks[0].end), (0, 2));
        assert_eq!((toks[1].offset, toks[1].end), (3, 5));
        assert_eq!((toks[2].offset, toks[2].end), (6, 10));
        assert_eq!((toks[3].offset, toks[3].end), (11, 13));
    }

    #[test]
    fn cursor_reports_offsets() {
        let mut c = Cursor::new("abc defg").unwrap();
        assert_eq!(c.offset(), 0);
        assert_eq!(c.prev_end(), 0);
        c.next_tok();
        assert_eq!(c.offset(), 4);
        assert_eq!(c.prev_end(), 3);
        c.next_tok();
        assert_eq!(c.offset(), 8, "end of input falls back to source length");
        assert_eq!(c.prev_end(), 8);
    }

    #[test]
    fn cursor_errors_name_position() {
        let mut c = Cursor::new("select , x").unwrap();
        c.eat_kw("select");
        let err = c.expect_ident().unwrap_err();
        assert!(err.to_string().contains("expected identifier"));
    }
}
