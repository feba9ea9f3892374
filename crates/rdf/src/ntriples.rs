//! N-Triples parsing and serialization.
//!
//! Supports the line-based N-Triples syntax used by the paper's datasets
//! (all six Table-2 graphs ship as `.nt` dumps): IRIs in angle brackets,
//! `_:`-prefixed blank nodes, literals with `\"`-style escapes, `@lang`
//! tags, and `^^<datatype>` annotations. `#` comment lines, blank lines,
//! and CRLF line endings are accepted; `\u` escapes in the surrogate range
//! decode to U+FFFD instead of failing.
//!
//! # Zero-copy line parser
//!
//! [`parse_line_ref`] produces **borrowed** [`TermRef`] slices into the
//! input line — no per-term `String`. Only literals that actually contain
//! escape sequences decode into an owned spill buffer (`Cow::Owned`);
//! everything else, including every IRI, blank-node label, language tag,
//! and datatype, is a plain `&str` slice. The parallel ingestion pipeline
//! ([`crate::ingest`](mod@crate::ingest)) feeds these straight into the str-keyed dictionary,
//! so a term occurrence costs one scratch-buffer encode + hash, never an
//! allocation. [`parse_ntriples`] is the convenience wrapper that runs that
//! pipeline over a whole document.

use crate::graph::Graph;
use crate::term::{LiteralRef, Term, TermRef};
use std::borrow::Cow;

/// Error produced while parsing N-Triples input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NtParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for NtParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N-Triples parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NtParseError {}

/// Parses an N-Triples document into a [`Graph`] via the parallel zero-copy
/// ingestion pipeline (`threads = 0`, i.e. all cores; the result is
/// bit-identical for every thread count).
pub fn parse_ntriples(input: &str) -> Result<Graph, NtParseError> {
    crate::ingest::ingest(input, 0)
}

/// Parses one (already trimmed, non-empty, non-comment) N-Triples line into
/// three borrowed terms.
pub(crate) fn parse_line_ref(
    line: &str,
) -> Result<(TermRef<'_>, TermRef<'_>, TermRef<'_>), String> {
    let mut cursor = Cursor { bytes: line.as_bytes(), line, pos: 0 };
    let s = cursor.parse_term()?;
    cursor.skip_ws();
    let p = cursor.parse_term()?;
    if !matches!(p, TermRef::Iri(_)) {
        return Err("predicate must be an IRI".into());
    }
    cursor.skip_ws();
    let o = cursor.parse_term()?;
    cursor.skip_ws();
    if cursor.peek() != Some(b'.') {
        return Err("missing terminating '.'".into());
    }
    cursor.pos += 1;
    cursor.skip_ws();
    if cursor.pos != cursor.bytes.len() {
        return Err("trailing content after '.'".into());
    }
    Ok((s, p, o))
}

struct Cursor<'a> {
    bytes: &'a [u8],
    line: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    /// Borrows `self.line[start..end]`. Always called with `start`/`end` on
    /// ASCII delimiter positions, hence on char boundaries.
    fn slice(&self, start: usize, end: usize) -> &'a str {
        &self.line[start..end]
    }

    fn parse_term(&mut self) -> Result<TermRef<'a>, String> {
        match self.peek() {
            Some(b'<') => self.parse_iri().map(TermRef::Iri),
            Some(b'_') => self.parse_blank(),
            Some(b'"') => self.parse_literal(),
            other => Err(format!("unexpected term start: {:?}", other.map(char::from))),
        }
    }

    fn parse_iri(&mut self) -> Result<&'a str, String> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'>' {
                let iri = self.slice(start, self.pos);
                self.pos += 1;
                return Ok(iri);
            }
            self.pos += 1;
        }
        Err("unterminated IRI".into())
    }

    fn parse_blank(&mut self) -> Result<TermRef<'a>, String> {
        if self.bytes.get(self.pos + 1) != Some(&b':') {
            return Err("blank node must start with '_:'".into());
        }
        self.pos += 2;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'.' {
                break;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err("empty blank node label".into());
        }
        Ok(TermRef::Blank(self.slice(start, self.pos)))
    }

    fn parse_literal(&mut self) -> Result<TermRef<'a>, String> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
        let start = self.pos;
        // Fast path: scan for the closing quote; borrow if escape-free.
        let lexical: Cow<'a, str> = loop {
            match self.peek() {
                None => return Err("unterminated literal".into()),
                Some(b'"') => {
                    let s = self.slice(start, self.pos);
                    self.pos += 1;
                    break Cow::Borrowed(s);
                }
                Some(b'\\') => break Cow::Owned(self.parse_escaped_tail(start)?),
                Some(_) => self.pos += 1,
            }
        };
        // Optional @lang or ^^<datatype>.
        match self.peek() {
            Some(b'@') => {
                self.pos += 1;
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b.is_ascii_alphanumeric() || b == b'-' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                if self.pos == start {
                    return Err("empty language tag".into());
                }
                Ok(TermRef::Literal(LiteralRef {
                    lexical,
                    lang: Some(self.slice(start, self.pos)),
                    datatype: None,
                }))
            }
            Some(b'^') => {
                if self.bytes.get(self.pos + 1) != Some(&b'^') {
                    return Err("expected '^^<datatype>'".into());
                }
                self.pos += 2;
                if self.peek() != Some(b'<') {
                    return Err("datatype must be an IRI".into());
                }
                let datatype = self.parse_iri()?;
                Ok(TermRef::Literal(LiteralRef {
                    lexical,
                    lang: None,
                    datatype: Some(datatype),
                }))
            }
            _ => Ok(TermRef::Literal(LiteralRef { lexical, lang: None, datatype: None })),
        }
    }

    /// Slow path, entered at the first backslash: copies the escape-free
    /// prefix `[start..pos]` then decodes escapes until the closing quote.
    fn parse_escaped_tail(&mut self, start: usize) -> Result<String, String> {
        debug_assert_eq!(self.peek(), Some(b'\\'));
        let mut lexical = String::with_capacity(self.pos - start + 16);
        lexical.push_str(self.slice(start, self.pos));
        loop {
            match self.peek() {
                None => return Err("unterminated literal".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(lexical);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self.peek().ok_or("dangling escape")?;
                    self.pos += 1;
                    match escaped {
                        b'"' => lexical.push('"'),
                        b'\\' => lexical.push('\\'),
                        b'n' => lexical.push('\n'),
                        b'r' => lexical.push('\r'),
                        b't' => lexical.push('\t'),
                        b'u' => lexical.push(self.parse_unicode(4)?),
                        b'U' => lexical.push(self.parse_unicode(8)?),
                        other => return Err(format!("unknown escape \\{}", char::from(other))),
                    }
                }
                Some(b) if b < 0x80 => {
                    lexical.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one multi-byte UTF-8 scalar.
                    let rest = &self.line[self.pos..];
                    let ch = rest.chars().next().expect("non-empty rest");
                    lexical.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_unicode(&mut self, digits: usize) -> Result<char, String> {
        if self.pos + digits > self.bytes.len() {
            return Err("truncated unicode escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + digits])
            .map_err(|_| "invalid unicode escape".to_string())?;
        self.pos += digits;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid hex in unicode escape")?;
        // Surrogate-range escapes appear in real dumps produced by UTF-16
        // systems; decode them to U+FFFD rather than rejecting the file.
        if (0xD800..=0xDFFF).contains(&code) {
            return Ok('\u{FFFD}');
        }
        char::from_u32(code).ok_or_else(|| "invalid code point".into())
    }
}

/// Serializes a [`Graph`] back to N-Triples (one triple per line, insertion
/// order preserved). Appends into one output buffer — no per-term
/// allocation.
pub fn write_ntriples(graph: &Graph) -> String {
    // Pre-size: average real-world triple lines run ~100 bytes.
    let mut out = String::with_capacity(graph.len() * 96);
    for t in graph.triples() {
        write_term(graph.dict.term(t.s), &mut out);
        out.push(' ');
        write_term(graph.dict.term(t.p), &mut out);
        out.push(' ');
        write_term(graph.dict.term(t.o), &mut out);
        out.push_str(" .\n");
    }
    out
}

/// Appends one term in N-Triples syntax.
pub fn write_term(term: &Term, out: &mut String) {
    match term {
        Term::Iri(s) => {
            out.push('<');
            out.push_str(s);
            out.push('>');
        }
        Term::Blank(s) => {
            out.push_str("_:");
            out.push_str(s);
        }
        Term::Literal(l) => {
            out.push('"');
            for ch in l.lexical.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c => out.push(c),
                }
            }
            out.push('"');
            match (&l.lang, &l.datatype) {
                (Some(lang), _) => {
                    out.push('@');
                    out.push_str(lang);
                }
                (None, Some(dt)) => {
                    out.push_str("^^<");
                    out.push_str(dt);
                    out.push('>');
                }
                (None, None) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;

    #[test]
    fn parses_basic_triples() {
        let src = r#"
# a comment
<http://x/n1> <http://x/name> "Isabel dos Santos" .
<http://x/n1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/CEO> .
<http://x/n1> <http://x/age> "47"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b0 <http://x/label> "blank"@en .
"#;
        let g = parse_ntriples(src).unwrap();
        assert_eq!(g.len(), 4);
        let ceo = g.dict.id_of(&Term::iri("http://x/CEO")).unwrap();
        assert_eq!(g.nodes_of_type(ceo).len(), 1);
    }

    #[test]
    fn escapes_roundtrip() {
        let mut g = Graph::new();
        g.insert(
            Term::iri("http://x/a"),
            Term::iri("http://x/desc"),
            Term::lit("line1\nline2 \"quoted\" tab\there \\ backslash"),
        );
        let nt = write_ntriples(&g);
        let g2 = parse_ntriples(&nt).unwrap();
        assert_eq!(g2.len(), 1);
        let o = g2.triples()[0].o;
        assert_eq!(
            g2.dict.term(o).as_literal().unwrap().lexical,
            "line1\nline2 \"quoted\" tab\there \\ backslash"
        );
    }

    #[test]
    fn unicode_escapes() {
        let src = "<http://x/a> <http://x/p> \"caf\\u00E9 \\U0001F600\" .\n";
        let g = parse_ntriples(src).unwrap();
        let o = g.triples()[0].o;
        assert_eq!(g.dict.term(o).as_literal().unwrap().lexical, "café 😀");
    }

    #[test]
    fn surrogate_escape_decodes_to_replacement_char() {
        let src = "<http://x/a> <http://x/p> \"bad \\uD83D surrogate\" .\n";
        let g = parse_ntriples(src).unwrap();
        let o = g.triples()[0].o;
        assert_eq!(g.dict.term(o).as_literal().unwrap().lexical, "bad \u{FFFD} surrogate");
    }

    #[test]
    fn crlf_and_comments_accepted() {
        let src = "# header\r\n<http://x/a> <http://x/p> \"v\" .\r\n\r\n<http://x/b> <http://x/p> \"w\" .\r\n";
        let g = parse_ntriples(src).unwrap();
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn datatype_and_lang_roundtrip() {
        let mut g = Graph::new();
        g.insert(Term::iri("http://x/a"), Term::iri("http://x/p"), Term::int(7));
        g.insert(
            Term::iri("http://x/a"),
            Term::iri("http://www.w3.org/2000/01/rdf-schema#label"),
            Term::Literal(Literal::lang_tagged("sept", "fr")),
        );
        let nt = write_ntriples(&g);
        let g2 = parse_ntriples(&nt).unwrap();
        assert_eq!(write_ntriples(&g2), nt);
    }

    #[test]
    fn reports_error_with_line_number() {
        let src = "<http://x/a> <http://x/p> \"ok\" .\nbroken line\n";
        let err = parse_ntriples(src).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_literal_predicate() {
        let err = parse_ntriples("<http://x/a> \"p\" <http://x/b> .\n").unwrap_err();
        assert!(err.message.contains("IRI"));
    }

    #[test]
    fn rejects_missing_dot() {
        let err = parse_ntriples("<http://x/a> <http://x/p> <http://x/b>\n").unwrap_err();
        assert!(err.message.contains('.'));
    }

    #[test]
    fn borrowed_terms_are_zero_copy() {
        let line = "<http://x/a> <http://x/p> \"plain value\" .";
        let (s, _, o) = parse_line_ref(line).unwrap();
        assert!(matches!(s, TermRef::Iri("http://x/a")));
        match o {
            TermRef::Literal(LiteralRef { lexical: Cow::Borrowed(v), .. }) => {
                assert_eq!(v, "plain value");
            }
            other => panic!("expected borrowed literal, got {other:?}"),
        }
    }
}
