//! RDF terms and literal value typing.

use std::borrow::Cow;
use std::fmt;

/// A literal value: lexical form plus either a language tag or a datatype IRI.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    /// The lexical form, e.g. `"66"` or `"Isabel dos Santos"`.
    pub lexical: String,
    /// Language tag (`@en`), mutually exclusive with `datatype`.
    pub lang: Option<String>,
    /// Datatype IRI (`^^xsd:integer`); `None` means a plain literal.
    pub datatype: Option<String>,
}

impl Literal {
    /// Plain string literal.
    pub(crate) fn plain(lexical: impl Into<String>) -> Self {
        Literal { lexical: lexical.into(), lang: None, datatype: None }
    }

    /// Language-tagged literal.
    pub fn lang_tagged(lexical: impl Into<String>, lang: impl Into<String>) -> Self {
        Literal { lexical: lexical.into(), lang: Some(lang.into()), datatype: None }
    }

    /// Typed literal.
    pub fn typed(lexical: impl Into<String>, datatype: impl Into<String>) -> Self {
        Literal { lexical: lexical.into(), lang: None, datatype: Some(datatype.into()) }
    }

    /// Integer literal with `xsd:integer` datatype.
    pub(crate) fn integer(v: i64) -> Self {
        Literal::typed(v.to_string(), crate::vocab::XSD_INTEGER)
    }

    /// Decimal literal with `xsd:double` datatype.
    pub(crate) fn double(v: f64) -> Self {
        Literal::typed(format!("{v}"), crate::vocab::XSD_DOUBLE)
    }
}

/// An RDF term.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A URI/IRI reference.
    Iri(String),
    /// A blank node with its local label.
    Blank(String),
    /// A literal.
    Literal(Literal),
}

impl Term {
    /// Convenience IRI constructor.
    pub fn iri(s: impl Into<String>) -> Self {
        Term::Iri(s.into())
    }

    /// Convenience blank-node constructor.
    pub fn blank(s: impl Into<String>) -> Self {
        Term::Blank(s.into())
    }

    /// Convenience plain-literal constructor.
    pub fn lit(s: impl Into<String>) -> Self {
        Term::Literal(Literal::plain(s))
    }

    /// Convenience integer-literal constructor.
    pub fn int(v: i64) -> Self {
        Term::Literal(Literal::integer(v))
    }

    /// Convenience double-literal constructor.
    pub fn num(v: f64) -> Self {
        Term::Literal(Literal::double(v))
    }

    /// `true` for IRIs and blank nodes (things that can be subjects).
    pub fn is_resource(&self) -> bool {
        !matches!(self, Term::Literal(_))
    }

    /// The literal, if this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// The IRI string, if this term is one.
    pub(crate) fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// Classifies the term's value for attribute statistics (the paper's
    /// Offline Attribute Analysis gathers "the type of property values, e.g.
    /// String, Integer, Date").
    pub fn value_kind(&self) -> ValueKind {
        match self {
            Term::Iri(_) | Term::Blank(_) => ValueKind::Resource,
            Term::Literal(l) => literal_kind(l),
        }
    }

    /// Numeric interpretation of the term, when it has one.
    pub fn numeric_value(&self) -> Option<f64> {
        match self {
            Term::Literal(l) => parse_numeric(&l.lexical),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(s) => write!(f, "<{s}>"),
            Term::Blank(s) => write!(f, "_:{s}"),
            Term::Literal(l) => {
                write!(f, "\"{}\"", l.lexical)?;
                if let Some(lang) = &l.lang {
                    write!(f, "@{lang}")?;
                } else if let Some(dt) = &l.datatype {
                    write!(f, "^^<{dt}>")?;
                }
                Ok(())
            }
        }
    }
}

/// A borrowed literal: the zero-copy view the N-Triples parser produces.
///
/// `lexical` is a [`Cow`] because escape-free literals (the overwhelming
/// majority in real dumps) borrow straight from the input buffer, while
/// escape-bearing ones decode into an owned spill string. Language tags and
/// datatype IRIs never contain escapes, so they always borrow.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LiteralRef<'a> {
    /// The (unescaped) lexical form.
    pub lexical: Cow<'a, str>,
    /// Language tag, mutually exclusive with `datatype`.
    pub lang: Option<&'a str>,
    /// Datatype IRI; `None` means a plain literal.
    pub datatype: Option<&'a str>,
}

impl LiteralRef<'_> {
    /// Materializes an owned [`Literal`].
    pub(crate) fn to_literal(&self) -> Literal {
        Literal {
            lexical: self.lexical.clone().into_owned(),
            lang: self.lang.map(str::to_owned),
            datatype: self.datatype.map(str::to_owned),
        }
    }
}

/// A borrowed RDF term — slices into a parse buffer, no per-term `String`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum TermRef<'a> {
    /// IRI reference.
    Iri(&'a str),
    /// Blank node label.
    Blank(&'a str),
    /// Literal.
    Literal(LiteralRef<'a>),
}

impl TermRef<'_> {
    /// Materializes an owned [`Term`] (allocates; done once per *distinct*
    /// term by the dictionary, not once per occurrence).
    pub(crate) fn to_term(&self) -> Term {
        match self {
            TermRef::Iri(s) => Term::Iri((*s).to_owned()),
            TermRef::Blank(s) => Term::Blank((*s).to_owned()),
            TermRef::Literal(l) => Term::Literal(l.to_literal()),
        }
    }
}

impl Term {
    /// The borrowed view of this term.
    pub(crate) fn as_ref(&self) -> TermRef<'_> {
        match self {
            Term::Iri(s) => TermRef::Iri(s),
            Term::Blank(s) => TermRef::Blank(s),
            Term::Literal(l) => TermRef::Literal(LiteralRef {
                lexical: Cow::Borrowed(&l.lexical),
                lang: l.lang.as_deref(),
                datatype: l.datatype.as_deref(),
            }),
        }
    }
}

/// Coarse value classification used by attribute statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// IRI or blank node — a link to another graph node.
    Resource,
    /// Integer-valued literal.
    Integer,
    /// Floating-point literal.
    Decimal,
    /// ISO `YYYY-MM-DD`-shaped literal.
    Date,
    /// `true` / `false` literal.
    Boolean,
    /// Everything else: free text.
    String,
}

fn literal_kind(l: &Literal) -> ValueKind {
    use crate::vocab::*;
    if let Some(dt) = &l.datatype {
        match dt.as_str() {
            XSD_INTEGER | XSD_INT | XSD_LONG | XSD_NONNEG_INTEGER => return ValueKind::Integer,
            XSD_DOUBLE | XSD_FLOAT | XSD_DECIMAL => return ValueKind::Decimal,
            XSD_DATE | XSD_DATETIME | XSD_GYEAR => return ValueKind::Date,
            XSD_BOOLEAN => return ValueKind::Boolean,
            XSD_STRING => return sniff_kind(&l.lexical),
            _ => {}
        }
    }
    sniff_kind(&l.lexical)
}

/// Infers a value kind from an untyped lexical form. Real RDF graphs often
/// carry plain literals for numeric data, so the offline analysis sniffs them.
fn sniff_kind(lexical: &str) -> ValueKind {
    let t = lexical.trim();
    if t.is_empty() {
        return ValueKind::String;
    }
    if t == "true" || t == "false" {
        return ValueKind::Boolean;
    }
    if t.parse::<i64>().is_ok() {
        return ValueKind::Integer;
    }
    if t.parse::<f64>().is_ok() {
        return ValueKind::Decimal;
    }
    if is_iso_date(t) {
        return ValueKind::Date;
    }
    ValueKind::String
}

fn is_iso_date(t: &str) -> bool {
    // YYYY-MM-DD with optional time suffix.
    let bytes = t.as_bytes();
    if bytes.len() < 10 {
        return false;
    }
    bytes[..4].iter().all(|b| b.is_ascii_digit())
        && bytes[4] == b'-'
        && bytes[5..7].iter().all(|b| b.is_ascii_digit())
        && bytes[7] == b'-'
        && bytes[8..10].iter().all(|b| b.is_ascii_digit())
}

fn parse_numeric(lexical: &str) -> Option<f64> {
    let t = lexical.trim();
    t.parse::<f64>().ok().filter(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_kind_classification() {
        assert_eq!(Term::int(5).value_kind(), ValueKind::Integer);
        assert_eq!(Term::num(2.5).value_kind(), ValueKind::Decimal);
        assert_eq!(Term::lit("hello world").value_kind(), ValueKind::String);
        assert_eq!(Term::lit("42").value_kind(), ValueKind::Integer);
        assert_eq!(Term::lit("3.14").value_kind(), ValueKind::Decimal);
        assert_eq!(Term::lit("true").value_kind(), ValueKind::Boolean);
        assert_eq!(Term::lit("1969-07-20").value_kind(), ValueKind::Date);
        assert_eq!(Term::iri("http://x").value_kind(), ValueKind::Resource);
        assert_eq!(Term::blank("b0").value_kind(), ValueKind::Resource);
    }

    #[test]
    fn numeric_values() {
        assert_eq!(Term::int(-3).numeric_value(), Some(-3.0));
        assert_eq!(Term::lit("2.8e9").numeric_value(), Some(2.8e9));
        assert_eq!(Term::lit("NaN"), Term::lit("NaN"));
        assert_eq!(Term::lit("NaN").numeric_value(), None);
        assert_eq!(Term::iri("http://x").numeric_value(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::iri("http://a/b").to_string(), "<http://a/b>");
        assert_eq!(Term::blank("n1").to_string(), "_:n1");
        assert_eq!(Term::lit("x").to_string(), "\"x\"");
        assert_eq!(
            Term::Literal(Literal::lang_tagged("chat", "fr")).to_string(),
            "\"chat\"@fr"
        );
        assert_eq!(Term::int(7).to_string(), format!("\"7\"^^<{}>", crate::vocab::XSD_INTEGER));
    }

    #[test]
    fn date_shapes() {
        assert!(is_iso_date("2021-06-20"));
        assert!(is_iso_date("2021-06-20T10:00:00Z"));
        assert!(!is_iso_date("20210620"));
        assert!(!is_iso_date("not-a-date"));
    }
}
