//! Dictionary encoding of RDF terms.
//!
//! All terms are interned into dense `u32` [`TermId`]s so the rest of the
//! system (triple store, attribute tables, bitmaps, cube cells) works on
//! integers. IDs are assigned in first-seen order and are stable for the
//! lifetime of the dictionary.
//!
//! # Two-phase str-keyed interning
//!
//! The id map is keyed by a canonical *string encoding* of each term (a tag
//! byte plus the term's text; see [`encode_term_ref`]) rather than by owned
//! [`Term`] values. The hot path — interning a borrowed [`TermRef`] straight
//! out of the N-Triples parser — therefore allocates **nothing** on a hit:
//! the key is built in a reusable scratch buffer and looked up by `&str`.
//! Only the first occurrence of a term materializes an owned `Term` (for id
//! → term decoding) and a boxed key.
//!
//! Parallel ingestion runs one such dictionary per input chunk, then merges
//! them with [`Dictionary::intern_entry`] in chunk order: because a term
//! first seen in chunk *k* gets its global id after all terms of chunks
//! `< k` and in chunk-local first-seen order, the merged id assignment is
//! bit-identical to a serial first-seen scan — for every thread count.

use crate::term::{Literal, LiteralRef, Term, TermRef};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash algorithm (rustc's internal hasher): multiply-xor over 8-byte
/// chunks. Not DoS-resistant — exactly right for interning terms from
/// trusted dumps, where SipHash otherwise dominates the parse profile.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// A dense identifier for an interned [`Term`]. `repr(transparent)` so id
/// columns can be reinterpreted as `u32` columns (and back) in place —
/// the snapshot store's zero-copy load relies on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct TermId(pub u32);

impl TermId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TermId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Appends the canonical key encoding of a borrowed term to `out`.
///
/// The encoding is injective over *all* terms: a tag byte selects the term
/// kind (and literal flavor), and for tagged/typed literals the tag/datatype
/// is length-prefixed (decimal byte count + `;`) before the lexical form —
/// no separator byte to collide with, whatever bytes the fields contain.
pub fn encode_term_ref(term: &TermRef<'_>, out: &mut String) {
    out.clear();
    match term {
        TermRef::Iri(s) => {
            out.push('I');
            out.push_str(s);
        }
        TermRef::Blank(s) => {
            out.push('B');
            out.push_str(s);
        }
        TermRef::Literal(LiteralRef { lexical, lang, datatype }) => match (lang, datatype) {
            // `lang` and `datatype` are mutually exclusive by construction,
            // but the fields are public — encode both when both are set so
            // the encoding stays injective (and reversible) over every
            // representable term.
            (Some(lang), Some(dt)) => {
                out.push('H');
                push_len(out, lang.len());
                out.push_str(lang);
                push_len(out, dt.len());
                out.push_str(dt);
                out.push_str(lexical);
            }
            (Some(lang), None) => {
                out.push('G');
                push_len(out, lang.len());
                out.push_str(lang);
                out.push_str(lexical);
            }
            (None, Some(dt)) => {
                out.push('D');
                push_len(out, dt.len());
                out.push_str(dt);
                out.push_str(lexical);
            }
            (None, None) => {
                out.push('L');
                out.push_str(lexical);
            }
        },
    }
}

/// Appends `len` in decimal followed by `;` — a fmt-free length prefix.
#[inline]
fn push_len(out: &mut String, len: usize) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = len;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits"));
    out.push(';');
}

/// Decodes a canonical key encoding (as produced by [`encode_term_ref`])
/// back into an owned [`Term`]. Returns `None` on malformed input — the
/// encoding is injective *and* fully reversible, which is what lets the
/// snapshot store serialize the dictionary as nothing but its key blob.
pub fn decode_term(key: &str) -> Option<Term> {
    let (&tag, _) = key.as_bytes().split_first()?;
    let rest = key.get(1..)?; // None when the first byte opens a multi-byte char
    match tag {
        b'I' => Some(Term::Iri(rest.to_owned())),
        b'B' => Some(Term::Blank(rest.to_owned())),
        b'L' => Some(Term::Literal(Literal::plain(rest))),
        b'G' => {
            let (lang, lexical) = split_len_prefixed(rest)?;
            Some(Term::Literal(Literal::lang_tagged(lexical, lang)))
        }
        b'D' => {
            let (datatype, lexical) = split_len_prefixed(rest)?;
            Some(Term::Literal(Literal::typed(lexical, datatype)))
        }
        b'H' => {
            let (lang, rest) = split_len_prefixed(rest)?;
            let (datatype, lexical) = split_len_prefixed(rest)?;
            Some(Term::Literal(Literal {
                lexical: lexical.to_owned(),
                lang: Some(lang.to_owned()),
                datatype: Some(datatype.to_owned()),
            }))
        }
        _ => None,
    }
}

/// Splits `<decimal len>;<field of len bytes><rest>` into `(field, rest)`.
fn split_len_prefixed(s: &str) -> Option<(&str, &str)> {
    let semi = s.find(';')?;
    let digits = &s[..semi];
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let len: usize = digits.parse().ok()?;
    let body = &s[semi + 1..];
    Some((body.get(..len)?, body.get(len..)?))
}

/// The dictionary flattened into serializable columns: every term's
/// canonical key encoding concatenated into one UTF-8 blob, plus each
/// term's **end** offset (term `i` occupies `ends[i-1]..ends[i]`, with an
/// implicit 0 before the first). This is the exact on-disk representation
/// of the snapshot store's dictionary section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DictionaryParts {
    /// Concatenated canonical encodings, in id order.
    pub blob: String,
    /// End byte offset of each term's encoding within `blob`.
    pub ends: Vec<u64>,
}

/// A term slice failed to decode while rebuilding a dictionary from parts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TermDecodeError {
    /// Index of the offending term (its would-be id).
    pub index: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TermDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "term {}: {}", self.index, self.message)
    }
}

impl std::error::Error for TermDecodeError {}

/// Bidirectional term ↔ id mapping.
///
/// The id → term direction is the dense `terms` vector. The term → id map
/// is built **lazily** from it on first use: a dictionary reconstituted
/// from a snapshot that is only ever *read* (`term`, `display`, `iter`)
/// never pays for re-keying its terms.
#[derive(Default)]
pub struct Dictionary {
    terms: Vec<Term>,
    ids: std::sync::OnceLock<FxHashMap<Box<str>, TermId>>,
    scratch: String,
}

impl std::fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dictionary").field("len", &self.terms.len()).finish()
    }
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    fn next_id(terms: &[Term]) -> TermId {
        TermId(u32::try_from(terms.len()).expect("dictionary overflow: more than 2^32 terms"))
    }

    /// Builds the term → id map by re-encoding every term.
    fn build_ids(terms: &[Term]) -> FxHashMap<Box<str>, TermId> {
        let mut ids: FxHashMap<Box<str>, TermId> = FxHashMap::default();
        ids.reserve(terms.len());
        let mut scratch = String::new();
        for (i, term) in terms.iter().enumerate() {
            encode_term_ref(&term.as_ref(), &mut scratch);
            ids.insert(scratch.as_str().into(), TermId(i as u32));
        }
        ids
    }

    /// The term → id map, built on first use.
    fn ids_map(&self) -> &FxHashMap<Box<str>, TermId> {
        self.ids.get_or_init(|| Self::build_ids(&self.terms))
    }

    /// Ensures the term → id map exists, so the `intern*` paths can take a
    /// field-level re-borrow of it while still pushing to `terms`.
    fn ensure_ids(&mut self) {
        if self.ids.get().is_none() {
            let _ = self.ids.set(Self::build_ids(&self.terms));
        }
    }

    /// Interns a borrowed term, returning its (possibly pre-existing) id.
    /// Allocation-free on a hit; materializes the owned term on a miss.
    pub fn intern_ref(&mut self, term: &TermRef<'_>) -> TermId {
        let mut scratch = std::mem::take(&mut self.scratch);
        encode_term_ref(term, &mut scratch);
        self.ensure_ids();
        let ids = self.ids.get_mut().expect("initialized above");
        let id = match ids.get(scratch.as_str()) {
            Some(&id) => id,
            None => {
                let id = Self::next_id(&self.terms);
                self.terms.push(term.to_term());
                ids.insert(scratch.as_str().into(), id);
                id
            }
        };
        self.scratch = scratch;
        id
    }

    /// Interns `term`, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, term: Term) -> TermId {
        let mut scratch = std::mem::take(&mut self.scratch);
        encode_term_ref(&term.as_ref(), &mut scratch);
        self.ensure_ids();
        let ids = self.ids.get_mut().expect("initialized above");
        let id = match ids.get(scratch.as_str()) {
            Some(&id) => id,
            None => {
                let id = Self::next_id(&self.terms);
                ids.insert(scratch.as_str().into(), id);
                self.terms.push(term);
                id
            }
        };
        self.scratch = scratch;
        id
    }

    /// Interns a term whose canonical key the caller already encoded — the
    /// merge path of parallel ingestion, which reuses the chunk-local boxed
    /// keys instead of re-encoding. `key` **must** equal
    /// [`encode_term_ref`]`(&term.as_ref(), ..)`.
    pub fn intern_entry(&mut self, key: Box<str>, term: Term) -> TermId {
        self.ensure_ids();
        let ids = self.ids.get_mut().expect("initialized above");
        match ids.get(&*key) {
            Some(&id) => id,
            None => {
                let id = Self::next_id(&self.terms);
                ids.insert(key, id);
                self.terms.push(term);
                id
            }
        }
    }

    /// Interns an IRI given as a string.
    pub fn intern_iri(&mut self, iri: impl AsRef<str>) -> TermId {
        self.intern_ref(&TermRef::Iri(iri.as_ref()))
    }

    /// Looks up an already-interned term.
    pub fn id_of(&self, term: &Term) -> Option<TermId> {
        let mut key = String::new();
        encode_term_ref(&term.as_ref(), &mut key);
        self.ids_map().get(key.as_str()).copied()
    }

    /// The term for `id`. Panics on an id from another dictionary.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Human-readable rendering of `id` (IRI local name, literal lexical form).
    pub fn display(&self, id: TermId) -> String {
        match self.term(id) {
            Term::Iri(s) => local_name(s).to_owned(),
            Term::Blank(s) => format!("_:{s}"),
            Term::Literal(l) => l.lexical.clone(),
        }
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.terms.iter().enumerate().map(|(i, t)| (TermId(i as u32), t))
    }

    /// Flattens the dictionary into its serializable columns (canonical key
    /// blob + end offsets). The inverse is [`Dictionary::from_parts`].
    pub fn to_parts(&self) -> DictionaryParts {
        let mut blob = String::new();
        let mut ends = Vec::with_capacity(self.terms.len());
        let mut scratch = String::new();
        for term in &self.terms {
            encode_term_ref(&term.as_ref(), &mut scratch);
            blob.push_str(&scratch);
            ends.push(blob.len() as u64);
        }
        DictionaryParts { blob, ends }
    }

    /// Reconstitutes a dictionary from its columns: term text is **borrowed
    /// by offset** out of `blob` (no intermediate per-term buffers) and
    /// terms decode in parallel over `threads` workers (`0` = auto), ids
    /// `0..n` in slice order. The term → id map is *not* rebuilt here — it
    /// materializes lazily on the first `id_of`/`intern`, which the
    /// snapshot serving path never reaches.
    ///
    /// Fails (never panics) if an offset is out of range, not a char
    /// boundary, non-monotone, or a slice is not a valid canonical
    /// encoding. Slices are trusted to be distinct (the writer emits each
    /// interned term once; the snapshot checksum guards the file).
    pub fn from_parts(
        blob: &str,
        ends: &[u64],
        threads: usize,
    ) -> Result<Dictionary, TermDecodeError> {
        let err = |index: usize, message: &str| TermDecodeError {
            index,
            message: message.to_owned(),
        };
        if ends.last().copied().unwrap_or(0) != blob.len() as u64 {
            return Err(err(ends.len().saturating_sub(1), "blob length mismatch"));
        }
        // Cut the blob into per-term slices, validating monotonicity and
        // char boundaries (`str::get` refuses both bad cases).
        let mut slices: Vec<&str> = Vec::with_capacity(ends.len());
        let mut start = 0u64;
        for (i, &end) in ends.iter().enumerate() {
            if end < start {
                return Err(err(i, "non-monotone offsets"));
            }
            let slice = blob
                .get(start as usize..end as usize)
                .ok_or_else(|| err(i, "offset out of range or not a char boundary"))?;
            slices.push(slice);
            start = end;
        }
        // Decode in parallel; chunk boundaries depend only on the data, so
        // the result is thread-count-independent.
        let ranges = spade_parallel::chunk_ranges(slices.len(), 1 << 11);
        let slices_ref = &slices;
        let chunks: Vec<Result<Vec<Term>, TermDecodeError>> =
            spade_parallel::map(ranges, threads, |(a, b)| {
                slices_ref[a..b]
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        decode_term(s).ok_or_else(|| err(a + i, "invalid canonical encoding"))
                    })
                    .collect()
            });
        let mut terms = Vec::with_capacity(slices.len());
        for chunk in chunks {
            terms.extend(chunk?);
        }
        Ok(Dictionary { terms, ids: std::sync::OnceLock::new(), scratch: String::new() })
    }
}

/// The fragment / last path segment of an IRI — used for display only.
pub fn local_name(iri: &str) -> &str {
    let tail = iri.rsplit(['#', '/']).next().unwrap_or(iri);
    if tail.is_empty() {
        iri
    } else {
        tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(Term::iri("http://x/a"));
        let b = d.intern(Term::iri("http://x/b"));
        let a2 = d.intern(Term::iri("http://x/a"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut d = Dictionary::new();
        for i in 0..100 {
            let id = d.intern(Term::int(i));
            assert_eq!(id.index(), i as usize);
        }
    }

    #[test]
    fn roundtrip_term_lookup() {
        let mut d = Dictionary::new();
        let t = Term::Literal(crate::term::Literal::lang_tagged("héllo", "fr"));
        let id = d.intern(t.clone());
        assert_eq!(d.term(id), &t);
        assert_eq!(d.id_of(&t), Some(id));
        assert_eq!(d.id_of(&Term::lit("absent")), None);
    }

    #[test]
    fn literals_differing_only_in_tag_are_distinct() {
        let mut d = Dictionary::new();
        let plain = d.intern(Term::lit("42"));
        let typed = d.intern(Term::int(42));
        assert_ne!(plain, typed);
    }

    #[test]
    fn ref_and_owned_interning_agree() {
        let mut d = Dictionary::new();
        let owned = d.intern(Term::iri("http://x/a"));
        let by_ref = d.intern_ref(&TermRef::Iri("http://x/a"));
        assert_eq!(owned, by_ref);
        let lit = d.intern(Term::lit("hello"));
        let lit_ref = d.intern_ref(&TermRef::Literal(LiteralRef {
            lexical: Cow::Borrowed("hello"),
            lang: None,
            datatype: None,
        }));
        assert_eq!(lit, lit_ref);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn encodings_disambiguate_kinds() {
        // "x" as IRI / blank / plain / lang / typed are five distinct terms.
        let mut d = Dictionary::new();
        let ids = [
            d.intern(Term::iri("x")),
            d.intern(Term::blank("x")),
            d.intern(Term::lit("x")),
            d.intern(Term::Literal(crate::term::Literal::lang_tagged("x", "en"))),
            d.intern(Term::Literal(crate::term::Literal::typed("x", "http://t"))),
        ];
        let mut unique = ids.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 5);
    }

    #[test]
    fn encodings_stay_injective_with_embedded_nuls() {
        // Length-prefixed fields: shifting bytes between the tag/datatype
        // and the lexical form must never collide.
        let mut d = Dictionary::new();
        let ids = [
            d.intern(Term::Literal(crate::term::Literal::typed("y\0", "x"))),
            d.intern(Term::Literal(crate::term::Literal::typed("", "x\0y"))),
            d.intern(Term::Literal(crate::term::Literal::lang_tagged("b\0", "a"))),
            d.intern(Term::Literal(crate::term::Literal::lang_tagged("", "a\0b"))),
        ];
        let mut unique = ids.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(d.id_of(d.term(id)), Some(id), "roundtrip {i}");
        }
    }

    #[test]
    fn intern_entry_matches_intern() {
        let mut a = Dictionary::new();
        let mut b = Dictionary::new();
        let term = Term::int(42);
        let mut key = String::new();
        encode_term_ref(&term.as_ref(), &mut key);
        let ia = a.intern(term.clone());
        let ib = b.intern_entry(key.into(), term);
        assert_eq!(ia, ib);
    }

    #[test]
    fn decode_inverts_encode() {
        let terms = [
            Term::iri("http://x/a"),
            Term::blank("b0"),
            Term::lit(""),
            Term::lit("x;y\0z"),
            Term::Literal(crate::term::Literal::lang_tagged("héllo;", "fr")),
            Term::Literal(crate::term::Literal::typed("1;2", "http://t;u")),
            // Dual-tagged literal (only reachable via the public fields):
            // must round-trip rather than collapse to the lang-only form.
            Term::Literal(crate::term::Literal {
                lexical: "x".into(),
                lang: Some("en".into()),
                datatype: Some("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString".into()),
            }),
            Term::int(-7),
        ];
        let mut key = String::new();
        for t in &terms {
            encode_term_ref(&t.as_ref(), &mut key);
            assert_eq!(decode_term(&key).as_ref(), Some(t), "key {key:?}");
        }
        for bad in ["", "X", "G;x", "Gx;y", "G9;ab", "D2x", "G2"] {
            assert_eq!(decode_term(bad), None, "bad key {bad:?}");
        }
    }

    #[test]
    fn parts_roundtrip_bit_identical() {
        let mut d = Dictionary::new();
        d.intern(Term::iri("http://x/a"));
        d.intern(Term::Literal(crate::term::Literal::lang_tagged("x;3", "en")));
        d.intern(Term::lit("plain"));
        d.intern(Term::blank("n1"));
        let parts = d.to_parts();
        for threads in [1, 2, 8] {
            let back = Dictionary::from_parts(&parts.blob, &parts.ends, threads).unwrap();
            assert_eq!(back.len(), d.len());
            for (id, term) in d.iter() {
                assert_eq!(back.term(id), term);
                assert_eq!(back.id_of(term), Some(id), "id map rebuilt");
            }
            // The rebuilt dictionary interns new terms after the loaded ones.
            let mut back = back;
            assert_eq!(back.intern(Term::lit("fresh")).index(), d.len());
        }
        assert!(Dictionary::from_parts("", &[], 1).unwrap().is_empty());
    }

    #[test]
    fn from_parts_rejects_malformed_columns() {
        let parts = {
            let mut d = Dictionary::new();
            d.intern(Term::iri("http://x/a"));
            d.intern(Term::lit("v"));
            d.to_parts()
        };
        // Wrong total length.
        assert!(Dictionary::from_parts(&parts.blob, &[parts.ends[0]], 1).is_err());
        // Non-monotone offsets.
        assert!(
            Dictionary::from_parts(&parts.blob, &[parts.ends[1], parts.ends[1]], 1).is_err()
        );
        // Offset not on a char boundary.
        assert!(Dictionary::from_parts("Iaé", &[2, 4], 1).is_err());
        // Invalid tag byte.
        assert!(Dictionary::from_parts("Zoops", &[5], 1).is_err());
    }

    #[test]
    fn local_names() {
        assert_eq!(local_name("http://x/ns#age"), "age");
        assert_eq!(local_name("http://x/people/alice"), "alice");
        assert_eq!(local_name("plain"), "plain");
    }

    #[test]
    fn display_forms() {
        let mut d = Dictionary::new();
        let iri = d.intern(Term::iri("http://x/ns#netWorth"));
        let lit = d.intern(Term::lit("Angola"));
        assert_eq!(d.display(iri), "netWorth");
        assert_eq!(d.display(lit), "Angola");
    }
}
