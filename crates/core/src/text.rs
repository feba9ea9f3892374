//! Text utilities for derived properties: keyword extraction and language
//! detection (Section 3's Derived Property Enumeration, items (ii) and
//! (iii)).

/// Minimal multilingual stopword lists used both to drop noise keywords and
/// to detect the language of a text property.
const STOPWORDS_EN: [&str; 24] = [
    "the", "a", "an", "and", "or", "of", "in", "on", "for", "with", "to", "is", "are", "was",
    "be", "by", "at", "as", "that", "this", "from", "it", "its", "into",
];
const STOPWORDS_FR: [&str; 22] = [
    "le",
    "la",
    "les",
    "un",
    "une",
    "des",
    "et",
    "ou",
    "de",
    "du",
    "dans",
    "sur",
    "pour",
    "avec",
    "est",
    "sont",
    "par",
    "au",
    "aux",
    "que",
    "qui",
    "mélanger",
];
const STOPWORDS_DE: [&str; 16] = [
    "der", "die", "das", "ein", "eine", "und", "oder", "von", "im", "auf", "für", "mit", "ist",
    "sind", "durch", "dem",
];
const STOPWORDS_ES: [&str; 16] = [
    "el", "la", "los", "las", "un", "una", "y", "o", "de", "del", "en", "para", "con", "es",
    "son", "por",
];

/// Lowercases and splits a text into candidate tokens (alphabetic runs of
/// length ≥ `min_len`).
fn tokens(text: &str, min_len: usize) -> Vec<String> {
    text.split(|c: char| !c.is_alphabetic())
        .filter(|t| t.chars().count() >= min_len)
        .map(|t| t.to_lowercase())
        .collect()
}

/// Extracts keywords from a text property value: lowercased alphabetic
/// tokens of length ≥ `min_len`, minus stopwords, deduplicated.
///
/// E.g. "Sonangol oversees petroleum production" → the company "gain\[s\] the
/// multi-valued attribute kwInDescription with the values Petroleum and
/// Production" (Section 3) — plus the other content words.
pub fn keywords(text: &str, min_len: usize) -> Vec<String> {
    let mut out: Vec<String> = tokens(text, min_len)
        .into_iter()
        .filter(|t| {
            let t = t.as_str();
            !STOPWORDS_EN.contains(&t)
                && !STOPWORDS_FR.contains(&t)
                && !STOPWORDS_DE.contains(&t)
                && !STOPWORDS_ES.contains(&t)
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Detects the language of a text by stopword hit counting. Returns `None`
/// for texts with no recognizable function words (numbers, names, codes).
pub fn detect_language(text: &str) -> Option<&'static str> {
    let toks = tokens(text, 1);
    if toks.is_empty() {
        return None;
    }
    let count = |list: &[&str]| toks.iter().filter(|t| list.contains(&t.as_str())).count();
    let scores = [
        ("English", count(&STOPWORDS_EN)),
        ("French", count(&STOPWORDS_FR)),
        ("German", count(&STOPWORDS_DE)),
        ("Spanish", count(&STOPWORDS_ES)),
    ];
    let (lang, hits) = scores.iter().max_by_key(|(_, c)| *c).copied().unwrap();
    (hits > 0).then_some(lang)
}

/// `true` when a literal looks like free text worth keyword/language
/// derivation: several alphabetic words (Offline Attribute Analysis uses
/// this to decide "if derivations should be generated for a given
/// property").
pub fn is_texty(value: &str) -> bool {
    tokens(value, 2).len() >= 3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_extraction_matches_paper_example() {
        let kws = keywords("Sonangol oversees petroleum production", 4);
        assert!(kws.contains(&"petroleum".to_owned()));
        assert!(kws.contains(&"production".to_owned()));
        assert!(kws.contains(&"sonangol".to_owned()));
    }

    #[test]
    fn stopwords_and_short_tokens_dropped() {
        let kws = keywords("The cat sat on the mat with a hat", 4);
        assert!(!kws.iter().any(|k| k == "the" || k == "with"));
        assert!(!kws.iter().any(|k| k == "cat" || k == "sat"));
    }

    #[test]
    fn keywords_are_deduplicated_and_sorted() {
        let kws = keywords("query query engine engine", 4);
        assert_eq!(kws, vec!["engine".to_owned(), "query".to_owned()]);
    }

    #[test]
    fn detects_english_and_french() {
        assert_eq!(
            detect_language("Mix the flour and the butter with the sugar in a bowl"),
            Some("English")
        );
        assert_eq!(
            detect_language("Mélanger la farine et le beurre avec le sucre dans un bol"),
            Some("French")
        );
        assert_eq!(detect_language("12345 -- !!"), None);
        assert_eq!(detect_language("Zorgblatt Qwerty"), None);
    }

    #[test]
    fn texty_detection() {
        assert!(is_texty("Sonangol oversees petroleum production"));
        assert!(!is_texty("42"));
        assert!(!is_texty("Angola"));
        assert!(!is_texty("New York"));
    }
}
