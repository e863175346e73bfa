//! Text processing for the NLP-flavoured workloads.
//!
//! The paper's IE workflow leans on CoreNLP for tokenization, sentence
//! splitting and part-of-speech tagging (§2.1, §6.2). We provide compact
//! deterministic equivalents: the point of the reproduction is the *cost
//! structure* (an expensive parse whose output is reusable across
//! iterations), not linguistic fidelity.

/// Lowercase alphanumeric tokenizer; splits on any non-alphanumeric rune.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Tokenizer preserving original case (needed for name detection).
pub fn tokenize_cased(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            current.push(ch);
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Minimal English stop-word list (enough to shrink feature spaces in the
/// workloads; not a linguistics claim).
const STOP_WORDS: [&str; 24] = [
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has", "in", "is", "it", "of",
    "on", "or", "that", "the", "to", "was", "were", "with", "this",
];

/// True when `token` is a stop word (expects lowercase input).
fn is_stop_word(token: &str) -> bool {
    STOP_WORDS.contains(&token)
}

/// Remove stop words from a token stream.
pub fn remove_stop_words(tokens: Vec<String>) -> Vec<String> {
    tokens.into_iter().filter(|t| !is_stop_word(t)).collect()
}

/// Contiguous n-grams joined with `_`.
pub fn ngrams(tokens: &[String], n: usize) -> Vec<String> {
    if n == 0 || tokens.len() < n {
        return Vec::new();
    }
    tokens.windows(n).map(|w| w.join("_")).collect()
}

/// Split text into sentences on `.`, `!`, `?` (quote-naive).
pub fn split_sentences(text: &str) -> Vec<&str> {
    text.split(['.', '!', '?']).map(str::trim).filter(|s| !s.is_empty()).collect()
}

/// Coarse part-of-speech-style tags used by the IE features.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PosTag {
    /// Capitalized token mid-sentence → treated as a proper noun.
    ProperNoun,
    /// Numeric token.
    Number,
    /// `-ly` adverbs.
    Adverb,
    /// Common verb endings / auxiliary list.
    Verb,
    /// Everything else.
    Other,
}

/// Rule-based tagger over *cased* tokens. `position` is the token index
/// within its sentence (sentence-initial capitalization is not evidence of
/// a proper noun).
fn pos_tag(token: &str, position: usize) -> PosTag {
    if token.chars().all(|c| c.is_ascii_digit()) {
        return PosTag::Number;
    }
    let mut chars = token.chars();
    let first_upper = chars.next().is_some_and(char::is_uppercase);
    if first_upper && position > 0 {
        return PosTag::ProperNoun;
    }
    let lower = token.to_lowercase();
    if lower.ends_with("ly") && lower.len() > 3 {
        return PosTag::Adverb;
    }
    const AUX: [&str; 8] = ["is", "was", "are", "were", "married", "met", "wed", "divorced"];
    if AUX.contains(&lower.as_str()) || lower.ends_with("ed") || lower.ends_with("ing") {
        return PosTag::Verb;
    }
    PosTag::Other
}

/// Tag a full cased-token sentence.
pub fn pos_tag_sentence(tokens: &[String]) -> Vec<PosTag> {
    tokens.iter().enumerate().map(|(i, t)| pos_tag(t, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_basic() {
        assert_eq!(tokenize("Hello, World! 42"), vec!["hello", "world", "42"]);
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("  --  "), Vec::<String>::new());
        assert_eq!(tokenize("gene-disease"), vec!["gene", "disease"]);
    }

    #[test]
    fn tokenize_cased_preserves_case() {
        assert_eq!(tokenize_cased("Barack met Michelle"), vec!["Barack", "met", "Michelle"]);
    }

    #[test]
    fn stop_word_removal() {
        let tokens = tokenize("the gene is in the cell");
        let kept = remove_stop_words(tokens);
        assert_eq!(kept, vec!["gene", "cell"]);
    }

    #[test]
    fn ngram_windows() {
        let tokens: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        assert_eq!(ngrams(&tokens, 2), vec!["a_b", "b_c"]);
        assert_eq!(ngrams(&tokens, 3), vec!["a_b_c"]);
        assert!(ngrams(&tokens, 4).is_empty());
        assert!(ngrams(&tokens, 0).is_empty());
    }

    #[test]
    fn sentence_splitting() {
        let sents = split_sentences("One sentence. Another one! A third? ");
        assert_eq!(sents, vec!["One sentence", "Another one", "A third"]);
        assert!(split_sentences("...").is_empty());
    }

    #[test]
    fn pos_rules() {
        assert_eq!(pos_tag("Barack", 3), PosTag::ProperNoun);
        assert_eq!(pos_tag("Barack", 0), PosTag::Other, "sentence-initial caps not proper noun");
        assert_eq!(pos_tag("2015", 2), PosTag::Number);
        assert_eq!(pos_tag("quickly", 2), PosTag::Adverb);
        assert_eq!(pos_tag("married", 2), PosTag::Verb);
        assert_eq!(pos_tag("walking", 1), PosTag::Verb);
        assert_eq!(pos_tag("table", 1), PosTag::Other);
    }

    #[test]
    fn pos_sentence_alignment() {
        let tokens = tokenize_cased("Barack married Michelle");
        let tags = pos_tag_sentence(&tokens);
        assert_eq!(tags, vec![PosTag::Other, PosTag::Verb, PosTag::ProperNoun]);
    }
}
