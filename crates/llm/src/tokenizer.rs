//! A BPE-flavoured code tokenizer.
//!
//! The paper filters DRB-ML to entries whose prompt fits in 4k tokens
//! (198 of 201 survive, §3.2) and uses a 16k-context GPT-3.5 variant.
//! This tokenizer reproduces the *counting* behaviour of a modern code
//! tokenizer: whitespace runs, punctuation, and identifier/number pieces
//! of bounded length, with a merge table that keeps common C/OpenMP
//! lexemes as single tokens.

/// A token: its text and a stable vocabulary id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Token {
    /// The surface text.
    pub text: String,
    /// Stable id (FNV hash of the text folded to 31 bits).
    pub id: u32,
}

/// The stable vocabulary id of a token text (FNV-1a folded to 31 bits).
fn token_id(text: &str) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for b in text.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h & 0x7FFF_FFFF
}

/// Maximum identifier-piece length for unknown words (BPE fragments).
const PIECE: usize = 4;

/// The merge table: common C/OpenMP lexemes kept whole, sorted for
/// binary search. Only words longer than [`PIECE`] are listed, since
/// shorter words (`int`, `for`, `omp`, `simd`, `task`, `main`, …) stay
/// whole anyway.
const MERGES: &[&str] = &[
    "atomic", "barrier", "break", "capture", "collapse", "const", "continue", "critical",
    "default", "define", "depend", "distribute", "double", "dynamic", "firstprivate", "float",
    "flush", "guided", "include", "inout", "lastprivate", "malloc", "master", "nowait",
    "num_threads", "omp_destroy_lock", "omp_get_num_threads", "omp_get_thread_num",
    "omp_init_lock", "omp_lock_t", "omp_set_lock", "omp_unset_lock", "ordered", "parallel",
    "pragma", "printf", "private", "reduction", "return", "runtime", "safelen", "schedule",
    "section", "sections", "shared", "single", "sizeof", "static", "target", "taskwait",
    "teams", "threadprivate", "tofrom", "while",
];

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Walk `src` and hand each token's text to `emit`, in order, without
/// allocating. Every public entry point below is built on this one scan,
/// so counting and tokenizing cannot disagree.
///
/// * ASCII whitespace folds into the following token (GPT-style), except
///   that each newline is a token of its own (the text `\\n`).
/// * A word (`[A-Za-z0-9_]+`) is one token when it is at most [`PIECE`]
///   bytes or in [`MERGES`]; otherwise it splits into `PIECE`-byte
///   pieces (BPE fragments).
/// * Two-character operators are one token; other ASCII punctuation is
///   one token per byte.
/// * Each non-ASCII character is one token.
///
/// No token is longer in count than in bytes: a newline is 1 byte, a word
/// piece at least 1, an operator 1–2, a non-ASCII character 2–4, and
/// whitespace folds away. So a scan never emits more tokens than `src`
/// has bytes, which is what lets [`within_tokens`] answer short inputs
/// without scanning.
pub(crate) fn scan<'a>(src: &'a str, mut emit: impl FnMut(&'a str)) {
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            if b == b'\n' {
                emit("\\n");
            }
            i += 1;
        } else if is_word_byte(b) {
            let start = i;
            while i < bytes.len() && is_word_byte(bytes[i]) {
                i += 1;
            }
            let word = &src[start..i];
            if word.len() <= PIECE || MERGES.binary_search(&word).is_ok() {
                emit(word);
            } else {
                // Words are ASCII, so every byte offset is a char boundary.
                for at in (0..word.len()).step_by(PIECE) {
                    emit(&word[at..(at + PIECE).min(word.len())]);
                }
            }
        } else if !b.is_ascii() {
            let len = src[i..].chars().next().map_or(1, char::len_utf8);
            emit(&src[i..i + len]);
            i += len;
        } else {
            // Punctuation: greedily take two-char operators.
            let two = src.get(i..i + 2).unwrap_or("");
            let len = if matches!(
                two,
                "==" | "!=" | "<=" | ">=" | "&&" | "||" | "+=" | "-=" | "*=" | "/=" | "%=" | "++"
                    | "--" | "<<" | ">>" | "->"
            ) {
                2
            } else {
                1
            };
            emit(&src[i..i + len]);
            i += len;
        }
    }
}

/// Tokenize source text.
pub fn tokenize(src: &str) -> Vec<Token> {
    let mut out = Vec::with_capacity(src.len() / 3 + 4);
    scan(src, |text| out.push(Token { text: text.to_string(), id: token_id(text) }));
    out
}

/// The token ids of source text (what [`tokenize`] would return, without
/// the texts).
pub(crate) fn token_ids(src: &str) -> Vec<u32> {
    let mut out = Vec::with_capacity(src.len() / 3 + 4);
    scan(src, |text| out.push(token_id(text)));
    out
}

/// Token count (the only thing the DRB-ML filter needs). Allocation-free.
pub fn count_tokens(src: &str) -> usize {
    let mut n = 0;
    scan(src, |_| n += 1);
    n
}

/// Is `count_tokens(src) <= max`? Exact, and answered from `src.len()`
/// alone whenever `src` has at most `max` bytes, since [`scan`] never
/// emits more tokens than bytes; only longer inputs are scanned. Every
/// token-budget decision (a chat's context window, the 4k filter) goes
/// through here.
pub fn within_tokens(src: &str, max: usize) -> bool {
    src.len() <= max || count_tokens(src) <= max
}

/// The context budget used by the paper's filter.
pub const PROMPT_TOKEN_LIMIT: usize = 4096;

/// Does a code snippet fit the 4k prompt budget (fewer than
/// [`PROMPT_TOKEN_LIMIT`] tokens)?
pub fn fits_prompt_budget(src: &str) -> bool {
    within_tokens(src, PROMPT_TOKEN_LIMIT - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_stay_whole() {
        let toks = tokenize("#pragma omp parallel for reduction(+: sum)");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"pragma"));
        assert!(texts.contains(&"parallel"));
        assert!(texts.contains(&"reduction"));
    }

    #[test]
    fn long_identifiers_split() {
        let toks = tokenize("extraordinarily_long_name");
        assert!(toks.len() > 1);
        let joined: String = toks.iter().map(|t| t.text.as_str()).collect::<String>();
        assert_eq!(joined, "extraordinarily_long_name");
    }

    #[test]
    fn ids_deterministic() {
        let a = tokenize("int x = 1;");
        let b = tokenize("int x = 1;");
        assert_eq!(a, b);
    }

    #[test]
    fn two_char_operators_single_token() {
        let toks = tokenize("a += b && c");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"+="));
        assert!(texts.contains(&"&&"));
    }

    #[test]
    fn typical_kernel_is_small() {
        let src = r#"
int main(void) {
  int a[100];
  #pragma omp parallel for
  for (int i = 0; i < 99; i++)
    a[i] = a[i + 1];
  return 0;
}
"#;
        let n = count_tokens(src);
        assert!(n > 20 && n < 200, "{n}");
        assert!(fits_prompt_budget(src));
    }

    #[test]
    fn within_tokens_is_exact_at_the_boundary() {
        // 9 bytes, 3 tokens: every budget from 3 up fits.
        let src = "abcd\nefgh";
        assert_eq!(count_tokens(src), 3);
        for max in 0..12 {
            assert_eq!(within_tokens(src, max), count_tokens(src) <= max, "max {max}");
        }
        // One token per byte: the length shortcut is exactly tight.
        for max in 0..6 {
            assert_eq!(within_tokens(";;;;", max), max >= 4, "max {max}");
        }
        assert!(within_tokens("", 0));
        let exact = "x ".repeat(PROMPT_TOKEN_LIMIT);
        assert_eq!(count_tokens(&exact), PROMPT_TOKEN_LIMIT);
        assert!(!fits_prompt_budget(&exact));
        assert!(fits_prompt_budget(&exact[2..]));
    }

    #[test]
    fn empty_is_empty() {
        assert_eq!(count_tokens(""), 0);
    }

    #[test]
    fn merge_table_is_sorted_and_only_long_words() {
        assert!(MERGES.windows(2).all(|w| w[0] < w[1]));
        assert!(MERGES.iter().all(|w| w.len() > PIECE));
        let texts = |s: &str| tokenize(s).into_iter().map(|t| t.text).collect::<Vec<_>>();
        assert_eq!(texts("omp_get_thread_num"), ["omp_get_thread_num"]);
        assert_eq!(texts("omp_get_thread_id"), ["omp_", "get_", "thre", "ad_i", "d"]);
    }

    #[test]
    fn non_ascii_characters_are_one_token_each() {
        let toks = tokenize("printf(\"naïve→ok\");");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["printf", "(", "\"", "na", "ï", "ve", "→", "ok", "\"", ")", ";"]);
        assert_eq!(count_tokens("é\u{a0}x🦀"), 4);
        assert_eq!(token_ids("naïve"), toks[3..6].iter().map(|t| t.id).collect::<Vec<_>>());
    }
}
