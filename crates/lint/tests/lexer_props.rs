//! Property tests for the lint lexer: it must be *total* (any byte soup
//! lexes without panicking) and *lossless* (token spans tile the input
//! exactly, so concatenating token texts round-trips the source).  The
//! vendored proptest shim has no string strategies, so inputs are built
//! from fragment indices and raw byte vectors.

use mdrr_lint::lexer::{lex, TokenKind};
use proptest::prelude::*;

/// Fragments chosen to collide interestingly when concatenated: every
/// token class, plus unterminated openers and stray closers.
const FRAGMENTS: &[&str] = &[
    "fn main() {",
    "}",
    "let x = 1;",
    "// line comment\n",
    "/* block /* nested */ */",
    "r#\"raw \" string\"#",
    "r##\"deeper \"# still\"##",
    "\"str \\\" esc\"",
    "'a'",
    "'\\n'",
    "'static",
    "b'x'",
    "b\"bytes\"",
    "br#\"raw bytes\"#",
    "1.0f64",
    "0xFF_u32",
    "1..10",
    "ident_a",
    "r#match",
    "=> :: .. ..= #![forbid(unsafe_code)]",
    "\u{1F600}",
    "é∂å",
    "\n",
    " ",
    "\t",
    "unsafe {",
    "*/",
    "\"unterminated",
    "r#\"unterminated",
    "/* unterminated",
    "'",
];

/// Concatenates the indexed fragments into one source string.
fn build(idxs: &[usize]) -> String {
    idxs.iter()
        .map(|&i| FRAGMENTS[i % FRAGMENTS.len()])
        .collect()
}

/// Spans must start at 0, be non-empty, abut exactly, and end at EOF —
/// and every span must slice cleanly (char-boundary safe).
fn assert_tiles(src: &str) {
    let tokens = lex(src);
    let mut pos = 0usize;
    for t in &tokens {
        prop_assert_eq!(t.start, pos, "gap or overlap at byte {}", pos);
        prop_assert!(t.end > t.start, "empty token at byte {}", pos);
        pos = t.end;
    }
    prop_assert_eq!(pos, src.len(), "tokens do not reach EOF");
    let rebuilt: String = tokens.iter().map(|t| t.text(src)).collect();
    prop_assert_eq!(rebuilt, src, "token texts do not round-trip the source");
}

proptest! {
    /// Any concatenation of fragments lexes totally and round-trips.
    #[test]
    fn fragment_soup_lexes_totally(idxs in prop::collection::vec(0usize..31, 0..40)) {
        let src = build(&idxs);
        assert_tiles(&src);
    }

    /// Any byte soup (lossily decoded) lexes totally and round-trips —
    /// no panic on inputs that are not remotely Rust.
    #[test]
    fn byte_soup_lexes_totally(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        assert_tiles(&src);
    }

    /// Line/column bookkeeping is monotone: lines never decrease, and a
    /// token on a fresh line starts at column 1 or later.
    #[test]
    fn positions_are_monotone(idxs in prop::collection::vec(0usize..31, 0..40)) {
        let src = build(&idxs);
        let mut last_line = 1u32;
        for t in lex(&src) {
            prop_assert!(t.line >= last_line, "line went backwards");
            prop_assert!(t.col >= 1, "columns are 1-based");
            last_line = t.line;
        }
    }
}

#[test]
fn significant_filter_drops_exactly_trivia() {
    let src = "let a = 1; // c\n/* b */ \"s\" 'c' r#\"raw\"#";
    for t in lex(src) {
        let trivia = matches!(
            t.kind,
            TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
        );
        assert_eq!(t.kind.is_significant(), !trivia, "token {:?}", t);
    }
}
