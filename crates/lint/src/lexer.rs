//! A minimal comment- and string-aware Rust lexer.
//!
//! The rule engine does not need a real parse tree; it needs to answer two
//! questions about a source file reliably:
//!
//! 1. *Is this byte code, or is it inside a comment / string literal?*
//!    Rules must not fire on `"#[expect(clippy::panic)]"` appearing in a doc
//!    comment or a string. [`LexedFile::masked`] is the file with every
//!    comment and literal body replaced by spaces — same byte length, same
//!    line structure, so byte offsets and line numbers carry over.
//! 2. *Which lines belong to `#[cfg(test)]` items?* What only an in-file unit
//!    test names keeps no `pub` item alive ([`LexedFile::is_test_line`]).
//!
//! The lexer understands line comments, nested block comments, string
//! literals (including byte strings and raw strings with any number of `#`
//! marks), char literals, and the char-vs-lifetime ambiguity (`'a'` versus
//! `'a`). It deliberately does not tokenize beyond that.

/// The result of lexing one source file.
#[derive(Debug)]
pub struct LexedFile {
    /// The source with comments and literal bodies blanked out by spaces.
    /// Identical byte length and newline positions to the original.
    pub masked: String,
    /// Byte offset of the start of each line (index 0 = line 1).
    line_starts: Vec<usize>,
    /// `lines_test[i]` is true when 1-based line `i + 1` is inside a
    /// `#[cfg(test)]` item.
    lines_test: Vec<bool>,
}

impl LexedFile {
    /// Lexes `source` into a masked view plus a test-region map.
    pub fn lex(source: &str) -> LexedFile {
        let bytes = source.as_bytes();
        let mut masked = source.as_bytes().to_vec();

        let mut i = 0usize;
        while i < bytes.len() {
            let b = bytes[i];
            match b {
                b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        masked[i] = b' ';
                        i += 1;
                    }
                }
                b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                    let mut depth = 1usize;
                    masked[i] = b' ';
                    masked[i + 1] = b' ';
                    i += 2;
                    while i < bytes.len() && depth > 0 {
                        if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                            depth += 1;
                            masked[i] = b' ';
                            masked[i + 1] = b' ';
                            i += 2;
                        } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                            depth -= 1;
                            masked[i] = b' ';
                            masked[i + 1] = b' ';
                            i += 2;
                        } else {
                            if bytes[i] != b'\n' {
                                masked[i] = b' ';
                            }
                            i += 1;
                        }
                    }
                }
                b'"' => i = mask_string(bytes, &mut masked, i),
                b'r' | b'b' => {
                    if let Some(next) = raw_or_byte_literal(bytes, &mut masked, i) {
                        // Keep the prefix bytes (`r`, `b`, `#`s) visible; the
                        // literal body itself is blanked by the helper.
                        i = next;
                    } else {
                        i += 1;
                    }
                }
                b'\'' => i = mask_char_or_lifetime(bytes, &mut masked, i),
                _ => i += 1,
            }
        }

        let masked = String::from_utf8_lossy(&masked).into_owned();
        let line_starts = compute_line_starts(&masked);
        let lines_test = mark_test_lines(&masked, &line_starts);
        LexedFile {
            masked,
            line_starts,
            lines_test,
        }
    }

    /// Maps a byte offset in [`Self::masked`] to a 1-based line number.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(idx) => idx + 1,
            Err(idx) => idx,
        }
    }

    /// True when the given 1-based line lies inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: usize) -> bool {
        line >= 1 && self.lines_test.get(line - 1).copied().unwrap_or(false)
    }
}

/// Masks a regular (escaped) string literal starting at the opening quote.
/// Returns the offset just past the closing quote.
fn mask_string(bytes: &[u8], masked: &mut [u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if i + 1 < bytes.len() => {
                masked[i] = b' ';
                if bytes[i + 1] != b'\n' {
                    masked[i + 1] = b' ';
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => i += 1,
            _ => {
                masked[i] = b' ';
                i += 1;
            }
        }
    }
    i
}

/// Recognizes raw strings (`r"…"`, `r#"…"#`), byte strings (`b"…"`), and raw
/// byte strings (`br#"…"#`) starting at `start`. Masks the body and returns
/// the offset past the literal, or `None` when `start` is just an identifier
/// beginning with `r`/`b`.
fn raw_or_byte_literal(bytes: &[u8], masked: &mut [u8], start: usize) -> Option<usize> {
    // Bail out when the r/b is part of a longer identifier (`break`, `row`).
    if start > 0 {
        let prev = bytes[start - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return None;
        }
    }
    let mut i = start;
    if bytes[i] == b'b' {
        i += 1;
        if i < bytes.len() && bytes[i] == b'\'' {
            // byte char literal b'x'
            let end = skip_char_body(bytes, i);
            for k in (i + 1)..end.min(bytes.len()) {
                if bytes[k] != b'\n' {
                    masked[k] = b' ';
                }
            }
            return Some(end);
        }
    }
    let raw = i < bytes.len() && bytes[i] == b'r';
    if raw {
        i += 1;
    }
    let mut hashes = 0usize;
    while raw && i < bytes.len() && bytes[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= bytes.len() || bytes[i] != b'"' {
        return None;
    }
    if !raw {
        // plain byte string b"…": same escape rules as a normal string; the
        // caller masks from the quote.
        return Some(i); // let the main loop handle the quote next
    }
    // raw string: scan for `"` followed by `hashes` `#`s, blanking the body.
    let body_start = i + 1;
    i += 1;
    let end = loop {
        if i >= bytes.len() {
            break i;
        }
        if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0usize;
            while j < bytes.len() && bytes[j] == b'#' && seen < hashes {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                break j;
            }
        }
        i += 1;
    };
    for k in body_start..end.min(bytes.len()) {
        if bytes[k] != b'\n' {
            masked[k] = b' ';
        }
    }
    Some(end)
}

/// Distinguishes a char literal from a lifetime at a `'`. Masks char bodies;
/// leaves lifetimes untouched. Returns the offset to continue from.
fn mask_char_or_lifetime(bytes: &[u8], masked: &mut [u8], start: usize) -> usize {
    let i = start + 1;
    if i >= bytes.len() {
        return i;
    }
    if bytes[i] == b'\\' {
        // escaped char literal '\n', '\'', '\u{…}': blank the body.
        let end = skip_char_body(bytes, start);
        for (off, m) in masked.iter_mut().enumerate().take(end).skip(start + 1) {
            if bytes[off] != b'\n' && bytes[off] != b'\'' {
                *m = b' ';
            }
        }
        return end;
    }
    // 'X' (single char then closing quote) is a char literal; anything else
    // ('a as a lifetime, '_, 'static) is left alone.
    let char_len = utf8_len(bytes[i]);
    let close = i + char_len;
    if close < bytes.len() && bytes[close] == b'\'' {
        for m in masked.iter_mut().take(close).skip(i) {
            *m = b' ';
        }
        return close + 1;
    }
    i
}

/// Skips past a (possibly escaped) char literal starting at the opening `'`.
fn skip_char_body(bytes: &[u8], start: usize) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            b'\n' => return i, // malformed; don't run away
            _ => i += 1,
        }
    }
    i
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn compute_line_starts(s: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in s.bytes().enumerate() {
        if b == b'\n' && i + 1 < s.len() {
            starts.push(i + 1);
        }
    }
    starts
}

/// Marks every line belonging to a `#[cfg(test)]` item. The attribute is
/// located in the masked text (so strings can't fake it); the item extent is
/// the following brace-balanced block, or up to the terminating `;` for
/// non-block items like `#[cfg(test)] use …;`.
fn mark_test_lines(masked: &str, line_starts: &[usize]) -> Vec<bool> {
    let mut test = vec![false; line_starts.len()];
    let bytes = masked.as_bytes();
    let needle = b"#[cfg(test)]";
    let mut from = 0usize;
    while let Some(pos) = find_from(bytes, needle, from) {
        from = pos + needle.len();
        let mut i = pos + needle.len();
        // Skip whitespace and any further attributes.
        loop {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'#' {
                // skip `#[ … ]` with bracket matching
                let mut depth = 0usize;
                while i < bytes.len() {
                    match bytes[i] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            } else {
                break;
            }
        }
        // Scan to the end of the item: a `{ … }` block or a `;`.
        let item_start = pos;
        let mut end = i;
        let mut depth = 0usize;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => depth += 1,
                b'}' if depth > 0 => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let first = line_index(line_starts, item_start);
        let last = line_index(line_starts, end.min(bytes.len().saturating_sub(1)));
        for t in test.iter_mut().take(last + 1).skip(first) {
            *t = true;
        }
    }
    test
}

fn line_index(line_starts: &[usize], offset: usize) -> usize {
    match line_starts.binary_search(&offset) {
        Ok(idx) => idx,
        Err(idx) => idx - 1,
    }
}

/// Finds `needle` in `haystack` at or after `from`.
pub fn find_from(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    if needle.is_empty() || from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_masked() {
        let src = "let a = \"x.unwrap()\"; // trailing .expect(\nlet b = 1;\n";
        let lexed = LexedFile::lex(src);
        assert!(!lexed.masked.contains("unwrap"));
        assert!(!lexed.masked.contains("expect"));
        assert!(lexed.masked.contains("let b = 1;"));
    }

    #[test]
    fn raw_strings_are_masked() {
        let src = "let a = r#\"panic!(\"no\")\"#;\nlet b = br\"x\";\n";
        let lexed = LexedFile::lex(src);
        assert!(!lexed.masked.contains("panic"));
    }

    #[test]
    fn block_comments_nest() {
        let src = "/* outer /* inner */ still.unwrap() */ let x = 1;\n";
        let lexed = LexedFile::lex(src);
        assert!(!lexed.masked.contains("unwrap"));
        assert!(lexed.masked.contains("let x = 1;"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let src = "fn f<'a>(x: &'a str) { let c = 'y'; let d = '\\n'; }\n";
        let lexed = LexedFile::lex(src);
        assert!(lexed.masked.contains("<'a>"));
        assert!(!lexed.masked.contains('y'));
    }

    #[test]
    fn cfg_test_regions_cover_the_module() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn prod2() {}\n";
        let lexed = LexedFile::lex(src);
        assert!(!lexed.is_test_line(1));
        assert!(lexed.is_test_line(2));
        assert!(lexed.is_test_line(4));
        assert!(lexed.is_test_line(5));
        assert!(!lexed.is_test_line(6));
    }

    #[test]
    fn cfg_test_on_statement_items_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn prod() {}\n";
        let lexed = LexedFile::lex(src);
        assert!(lexed.is_test_line(2));
        assert!(!lexed.is_test_line(3));
    }
}
