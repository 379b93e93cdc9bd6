//! The per-character string decoder that the run-copying
//! [`super::parse_string`] replaced, kept as the differential-test
//! oracle for it.
//!
//! [`parse_string`] here is the old code unchanged. For every
//! unescaped character it re-validated the whole rest of the input as
//! UTF-8, which made decoding quadratic in the input length. Both
//! decoders run under the same document parser
//! ([`super::parse_document`]), so the tests below compare complete
//! `Json::parse` results, values and error messages alike.

use super::{err, JsonError};

/// The old string decoder, verbatim.
pub(super) fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return err("unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or_else(|| JsonError {
                            message: "truncated \\u escape".into(),
                        })?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| JsonError {
                                message: "non-ASCII \\u escape".into(),
                            })?,
                            16,
                        )
                        .map_err(|_| JsonError {
                            message: "invalid \\u escape".into(),
                        })?;
                        // Surrogate pairs are not produced by our printer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| JsonError {
                    message: "invalid UTF-8 in string".into(),
                })?;
                let Some(c) = rest.chars().next() else {
                    return err(format!("unexpected end of string at byte {pos}"));
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::super::{parse_document, parse_string as fast_parse_string, Json};
    use super::parse_string;

    /// Characters strings are drawn from: plain ASCII, the characters
    /// the printer must escape, every control character, DEL, and
    /// scalars of each UTF-8 width including the edges of each width.
    fn arb_char(runner: &mut TestRunner) -> char {
        const WIDE: &[char] = &[
            'é',
            'ü',
            '✓',
            '€',
            '😀',
            '\u{80}',
            '\u{7FF}',
            '\u{800}',
            '\u{FFFD}',
            '\u{FFFF}',
            '\u{10000}',
            '\u{10FFFF}',
        ];
        match runner.below(6) {
            0 | 1 => char::from(b' ' + runner.below(95) as u8),
            2 => ['"', '\\', '/'][runner.index(3)],
            3 => char::from(runner.below(32) as u8),
            4 => '\u{7F}',
            _ => WIDE[runner.index(WIDE.len())],
        }
    }

    fn arb_string(runner: &mut TestRunner, max_len: u64) -> String {
        (0..runner.below(max_len + 1))
            .map(|_| arb_char(runner))
            .collect()
    }

    /// An arbitrary value, nested at most `depth` containers deep.
    fn arb_json(runner: &mut TestRunner, depth: u32) -> Json {
        const NUMS: &[f64] = &[0.0, -17.0, 3.5, -0.25, 1e300, 9007199254740992.0, 1e-7];
        let leaf = depth == 0 || runner.chance(0.4);
        match runner.below(if leaf { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(runner.chance(0.5)),
            2 => Json::Num(if runner.chance(0.5) {
                NUMS[runner.index(NUMS.len())]
            } else {
                runner.below(1 << 40) as f64 - (1u64 << 39) as f64
            }),
            3 => Json::Str(arb_string(runner, 24)),
            4 => Json::Arr(
                (0..runner.below(5))
                    .map(|_| arb_json(runner, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..runner.below(5))
                    .map(|_| (arb_string(runner, 8), arb_json(runner, depth - 1)))
                    .collect::<BTreeMap<_, _>>(),
            ),
        }
    }

    /// Writes `s` as a JSON string literal, spelling each character in
    /// a randomly chosen valid way: raw where JSON allows it, a short
    /// escape (`\/`, `\b`, `\f`, ...), or `\uXXXX` in either hex case.
    /// Lone surrogates (`\uD800`, ...) are sprinkled in; both decoders
    /// turn them into U+FFFD.
    fn spell_string(s: &str, runner: &mut TestRunner, out: &mut String) {
        const SURROGATES: &[&str] = &["\\uD800", "\\udbff", "\\uDC00", "\\uDFFF"];
        out.push('"');
        for c in s.chars() {
            if runner.chance(0.05) {
                out.push_str(SURROGATES[runner.index(SURROGATES.len())]);
            }
            let short = match c {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                _ => None,
            };
            let must_escape = c == '"' || c == '\\';
            match runner.below(3) {
                0 if !must_escape => out.push(c),
                1 if (c as u32) <= 0xFFFF => {
                    let hex = format!("{:04x}", c as u32);
                    out.push_str("\\u");
                    if runner.chance(0.5) {
                        out.push_str(&hex.to_uppercase());
                    } else {
                        out.push_str(&hex);
                    }
                }
                _ => match short {
                    Some(esc) => out.push_str(esc),
                    None => out.push(c),
                },
            }
        }
        out.push('"');
    }

    /// Renders `value` compactly with every string spelled by
    /// [`spell_string`].
    fn spell(value: &Json, runner: &mut TestRunner, out: &mut String) {
        match value {
            Json::Str(s) => spell_string(s, runner, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    spell(item, runner, out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    spell_string(k, runner, out);
                    out.push(':');
                    spell(v, runner, out);
                }
                out.push('}');
            }
            scalar => out.push_str(&scalar.to_compact()),
        }
    }

    /// A valid document: an arbitrary value rendered compact, pretty or
    /// with randomly spelled strings.
    fn arb_document(runner: &mut TestRunner) -> String {
        let value = arb_json(runner, 3);
        match runner.below(3) {
            0 => value.to_compact(),
            1 => value.to_pretty(),
            _ => {
                let mut out = String::new();
                spell(&value, runner, &mut out);
                out
            }
        }
    }

    /// A char boundary of `text` drawn uniformly from all of them
    /// (including both ends).
    fn arb_boundary(text: &str, runner: &mut TestRunner) -> usize {
        let cuts: Vec<usize> = text
            .char_indices()
            .map(|(i, _)| i)
            .chain([text.len()])
            .collect();
        cuts[runner.index(cuts.len())]
    }

    /// Both decoders on one input must give the same value or the same
    /// error message.
    fn assert_decoders_agree(text: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            parse_document(text, fast_parse_string),
            parse_document(text, parse_string),
            "input {:?}",
            text
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

        #[test]
        fn decoders_agree_on_rendered_values(
            value in BoxedStrategy::from_fn(|r| arb_json(r, 3)),
        ) {
            for text in [value.to_compact(), value.to_pretty()] {
                prop_assert_eq!(Json::parse(&text), Ok(value.clone()));
                assert_decoders_agree(&text)?;
            }
        }

        #[test]
        fn decoders_agree_on_respelled_strings(
            text in BoxedStrategy::from_fn(|r| {
                let value = arb_json(r, 3);
                let mut out = String::new();
                spell(&value, r, &mut out);
                out
            }),
        ) {
            prop_assert!(Json::parse(&text).is_ok(), "rejected {:?}", text);
            assert_decoders_agree(&text)?;
        }

        #[test]
        fn decoders_agree_on_arbitrary_strings(
            s in BoxedStrategy::from_fn(|r| {
                // Lean on JSON syntax so inputs reach deep into the
                // parser instead of failing at the first byte.
                const SYNTAX: &[&str] = &[
                    "\"", "\\", "\\u", "\\u00", "{", "}", "[", "]", ":", ",", " ", "\n", "1",
                    "-2.5e3", "null", "true", "a", "D800", "zz",
                ];
                (0..r.below(24))
                    .map(|_| {
                        if r.chance(0.5) {
                            SYNTAX[r.index(SYNTAX.len())].to_string()
                        } else {
                            arb_char(r).to_string()
                        }
                    })
                    .collect::<String>()
            }),
        ) {
            assert_decoders_agree(&s)?;
            assert_decoders_agree(&format!("\"{s}\""))?;
            assert_decoders_agree(&format!("[\"{s}\",1]"))?;
            assert_decoders_agree(&format!("{{\"{s}\":\"{s}\"}}"))?;
        }

        #[test]
        fn decoders_agree_on_truncated_and_spliced_documents(
            text in BoxedStrategy::from_fn(|r| {
                const SPLICES: &[&str] = &["\"", "\\", "\\u12", "\\uZZZZ"];
                let doc = arb_document(r);
                let at = arb_boundary(&doc, r);
                if r.chance(0.5) {
                    doc[..at].to_string()
                } else {
                    let splice = SPLICES[r.index(SPLICES.len())];
                    format!("{}{splice}{}", &doc[..at], &doc[at..])
                }
            }),
        ) {
            assert_decoders_agree(&text)?;
        }
    }

    #[test]
    fn invalid_utf8_is_rejected_by_both_decoders() {
        // Unreachable through `Json::parse(&str)`, but the branch stays.
        let bytes = b"\"a\xffb\"";
        for decode in [fast_parse_string, parse_string] {
            let mut pos = 0;
            let e = decode(bytes, &mut pos).unwrap_err();
            assert_eq!(e.message, "invalid UTF-8 in string");
        }
    }

    #[test]
    fn every_escape_decodes_the_same() {
        let text = r#""\" \\ \/ \n \r \t \b \f é \u00e9 \uD800 ✓""#;
        assert_eq!(
            Json::parse(text).unwrap(),
            Json::Str("\" \\ / \n \r \t \u{8} \u{c} é é \u{FFFD} ✓".into())
        );
        assert_decoders_agree(text).unwrap();
    }
}
