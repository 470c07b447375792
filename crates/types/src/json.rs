//! A minimal JSON value, parser and renderer.
//!
//! The workspace builds offline with no serialization dependencies, so
//! every JSON consumer — the provenance manifest in `mcdvfs-bench`, the
//! `mcdvfs-serve` wire protocol — shares this hand-rolled implementation
//! instead of duplicating one per crate. Object member order is preserved
//! on parse and render, and [`Json::render`] is the exact on-disk format
//! the provenance manifest has always used (2-space indentation, `\n`
//! line ends), so moving the code here changed no bytes.
//!
//! Numbers render with Rust's shortest-round-trip `f64` formatting:
//! `parse(render(x))` reproduces `x` bit-for-bit (including `-0.0`),
//! which is what lets the serving layer promise bit-identical replies
//! across the wire. Non-finite values have no JSON form and render as
//! `null`. Container nesting is capped so untrusted network frames
//! cannot overflow the parser's stack, and parsing and rendering are
//! both linear in document length: the serving reactor decodes every
//! request frame on its one thread, so a frame that parsed in quadratic
//! time would stall every connection.

use std::fmt::Write as _;

/// A parsed JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error.
    pub fn parse(text: &str) -> std::result::Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on objects (first match), `None` elsewhere.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and `\n` line ends — the
    /// on-disk manifest format.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_value(self, 0, &mut out);
        out.push('\n');
        out
    }

    /// Serializes without any insignificant whitespace — the single-line
    /// wire format the serving layer frames.
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        render_compact_value(self, &mut out);
        out
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Maximum container nesting accepted by the parser. The parser recurses
/// once per nested `[`/`{`, and the serve crate feeds it untrusted frames
/// up to 1 MiB — without a cap, ~100k open brackets overflow the reader
/// thread's stack and abort the process. 128 levels is far beyond any
/// document the workspace produces.
const MAX_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> std::result::Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting exceeds {MAX_DEPTH} levels at byte {pos}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                members.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}")),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: Json,
) -> std::result::Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> std::result::Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let token = &bytes[start..*pos];
    // `f64::from_str` also takes forms JSON forbids (`01`, `1.`, `-.5`),
    // so the token must match the RFC 8259 grammar first.
    Some(token)
        .filter(|t| is_json_number(t))
        .and_then(|t| std::str::from_utf8(t).ok())
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, the whole
/// token.
fn is_json_number(token: &[u8]) -> bool {
    fn digits(t: &[u8]) -> usize {
        t.iter().take_while(|b| b.is_ascii_digit()).count()
    }
    let mut t = token.strip_prefix(b"-").unwrap_or(token);
    match digits(t) {
        0 => return false,
        n if n > 1 && t[0] == b'0' => return false,
        n => t = &t[n..],
    }
    if let Some(frac) = t.strip_prefix(b".") {
        match digits(frac) {
            0 => return false,
            n => t = &frac[n..],
        }
    }
    if let [b'e' | b'E', exp @ ..] = t {
        let exp = exp
            .strip_prefix(b"+")
            .or_else(|| exp.strip_prefix(b"-"))
            .unwrap_or(exp);
        match digits(exp) {
            0 => return false,
            n => t = &exp[n..],
        }
    }
    t.is_empty()
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> std::result::Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let code = parse_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let ch = if (0xD800..=0xDBFF).contains(&code) {
                            // High surrogate: JSON encodes astral code
                            // points as a \uD8xx\uDCxx pair, so the low
                            // half must follow immediately.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return Err(format!("lone high surrogate at byte {pos}"));
                            }
                            let low = parse_hex4(bytes, *pos + 3)?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err(format!("lone high surrogate at byte {pos}"));
                            }
                            *pos += 6;
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined).expect("surrogate pair combines to scalar")
                        } else if (0xDC00..=0xDFFF).contains(&code) {
                            return Err(format!("lone low surrogate at byte {pos}"));
                        } else {
                            char::from_u32(code).expect("non-surrogate BMP code point is a scalar")
                        };
                        out.push(ch);
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run of ordinary bytes up to the next quote or
                // backslash in one go. Both are ASCII, so the run ends on
                // a character boundary and validating it alone keeps the
                // whole parse linear in the document length.
                let run = &bytes[*pos..];
                let len = run
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .unwrap_or(run.len());
                let text = std::str::from_utf8(&run[..len])
                    .map_err(|_| format!("invalid UTF-8 at byte {pos}"))?;
                out.push_str(text);
                *pos += len;
            }
        }
    }
}

/// Reads four hex digits starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> std::result::Result<u32, String> {
    bytes
        .get(at..at + 4)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("bad \\u escape at byte {at}"))
}

fn render_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no representation for NaN/±inf; render `null` rather
        // than emit `inf`/`NaN` tokens the parser itself would reject.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9e15 && !(n == 0.0 && n.is_sign_negative()) {
        // The integer path would collapse -0.0 to "0", losing the sign
        // bit; -0.0 takes the shortest-round-trip path ("-0") instead.
        write!(out, "{}", n as i64).expect("writing to a String cannot fail");
    } else {
        write!(out, "{n}").expect("writing to a String cannot fail");
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_value(value: &Json, indent: usize, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => render_number(*n, out),
        Json::Str(s) => render_string(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                push_indent(out, indent + 1);
                render_value(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            push_indent(out, indent);
            out.push(']');
        }
        Json::Obj(members) => {
            if members.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (key, val)) in members.iter().enumerate() {
                push_indent(out, indent + 1);
                render_string(key, out);
                out.push_str(": ");
                render_value(val, indent + 1, out);
                out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
            }
            push_indent(out, indent);
            out.push('}');
        }
    }
}

fn render_compact_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => render_number(*n, out),
        Json::Str(s) => render_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_compact_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (key, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_string(key, out);
                out.push(':');
                render_compact_value(val, out);
            }
            out.push('}');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    // Every character that needs escaping is ASCII, so the unescaped runs
    // between them are whole UTF-8 sequences pushed in one copy each.
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String cannot fail"),
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fnv1a64, SplitMix64};

    /// Characters the renderer or the parser treats specially, plus one
    /// boundary scalar of each UTF-8 width.
    const SPECIAL_CHARS: &str = "\"\\/\n\r\t\u{8}\u{c}\u{0}\u{1f}\u{7f}\
        \u{80}\u{e9}\u{7ff}\u{800}\u{20ac}\u{ffff}\u{10000}\u{1f600}\u{10ffff}";

    /// A random scalar: printable ASCII, a special character, a control
    /// character, or any Unicode scalar of 2, 3 or 4 UTF-8 bytes.
    fn random_char(rng: &mut SplitMix64) -> char {
        let (lo, hi) = match rng.range_usize(0, 8) {
            0..=2 => (0x20, 0x7f),
            3 => {
                let count = SPECIAL_CHARS.chars().count();
                let pick = rng.range_usize(0, count);
                return SPECIAL_CHARS.chars().nth(pick).expect("in range");
            }
            4 => (0x00, 0x20),
            5 => (0x80, 0x800),
            6 => (0x800, 0x1_0000),
            _ => (0x1_0000, 0x11_0000),
        };
        loop {
            let code = rng.range_usize(lo, hi) as u32;
            if let Some(ch) = char::from_u32(code) {
                return ch;
            }
        }
    }

    fn random_string(rng: &mut SplitMix64) -> String {
        let len = rng.range_usize(0, 12);
        (0..len).map(|_| random_char(rng)).collect()
    }

    /// A random finite number: small and large integers (both sides of
    /// the renderer's 9e15 integer cut-off), fractions, signed zeros,
    /// extremes and raw bit patterns.
    fn random_number(rng: &mut SplitMix64) -> f64 {
        const EDGES: [f64; 8] = [
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            9e15,
            -9e15,
            9_007_199_254_740_992.0,
        ];
        let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
        match rng.range_usize(0, 6) {
            0 => sign * rng.range_usize(0, 1_000_000) as f64,
            1 => rng.range_f64(-1e3, 1e3),
            2 => EDGES[rng.range_usize(0, EDGES.len())],
            3 => sign * (rng.next_u64() >> 9) as f64,
            4 => sign * rng.next_f64() * 10f64.powi(rng.range_usize(0, 40) as i32 - 20),
            _ => loop {
                let v = f64::from_bits(rng.next_u64());
                if v.is_finite() {
                    break v;
                }
            },
        }
    }

    /// A random document up to four containers deep.
    fn random_doc(rng: &mut SplitMix64, depth: usize) -> Json {
        let kinds = if depth >= 4 { 4 } else { 6 };
        match rng.range_usize(0, kinds) {
            0 => match rng.range_usize(0, 3) {
                0 => Json::Null,
                b => Json::Bool(b == 1),
            },
            1 => Json::Num(random_number(rng)),
            2 | 3 => Json::Str(random_string(rng)),
            4 => Json::Arr(
                (0..rng.range_usize(0, 5))
                    .map(|_| random_doc(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.range_usize(0, 5))
                    .map(|_| (random_string(rng), random_doc(rng, depth + 1)))
                    .collect(),
            ),
        }
    }

    /// Structural equality that compares numbers by `f64::to_bits`, so
    /// `-0.0` and `0.0` differ.
    fn same_bits(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
            (Json::Arr(x), Json::Arr(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same_bits(p, q))
            }
            (Json::Obj(x), Json::Obj(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|((kp, p), (kq, q))| kp == kq && same_bits(p, q))
            }
            _ => a == b,
        }
    }

    /// Renders `value` compactly, spelling each string character in a
    /// randomly chosen legal form: raw where JSON allows it, a short
    /// escape, or `\uXXXX` in either hex case (a surrogate pair for
    /// astral characters). An encoder independent of the one under test.
    fn render_with_random_escapes(value: &Json, rng: &mut SplitMix64, out: &mut String) {
        fn hex4(code: u32, rng: &mut SplitMix64, out: &mut String) {
            let hex = format!("{code:04x}");
            out.push_str("\\u");
            out.push_str(&if rng.chance(0.5) {
                hex.to_uppercase()
            } else {
                hex
            });
        }
        fn string(s: &str, rng: &mut SplitMix64, out: &mut String) {
            out.push('"');
            for ch in s.chars() {
                let short = match ch {
                    '"' => Some("\\\""),
                    '\\' => Some("\\\\"),
                    '/' => Some("\\/"),
                    '\u{8}' => Some("\\b"),
                    '\u{c}' => Some("\\f"),
                    '\n' => Some("\\n"),
                    '\r' => Some("\\r"),
                    '\t' => Some("\\t"),
                    _ => None,
                };
                let may_be_raw = !matches!(ch, '"' | '\\') && ch >= ' ';
                match (rng.range_usize(0, 3), short) {
                    (0, _) if may_be_raw => out.push(ch),
                    (1, Some(escape)) => out.push_str(escape),
                    _ => {
                        let mut units = [0u16; 2];
                        for unit in ch.encode_utf16(&mut units) {
                            hex4(u32::from(*unit), rng, out);
                        }
                    }
                }
            }
            out.push('"');
        }
        match value {
            Json::Str(s) => string(s, rng, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_with_random_escapes(item, rng, out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, val)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    string(key, rng, out);
                    out.push(':');
                    render_with_random_escapes(val, rng, out);
                }
                out.push('}');
            }
            scalar => out.push_str(&scalar.render_compact()),
        }
    }

    #[test]
    fn parse_time_is_linear_in_document_length() {
        // Frames reach the parser on the serving reactor thread at up to
        // 1 MiB. A parser that rescans the rest of the document per
        // character takes tens of seconds on these; a linear one takes
        // milliseconds even unoptimized, so the bound is generous.
        const MIB: usize = 1 << 20;
        let one_string = format!("{{\"pad\":\"{}\"}}", "a\u{e9}\u{20ac}".repeat(MIB / 6));
        let mut many_keys = String::from("{");
        for i in 0.. {
            if many_keys.len() > MIB {
                break;
            }
            if i > 0 {
                many_keys.push(',');
            }
            many_keys.push_str(&format!("\"k{i}\":\"v\\n\""));
        }
        many_keys.push('}');
        for (name, text) in [("one string", one_string), ("many keys", many_keys)] {
            let started = std::time::Instant::now();
            assert!(Json::parse(&text).is_ok(), "{name}");
            let took = started.elapsed();
            assert!(
                took < std::time::Duration::from_secs(2),
                "{name}: {} bytes took {took:?}",
                text.len()
            );
        }
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for good in [
            "0", "-0", "7", "-12", "0.5", "-0.25", "1e5", "1E+5", "2.5e-3", "10", "1e05",
        ] {
            let expect: f64 = good.parse().unwrap();
            let got = Json::parse(good).unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), expect.to_bits(), "{good}");
        }
        // Forms `f64::from_str` takes but RFC 8259 does not.
        for bad in [
            "01", "-01", "00", "1.", "-1.", "-.5", "1.e3", "1e", "1e+", "-", "--1", "1-2",
        ] {
            assert_eq!(
                Json::parse(bad).unwrap_err(),
                "invalid number at byte 0",
                "{bad} should fail"
            );
        }
        assert_eq!(
            Json::parse("[1, 02]").unwrap_err(),
            "invalid number at byte 4"
        );
    }

    #[test]
    fn committed_documents_still_parse() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = vec![root.join("BENCHMARK.json")];
        for entry in std::fs::read_dir(root.join("results")).unwrap() {
            let path = entry.unwrap().path();
            if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("json" | "jsonl")
            ) {
                files.push(path);
            }
        }
        assert!(files.len() > 5, "found only {files:?}");
        for path in files {
            let text = std::fs::read_to_string(&path).unwrap();
            let docs: Vec<&str> = if path.extension().is_some_and(|e| e == "jsonl") {
                text.lines().collect()
            } else {
                vec![&text]
            };
            for doc in docs {
                if let Err(e) = Json::parse(doc) {
                    panic!("{}: {e}", path.display());
                }
            }
        }
        // These two are written by `Json::render`, so they also pin the
        // on-disk format byte for byte.
        for name in ["MANIFEST.json", "STORE_bake.json"] {
            let text = std::fs::read_to_string(root.join("results").join(name)).unwrap();
            assert_eq!(Json::parse(&text).unwrap().render(), text, "{name}");
        }
    }

    #[test]
    fn random_documents_round_trip_bit_for_bit() {
        let mut rng = SplitMix64::new(0x6a73_6f6e_7072_6f70);
        for case in 0..2000 {
            let doc = random_doc(&mut rng, 0);
            for text in [doc.render(), doc.render_compact()] {
                let back = Json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
                assert!(same_bits(&back, &doc), "case {case}: {text:?}");
            }
            let mut escaped = String::new();
            render_with_random_escapes(&doc, &mut rng, &mut escaped);
            let back = Json::parse(&escaped).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert!(same_bits(&back, &doc), "case {case}: {escaped:?}");
        }
    }

    #[test]
    fn rendered_bytes_are_pinned() {
        // FNV-1a over both renderings of a fixed seeded corpus. A change
        // to this digest is a change to the manifest and wire formats.
        let mut rng = SplitMix64::new(0x7265_6e64_6572_6564);
        let mut corpus: Vec<Json> = (0..500).map(|_| random_doc(&mut rng, 0)).collect();
        corpus.push(Json::Arr(
            [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                1e300,
                1e-300,
            ]
            .into_iter()
            .map(Json::Num)
            .collect(),
        ));
        let mut h = Fnv1a64::new();
        for doc in &corpus {
            h.write(doc.render().as_bytes());
            h.write(doc.render_compact().as_bytes());
        }
        assert_eq!(h.finish(), 0x8fdc_d5ea_77b3_be85, "rendered bytes changed");
    }

    #[test]
    fn json_round_trips_nested_shapes() {
        let text = r#"{"schema": "x", "artifacts": [{"path": "a.csv", "bytes": 12,
            "nested": {"k": [1, 2.5, -3e2, true, false, null]},
            "esc": "line\nbreak \"quoted\" A"}]}"#;
        let doc = Json::parse(text).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("x"));
        let entry = &doc.get("artifacts").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(entry.get("bytes").and_then(Json::as_f64), Some(12.0));
        assert_eq!(
            entry.get("esc").and_then(Json::as_str),
            Some("line\nbreak \"quoted\" A")
        );
        // Render → parse is the identity on the value, in both formats.
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.render_compact()).unwrap(), doc);
    }

    #[test]
    fn json_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "nul", "\"open", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        // An adversarial single frame of open brackets must come back as
        // a parse error, not abort the process.
        let hostile = "[".repeat(100_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.contains("nesting"), "unexpected error: {err}");
        // Nesting at the cap still parses.
        let deep = format!("{}1{}", "[".repeat(128), "]".repeat(128));
        assert!(Json::parse(&deep).is_ok());
        assert!(Json::parse(&format!("[{deep}]")).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_code_points() {
        let doc = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(doc.as_str(), Some("\u{1f600}"));
        // Astral characters round-trip through render (emitted raw).
        assert_eq!(Json::parse(&doc.render_compact()).unwrap(), doc);
        for lone in [
            r#""\ud83d""#,        // high surrogate at end of string
            r#""\ud83dx""#,       // high surrogate followed by a plain char
            "\"\\ud83d\\u0041\"", // high surrogate followed by a BMP escape
            r#""\ude00""#,        // lone low surrogate
        ] {
            assert!(Json::parse(lone).is_err(), "{lone} should fail");
        }
    }

    #[test]
    fn negative_zero_and_non_finite_numbers() {
        // -0.0 keeps its sign bit through a round trip.
        let rendered = Json::Num(-0.0).render_compact();
        assert_eq!(rendered, "-0");
        let back = Json::parse(&rendered).unwrap().as_f64().unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
        // Non-finite values render as valid JSON (`null`), never as the
        // `inf`/`NaN` tokens the parser rejects.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(v).render_compact(), "null");
        }
    }

    #[test]
    fn compact_render_has_no_whitespace() {
        let doc = Json::Obj(vec![
            ("a".to_string(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("b".to_string(), Json::Str("x y".to_string())),
        ]);
        assert_eq!(doc.render_compact(), r#"{"a":[1,null],"b":"x y"}"#);
    }

    #[test]
    fn numbers_round_trip_bit_for_bit() {
        // Shortest-round-trip f64 formatting: the wire protocol's
        // bit-identity guarantee rests on this.
        for v in [
            0.0,
            1.0,
            1.3,
            0.005,
            1.0 / 3.0,
            2.2250738585072014e-308,
            1.7976931348623157e308,
            -123456.789_012_345,
        ] {
            let rendered = Json::Num(v).render_compact();
            let back = Json::parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {rendered}");
        }
    }
}
