//! Hand-rolled JSON values, a JSONL campaign-output writer, and a
//! minimal parser.
//!
//! The workspace builds offline with an empty registry, so `serde` is
//! off the table; campaigns need *emission* of plain records, which
//! this covers in under 200 lines. Rendering is deterministic: object
//! keys keep insertion order and floats use Rust's
//! shortest-round-trip formatting, so a campaign's JSONL is
//! byte-comparable across runs and worker counts.
//!
//! [`Json::parse`] is the workspace's one JSON reader. It reads back
//! what the workspace wrote: golden lines and grid-cache entries
//! (`rtsim_farm::golden::parse_line`), `mpeg2_explore`'s cached design
//! points, and `rtsim-benchmark`'s `BENCHMARK.json`. It is strict, so a
//! damaged line is an error as a whole, never a partly read record.

use std::fmt;

/// A JSON value.
///
/// # Examples
///
/// ```
/// use rtsim_campaign::json::Json;
///
/// let rec = Json::obj([
///     ("job", Json::from(3u64)),
///     ("label", Json::from("fast \"case\"")),
///     ("latencies", Json::from_iter([1.5f64, 2.0])),
/// ]);
/// assert_eq!(
///     rec.to_string(),
///     r#"{"job":3,"label":"fast \"case\"","latencies":[1.5,2]}"#
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer (emitted without decimal point).
    U64(u64),
    /// Signed integer (emitted without decimal point).
    I64(i64),
    /// Floating point; non-finite values are emitted as `null` (JSON has
    /// no NaN/Infinity).
    F64(f64),
    /// String (escaped per RFC 8259 on emission).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; keys keep insertion order for deterministic output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses one JSON document (RFC 8259), rejecting trailing garbage.
    ///
    /// Numbers parse as [`Json::U64`]/[`Json::I64`] when they are
    /// integers that fit, [`Json::F64`] otherwise — mirroring how the
    /// emitter renders them, so emit→parse round-trips structurally.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first error.
    ///
    /// # Examples
    ///
    /// ```
    /// use rtsim_campaign::json::Json;
    ///
    /// let v = Json::parse(r#"{"id":"a/b","ps":[1,2.5,null]}"#).unwrap();
    /// assert_eq!(v.get("id").and_then(Json::as_str), Some("a/b"));
    /// ```
    ///
    /// Arrays and objects may nest at most [`MAX_DEPTH`] levels deep;
    /// deeper input is an error, not a stack overflow.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Looks up `key` in an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if this is a [`Json::U64`] (what [`Json::parse`]
    /// makes of every non-negative integer that fits).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            _ => None,
        }
    }
}

/// How deeply arrays and objects may nest in [`Json::parse`] input. The
/// parser recurses once per level, so this bounds its stack use; every
/// document rtsim writes nests a handful of levels.
pub const MAX_DEPTH: usize = 512;

/// Recursive-descent state for [`Json::parse`]. Operates on bytes;
/// string content is re-validated as UTF-8 only where escapes rewrite
/// it, since the input is `&str` already.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let nested = if self.bytes[self.pos] == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or ']'"));
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1; // consume '{'
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(":") {
                return Err(self.err("expected ':'"));
            }
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            if self.eat("}") {
                return Ok(Json::Obj(pairs));
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or '}'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // consume '"'
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Bulk-copy the run of unescaped bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.eat("\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("lone low surrogate"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_owned())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Json {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) if v.is_finite() => write!(f, "{v}"),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    value.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Emits `s` as a JSON string literal with RFC 8259 escaping.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Renders records as JSON Lines: one compact object per line.
///
/// The output is deterministic for deterministic input — this is what
/// the campaign determinism tests byte-compare across worker counts.
pub fn to_jsonl<'a, I: IntoIterator<Item = &'a Json>>(records: I) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&rec.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::from(true).to_string(), "true");
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::from(-7i64).to_string(), "-7");
        assert_eq!(Json::from(1.25f64).to_string(), "1.25");
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.to_string(), r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn nested_structures_keep_order() {
        let v = Json::obj([
            ("z", Json::from(1u64)),
            ("a", Json::from_iter([Json::Null, Json::from(2u64)])),
        ]);
        assert_eq!(v.to_string(), r#"{"z":1,"a":[null,2]}"#);
    }

    #[test]
    fn jsonl_one_line_per_record() {
        let records = [Json::from(1u64), Json::obj([("k", Json::from("v"))])];
        let text = to_jsonl(&records);
        assert_eq!(text, "1\n{\"k\":\"v\"}\n");
    }

    #[test]
    fn parse_scalars_and_structures() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("42").unwrap(), Json::U64(42));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("1.25").unwrap(), Json::F64(1.25));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        assert_eq!(
            Json::parse(r#"{"z":1,"a":[null,2]}"#).unwrap(),
            Json::obj([
                ("z", Json::from(1u64)),
                ("a", Json::from_iter([Json::Null, Json::from(2u64)])),
            ])
        );
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{ }").unwrap(), Json::Obj(vec![]));
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"abc",
            "{\"k\" 1}",
            "1 2",
            "\"\\q\"",
            "\"\u{1}\"",
            "\"\\ud800\"",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        for open in ["[", "{\"a\":"] {
            let deep = open.repeat(100_000);
            let err = Json::parse(&deep).expect_err("100k levels must be rejected");
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        // At the limit itself, well-formed input still parses.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn parse_unescapes_strings() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\nd\te\u0001\/f""#).unwrap(),
            Json::from("a\"b\\c\nd\te\u{1}/f")
        );
        // Surrogate pair for U+1F600.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::from("\u{1F600}")
        );
    }

    #[test]
    fn accessors_select_fields() {
        let v = Json::parse(r#"{"id":"x","n":3,"f":2.5,"ok":true}"#).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n"), Some(&Json::U64(3)));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("f").and_then(Json::as_u64), None);
        assert_eq!(v.get("id").and_then(Json::as_u64), None);
        assert_eq!(v.get("f"), Some(&Json::F64(2.5)));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("id"), None);
    }

    /// Every string a campaign record carries flows `String` →
    /// [`write_escaped`], so emit→parse must be the identity on strings.
    #[test]
    fn escaper_round_trips_exhaustive_edge_chars() {
        // All control chars, the two escape-worthy ASCII chars, and
        // multi-byte UTF-8 from 2, 3 and 4-byte ranges (incl. chars
        // that need surrogate pairs in \u form).
        let mut pool: Vec<char> = (0u32..0x20).filter_map(char::from_u32).collect();
        pool.extend([
            '"',
            '\\',
            '/',
            'a',
            'é',
            'ß',
            '→',
            '中',
            '\u{1F600}',
            '\u{10FFFF}',
        ]);
        for &c in &pool {
            let s = c.to_string();
            let emitted = Json::from(s.as_str()).to_string();
            assert_eq!(
                Json::parse(&emitted).unwrap(),
                Json::from(s.as_str()),
                "char {:?} failed to round-trip via {emitted}",
                c
            );
        }
        // One string containing the whole pool at once.
        let all: String = pool.iter().collect();
        let emitted = Json::from(all.as_str()).to_string();
        assert_eq!(Json::parse(&emitted).unwrap(), Json::from(all.as_str()));
    }

    #[test]
    fn escaper_round_trips_random_strings() {
        use rtsim_kernel::testutil::check;
        let pool: Vec<char> = (0u32..0x20)
            .filter_map(char::from_u32)
            .chain(['"', '\\', '/', ' ', 'a', 'Z', '0', 'é', '中', '\u{1F600}'])
            .collect();
        check(
            256,
            |rng| {
                let len = rng.gen_range(0usize..40);
                (0..len).map(|_| *rng.choose(&pool)).collect::<String>()
            },
            |s| {
                let emitted = Json::from(s.as_str()).to_string();
                let parsed = Json::parse(&emitted)
                    .unwrap_or_else(|e| panic!("emit of {s:?} unparseable: {e}"));
                assert_eq!(parsed, Json::from(s.as_str()));
            },
        );
    }
}
