//! The repo's one JSON reader and writer.
//!
//! The workspace is offline (`serde` is a marker shim, there is no
//! `serde_json`), so every artifact, NDJSON stream line and Chrome trace
//! is built as a [`Value`] tree and serialized here, in one of two
//! layouts: [`Value::to_json`] (compact, one line: NDJSON and the Chrome
//! trace) and [`Value::to_pretty`] (2-space indent, any container that
//! holds only scalars kept on one line: the git-diffable `BENCH_*.json`
//! artifacts). [`parse`] reads exactly RFC-8259 JSON back into a tree;
//! [`validate`] is `parse` without the tree.
//!
//! Integral number literals stay exact ([`Value::Int`]), so checksums and
//! digests above 2^53 survive a parse→write round trip; every other
//! number is an `f64`, written in its shortest round-trip form with a
//! fraction or exponent (`7800.0`, `2.5e36`), so it reads back as an
//! `f64`; a non-finite `f64` is written as `null`, so the writer never
//! emits invalid JSON.

/// Validates that `s` is one well-formed JSON value (with nothing but
/// whitespace after it).
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

/// Maximum container nesting depth the parser accepts. The artifacts
/// nest a handful of levels; the bound exists so adversarial or corrupt
/// input (`[[[[…`) fails with an error instead of exhausting the stack —
/// the parser recurses per nesting level.
pub const MAX_DEPTH: usize = 128;

/// Converts a byte offset in `s` (as reported in [`parse`] errors) to
/// 1-based `(line, column)`, for human-addressable error reporting
/// (`cablestat check`).
pub fn line_col(s: &str, byte: usize) -> (usize, usize) {
    let upto = &s.as_bytes()[..byte.min(s.len())];
    let line = upto.iter().filter(|&&c| c == b'\n').count() + 1;
    let col = upto.len() - upto.iter().rposition(|&c| c == b'\n').map_or(0, |p| p + 1) + 1;
    (line, col)
}

/// 2^53: past it, not every integer is an `f64`.
const EXACT_F64: f64 = 9_007_199_254_740_992.0;

/// A JSON value.
///
/// Object members keep their insertion (document) order — a `Vec` of
/// pairs, not a map — so serialization is deterministic and diffs walk
/// both documents in a stable order. Numbers compare by value: `Int(5)`
/// equals `Num(5.0)`.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number, exact (counts, simulated ns, checksums).
    Int(i128),
    /// Any other number. Non-finite values serialize as `null`.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in order.
    Obj(Vec<(String, Value)>),
}

/// Builds a [`Value::Obj`] from `key => value` pairs, in order; each value
/// goes through [`Value::from`].
///
/// ```
/// let v = cables_obs::obj! { "bench" => "fig6", "procs" => 4u64, "pct" => 0.5 };
/// assert_eq!(v.to_json(), r#"{"bench":"fig6","procs":4,"pct":0.5}"#);
/// ```
#[macro_export]
macro_rules! obj {
    ($($k:expr => $v:expr),* $(,)?) => {
        $crate::json::Value::Obj(vec![
            $((::std::string::String::from($k), $crate::json::Value::from($v))),*
        ])
    };
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Num(a), Num(b)) => a == b,
            (Int(i), Num(f)) | (Num(f), Int(i)) => {
                f.fract() == 0.0 && f.abs() < i128::MAX as f64 && *f as i128 == *i
            }
            (Str(a), Str(b)) => a == b,
            (Arr(a), Arr(b)) => a == b,
            (Obj(a), Obj(b)) => a == b,
            _ => false,
        }
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Int(n as i128)
            }
        }
    )*};
}
from_int!(u32, u64, usize);

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Value {
        Value::Str(s.clone())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(o: Option<T>) -> Value {
        o.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::arr(v)
    }
}

/// Collects `(key, value)` pairs into a [`Value::Obj`], in order.
impl<K: Into<String>, V: Into<Value>> FromIterator<(K, V)> for Value {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(it: I) -> Value {
        Value::Obj(it.into_iter().map(|(k, v)| (k.into(), v.into())).collect())
    }
}

impl Value {
    /// An array of `items`.
    pub fn arr<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }

    /// `x` rounded to `places` decimals, exactly as `format!("{x:.places$}")`
    /// rounds it — for leaves whose precision is part of the schema
    /// (throughputs, percentages, microsecond timestamps).
    pub fn fixed(x: f64, places: usize) -> Value {
        Value::Num(format!("{x:.places$}").parse().unwrap_or(x))
    }

    /// A number rounded as [`Value::fixed`] rounds it when it is not
    /// integral; any other value unchanged.
    pub fn round(&self, places: usize) -> Value {
        match self {
            Value::Num(n) => Value::fixed(*n, places),
            v => v.clone(),
        }
    }

    /// Appends a member to an object (no-op on other variants).
    pub fn push(&mut self, key: &str, v: impl Into<Value>) {
        if let Value::Obj(m) = self {
            m.push((key.to_string(), v.into()));
        }
    }

    /// Member lookup on an object (`None` for other variants or a
    /// missing key).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => u64::try_from(*i).ok(),
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= EXACT_F64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Compact JSON on one line (no trailing newline): the NDJSON and
    /// Chrome-trace layout.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Pretty JSON with a trailing newline: 2-space indent, and any
    /// container that holds only scalars on one line (`[1, 2]`,
    /// `{"a": 1, "b": true}`), so artifacts diff line by line and a
    /// top-level `"smoke": true` stays greppable.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn is_container(&self) -> bool {
        matches!(self, Value::Arr(_) | Value::Obj(_))
    }

    /// Writes the value; `indent` is the nesting level in the pretty
    /// layout, `None` for compact.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        use std::fmt::Write as _;
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // An integral `Num` keeps a fraction (`7800.0`), or past 2^53
            // an exponent, so it reads back as a `Num`, not an `Int`.
            Value::Num(n) if n.is_finite() && n.fract() == 0.0 => {
                if n.abs() < EXACT_F64 {
                    let _ = write!(out, "{n:.1}");
                } else {
                    let _ = write!(out, "{n:e}");
                }
            }
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Arr(v) => {
                let multiline = v.iter().any(Value::is_container);
                write_seq(out, indent, multiline, ('[', ']'), v.iter().map(|e| (None, e)));
            }
            Value::Obj(m) => {
                let multiline = m.iter().any(|(_, v)| v.is_container());
                write_seq(out, indent, multiline, ('{', '}'), m.iter().map(|(k, v)| (Some(k), v)));
            }
        }
    }
}

/// Writes a container's members (`key` is `None` for array elements):
/// compact when `indent` is `None`, one member per line when pretty and
/// `multiline`, otherwise on one `", "`-separated line.
fn write_seq<'a>(
    out: &mut String,
    indent: Option<usize>,
    multiline: bool,
    (open, close): (char, char),
    members: impl Iterator<Item = (Option<&'a String>, &'a Value)>,
) {
    let (sep, colon) = if indent.is_some() { (", ", ": ") } else { (",", ":") };
    let inner = indent.map(|l| l + 1);
    let newline = |out: &mut String, level: usize| {
        out.push('\n');
        out.extend(std::iter::repeat("  ").take(level));
    };
    out.push(open);
    for (i, (k, v)) in members.enumerate() {
        match inner {
            Some(level) if multiline => {
                if i > 0 {
                    out.push(',');
                }
                newline(out, level);
            }
            _ if i > 0 => out.push_str(sep),
            _ => {}
        }
        if let Some(k) = k {
            write_str(out, k);
            out.push_str(colon);
        }
        v.write(out, inner);
    }
    if let (Some(level), true) = (indent, multiline) {
        newline(out, level);
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document into a [`Value`] tree. Integral literals
/// (no fraction or exponent) that fit an `i128` become exact
/// [`Value::Int`]s.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(s: &str) -> Result<Value, String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0, depth: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{} at byte {}", what, self.i))
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => {
                let mut m = Vec::new();
                self.seq(b'{', b'}', |p| {
                    let k = p.string()?;
                    p.ws();
                    p.eat(b':')?;
                    p.ws();
                    m.push((k, p.value()?));
                    Ok(())
                })?;
                Ok(Value::Obj(m))
            }
            Some(b'[') => {
                let mut v = Vec::new();
                self.seq(b'[', b']', |p| {
                    v.push(p.value()?);
                    Ok(())
                })?;
                Ok(Value::Arr(v))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    /// Parses a bracketed, comma-separated sequence, calling `member` at
    /// the start of each member (after whitespace).
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return self.err(&format!("nesting deeper than {MAX_DEPTH}"));
        }
        self.eat(open)?;
        self.ws();
        if self.peek() != Some(close) {
            loop {
                self.ws();
                member(self)?;
                self.ws();
                match self.peek() {
                    Some(b',') => self.i += 1,
                    Some(c) if c == close => break,
                    _ => return self.err(&format!("expected ',' or '{}'", close as char)),
                }
            }
        }
        self.i += 1;
        self.depth -= 1;
        Ok(())
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(())
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    /// Scans and decodes one string literal.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => break,
                Some(b'\\') => {
                    self.i += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self.b.get(self.i + 1..self.i + 5).unwrap_or_default();
                            if hex.len() < 4 || !hex.iter().all(u8::is_ascii_hexdigit) {
                                return self.err("bad \\u escape");
                            }
                            self.i += 4;
                            let cp = hex
                                .iter()
                                .fold(0, |cp, &h| cp * 16 + (h as char).to_digit(16).unwrap_or(0));
                            // Surrogate halves decode to the replacement
                            // character; the artifacts never emit them.
                            char::from_u32(cp).unwrap_or('\u{fffd}')
                        }
                        _ => return self.err("bad escape"),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(0x00..=0x1F) => return self.err("raw control character in string"),
                Some(c) => out.push(c),
            }
            self.i += 1;
        }
        self.i += 1;
        // The input is a `&str` and escapes are pushed as UTF-8, so the
        // bytes are valid UTF-8.
        String::from_utf8(out).map_err(|_| format!("non-utf8 string at byte {}", self.i))
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
            self.i += 1;
        }
        self.i - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(c) if c.is_ascii_digit() => {
                self.digits();
            }
            _ => return self.err("expected a digit"),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            self.i += 1;
            integral = false;
            if self.digits() == 0 {
                return self.err("expected a fraction digit");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            integral = false;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return self.err("expected an exponent digit");
            }
        }
        // The scanned bytes are ASCII.
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap_or_default();
        match text.parse::<i128>() {
            Ok(i) if integral => Ok(Value::Int(i)),
            _ => text
                .parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("unparseable number at byte {start}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e+3",
            "\"a\\n\\u00e9\"",
            "{\"a\": [1, 2, {\"b\": false}], \"c\": null}",
            "  [1]\n",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
    }

    #[test]
    fn parse_builds_the_value_tree() {
        let v = parse("{\"a\": [1, 2.5, {\"b\": false}], \"c\": null, \"d\": \"x\\ny\"}").unwrap();
        assert_eq!(v.get("c"), Some(&Value::Null));
        assert_eq!(v.get("d").and_then(Value::as_str), Some("x\ny"));
        let a = v.get("a").and_then(Value::as_arr).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(2.5));
        assert_eq!(a[2].get("b").and_then(Value::as_bool), Some(false));
        // Round trip is deterministic and stays valid.
        let j = v.to_json();
        assert_eq!(parse(&j).unwrap(), v);
        validate(&j).unwrap();
    }

    #[test]
    fn parse_rejects_what_validate_rejects() {
        for bad in ["{", "[1,]", "{\"a\"}", "nul", "[1] x"] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn rejects_invalid_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{a: 1}",
            "01",
            "1.",
            "\"\x01\"",
            "nul",
            "[1] x",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn rejects_truncations_of_a_valid_document() {
        // Fuzz-style: every proper prefix of a valid document must be
        // rejected by both entry points (never panic, never accept).
        let doc = "{\"a\": [1, 2.5e-3, {\"b\": [false, \"x\\u00e9\\n\"]}], \"c\": null}";
        validate(doc).unwrap();
        for cut in 1..doc.len() {
            if !doc.is_char_boundary(cut) {
                continue;
            }
            let t = &doc[..cut];
            assert!(validate(t).is_err(), "prefix {t:?} accepted");
            assert!(parse(t).is_err(), "prefix {t:?} parsed");
        }
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // One level under the cap parses; one over fails with a depth
        // error, not a stack overflow.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        validate(&ok).unwrap();
        parse(&ok).unwrap();
        let deep = format!("{}1{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(validate(&deep).unwrap_err().contains("nesting"));
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        // A pathological unclosed ramp must also fail cleanly.
        let ramp = "[{\"k\":".repeat(50_000);
        assert!(validate(&ramp).is_err());
        assert!(parse(&ramp).is_err());
    }

    #[test]
    fn duplicate_keys_keep_document_order_and_get_is_first_wins() {
        // RFC 8259 leaves duplicate-key semantics to the consumer; ours
        // is documented: members keep document order, `get` returns the
        // first match. Pin it so a refactor can't silently flip it.
        let v = parse("{\"k\": 1, \"k\": 2, \"j\": 3}").unwrap();
        assert_eq!(v.get("k").and_then(Value::as_u64), Some(1));
        let obj = v.as_obj().unwrap();
        assert_eq!(obj.len(), 3);
        assert_eq!(obj[1].1.as_u64(), Some(2));
        assert_eq!(v.to_json(), "{\"k\":1,\"k\":2,\"j\":3}");
    }

    #[test]
    fn bad_escapes_are_rejected_with_offsets() {
        for bad in [
            "\"\\x\"",       // unknown escape
            "\"\\u12\"",     // truncated \u
            "\"\\u12g4\"",   // non-hex \u
            "\"\\\"",        // escape then EOF
            "\"abc",         // unterminated
            "{\"a\\q\": 1}", // bad escape in a key
        ] {
            let e = validate(bad).unwrap_err();
            assert!(e.contains("byte"), "{bad:?}: error {e:?} has no offset");
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn numbers_keep_their_kind_and_rounding() {
        // `fixed` rounds exactly as `{:.N}`; an integral `Num` keeps a
        // fraction (or an exponent past 2^53) so it reads back as a `Num`.
        assert_eq!(Value::fixed(2.0 / 3.0, 3).to_json(), "0.667");
        assert_eq!(Value::fixed(7800.0, 3).to_json(), "7800.0");
        assert_eq!(Value::Num(2f64.powi(60)).to_json(), "1.152921504606847e18");
        assert!(matches!(parse("7800.0"), Ok(Value::Num(_))));
        assert!(matches!(parse("18446744073709551615"), Ok(Value::Int(_))));
        assert_eq!(Value::fixed(f64::NAN, 2).to_json(), "null");
    }

    #[test]
    fn line_col_addresses_offsets() {
        let doc = "{\n  \"a\": 1,\n  \"b\": oops\n}";
        let e = validate(doc).unwrap_err();
        let byte: usize = e.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(line_col(doc, byte), (3, 8));
        assert_eq!(line_col(doc, 0), (1, 1));
        assert_eq!(line_col(doc, doc.len() + 99), (4, 2));
    }
}
