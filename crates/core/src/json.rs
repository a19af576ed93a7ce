//! The one JSON codec for every artifact the workspace writes and reads.
//!
//! Writers lay out their own bytes (each layout is part of its
//! artifact's contract) and pass every string through [`escape`].
//! Readers use [`parse`], a strict recursive-descent parser: anything but
//! one complete JSON value is an error naming the byte offset. Numbers
//! keep their source text, so [`Value::as_u64`] is exact over all of
//! `u64` (addresses and nanosecond stamps exceed 2^53, where `f64` rounds).

use std::fmt::Write as _;

/// Nesting bound, far above any artifact's depth, so hostile input
/// cannot exhaust the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its validated source text.
    Number(String),
    /// A string, escapes decoded.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object's members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object (the first, if repeated).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A non-negative integer that fits `u64`, exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(text) => text.parse().ok(),
            _ => None,
        }
    }

    /// The decoded contents of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Escape `s` for use between the quotes of a JSON string: `"` and `\`
/// are backslash-escaped, `\n` `\r` `\t` use their short forms, and the
/// other control characters become `\u00XX`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// The body of a pretty-printed array: each item on its own line after
/// `indent`, all but the last followed by a comma.
pub fn array_lines(indent: &str, items: impl IntoIterator<Item = String>) -> String {
    let rows: Vec<String> = items
        .into_iter()
        .map(|item| format!("{indent}{item}"))
        .collect();
    match rows.is_empty() {
        true => String::new(),
        false => rows.join(",\n") + "\n",
    }
}

/// Parse `text` as exactly one JSON value, with optional surrounding
/// whitespace.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { s: text, i: 0 };
    let v = p.value(0)?;
    p.ws();
    if p.i < p.s.len() {
        return Err(p.err("trailing characters after the value"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    /// Byte offset of the next unread character.
    i: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("byte {}: {what}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.i += hit as usize;
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.eat(b) {
            true => Ok(()),
            false => Err(self.err(&format!("expected '{}'", b as char))),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.ws();
        let rest = &self.s[self.i..];
        let (word, v) = match self.peek() {
            Some(b'{') => {
                let members = self.list(b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.ws();
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })?;
                return Ok(Value::Object(members));
            }
            Some(b'[') => return Ok(Value::Array(self.list(b']', |p| p.value(depth + 1))?)),
            Some(b'"') => return Ok(Value::String(self.string()?)),
            Some(b'-' | b'0'..=b'9') => return self.number(),
            _ if rest.starts_with("true") => ("true", Value::Bool(true)),
            _ if rest.starts_with("false") => ("false", Value::Bool(false)),
            _ if rest.starts_with("null") => ("null", Value::Null),
            _ => return Err(self.err("expected a value")),
        };
        self.i += word.len();
        Ok(v)
    }

    /// Comma-separated `item`s from the opening bracket through `close`.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1;
        let mut out = Vec::new();
        self.ws();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.ws();
            if !self.eat(b',') {
                self.expect(close)?;
                return Ok(out);
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.i += 1;
        }
        self.i - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        self.eat(b'-');
        let int = self.digits();
        // One or more digits, without a leading zero.
        let mut ok = int == 1 || (int > 1 && self.s.as_bytes()[self.i - int] != b'0');
        if self.eat(b'.') {
            ok &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits() > 0;
        }
        match ok {
            true => Ok(Value::Number(self.s[start..self.i].to_string())),
            false => Err(self.err("malformed number")),
        }
    }

    /// The next character, consumed.
    fn bump(&mut self) -> Option<char> {
        let c = self.s[self.i..].chars().next()?;
        self.i += c.len_utf8();
        Some(c)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump().ok_or_else(|| self.err("unterminated string"))? {
                '"' => return Ok(out),
                '\\' => out.push(match self.bump() {
                    Some('"') => '"',
                    Some('\\') => '\\',
                    Some('/') => '/',
                    Some('b') => '\u{8}',
                    Some('f') => '\u{c}',
                    Some('n') => '\n',
                    Some('r') => '\r',
                    Some('t') => '\t',
                    Some('u') => self.unicode()?,
                    _ => return Err(self.err("bad escape")),
                }),
                c if c < ' ' => return Err(self.err("control character in string")),
                c => out.push(c),
            }
        }
    }

    /// The character of a `\uXXXX` escape (after the `u`), joining a
    /// UTF-16 surrogate pair.
    fn unicode(&mut self) -> Result<char, String> {
        let mut code = self.hex4();
        if let Some(high @ 0xd800..=0xdbff) = code {
            code = None;
            if self.s[self.i..].starts_with("\\u") {
                self.i += 2;
                if let Some(low @ 0xdc00..=0xdfff) = self.hex4() {
                    code = Some(0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00));
                }
            }
        }
        code.and_then(char::from_u32)
            .ok_or_else(|| self.err("bad \\u escape"))
    }

    fn hex4(&mut self) -> Option<u32> {
        let hex = self.s.get(self.i..self.i + 4)?;
        self.i += 4;
        let digits = hex.bytes().all(|b| b.is_ascii_hexdigit());
        digits.then(|| u32::from_str_radix(hex, 16).expect("four hex digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_round_trip() {
        for s in [
            "",
            "plain",
            "q\"b\\s/",
            "nl\ncr\rtab\t",
            "\u{1}\u{1f}",
            "é ∑ 🦀",
        ] {
            let doc = format!("\"{}\"", escape(s));
            assert_eq!(parse(&doc).unwrap().as_str(), Some(s), "{doc}");
        }
        assert_eq!(escape("a\"\\\n\u{2}"), "a\\\"\\\\\\n\\u0002");
        assert_eq!(
            parse(r#""\u00e9\ud83e\udd80\/\b\f""#).unwrap().as_str(),
            Some("é🦀/\u{8}\u{c}")
        );
    }

    #[test]
    fn nested_arrays_and_objects() {
        let v =
            parse(r#" {"a": [1, {"b": [true, false, null]}, []], "c": {}, "d": -2.5e3} "#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].as_u64(), Some(1));
        let b = a[1].get("b").and_then(Value::as_array).unwrap();
        assert_eq!(b, &[Value::Bool(true), Value::Bool(false), Value::Null]);
        assert_eq!(a[2].as_array(), Some(&[][..]));
        assert_eq!(v.get("c"), Some(&Value::Object(Vec::new())));
        assert_eq!(v.get("d"), Some(&Value::Number("-2.5e3".into())));
        assert_eq!(v.get("d").unwrap().as_u64(), None, "not a u64");
        assert_eq!(v.get("missing"), None);
        assert_eq!(a[0].get("a"), None, "get on a non-object");
    }

    #[test]
    fn array_lines_separates_items_with_commas() {
        assert_eq!(array_lines("  ", Vec::new()), "");
        assert_eq!(array_lines("  ", vec!["1".to_string()]), "  1\n");
        let doc = format!("[\n{}]", array_lines("  ", (1..4).map(|i| i.to_string())));
        assert_eq!(doc, "[\n  1,\n  2,\n  3\n]");
        assert_eq!(parse(&doc).unwrap().as_array().map(<[Value]>::len), Some(3));
    }

    #[test]
    fn u64_max_stays_exact() {
        let v = parse(&format!("{{\"addr\":{}}}", u64::MAX)).unwrap();
        assert_eq!(v.get("addr").unwrap().as_u64(), Some(u64::MAX));
        // 2^53 + 1 is where an f64 reader would round.
        let v = parse("9007199254740993").unwrap();
        assert_eq!(v.as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(
            parse("18446744073709551616").unwrap().as_u64(),
            None,
            "overflow"
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{\"a\":1} x",
            "{\"a\":1}}",
            "[1,2",
            "\"unterminated",
            "{\"a\":\"unterminated}",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "[1 2]",
            "{a:1}",
            "01",
            "1.",
            "-",
            "1e",
            "tru",
            "\"bad \\q escape\"",
            "\"raw\nnewline\"",
            "\"\\ud83e\"",
            "\"\\u12g4\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
        assert!(parse(&deep).is_err());
        let err = parse("{\"a\":1} x").unwrap_err();
        assert!(err.starts_with("byte 8:"), "{err}");
    }
}
