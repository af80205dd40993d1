//! Offline stand-in for `serde_json`: renders and parses the serde
//! shim's [`Value`] tree as JSON. Covers `to_string[_pretty]`, `to_vec`,
//! `from_str`, `from_slice`, and `Error`. Compact output skips the tree
//! (`Serialize::write_json`); the writer itself is `serde::json`.

use std::fmt;

use serde::{Deserialize, Serialize, Value};

/// JSON (de)serialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    fn new(message: impl fmt::Display) -> Self {
        Error(message.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Maximum nesting depth accepted by the parser — arbitrary input (e.g.
/// corrupt frames off the wire) must not be able to overflow the stack.
const MAX_DEPTH: usize = 128;

/// Compact JSON, written by [`Serialize::write_json`] without building
/// the `Value` tree.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    // Room for a typical message without regrowing from empty.
    let mut out = String::with_capacity(128);
    value.write_json(&mut out)?;
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    serde::json::write_value(&mut out, &value.serialize(), Some(2), 0)?;
    Ok(out)
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

pub fn from_str<T: Deserialize>(input: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    T::deserialize(&value).map_err(Error::from)
}

pub fn from_slice<T: Deserialize>(input: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(input).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

// --- parser ----------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::new("JSON nested too deeply"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.parse_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => return Err(Error::new(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value(depth + 1)?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => return Err(Error::new(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("bad number {text:?} at byte {start}")))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error::new(format!("invalid UTF-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if !(self.eat_literal("\\u")) {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                let combined =
                                    0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00));
                                char::from_u32(combined)
                                    .ok_or_else(|| Error::new("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi)
                                    .ok_or_else(|| Error::new("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue; // parse_hex4 already advanced
                        }
                        other => {
                            return Err(Error::new(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                other => {
                    return Err(Error::new(format!(
                        "unterminated string (next byte {other:?})"
                    )))
                }
            }
        }
    }

    /// Parses exactly four hex digits at the cursor and advances past them.
    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos.checked_add(4).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| Error::new("truncated \\u escape"))?;
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::new("bad \\u escape"))?;
        let n = u32::from_str_radix(text, 16).map_err(|_| Error::new("bad \\u escape"))?;
        self.pos = end;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(to_string(&-7i64).unwrap(), "-7");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        assert_eq!(from_str::<f64>("2.0").unwrap(), 2.0);
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line1\nline2\t\"quoted\" \\slash\\ ünïcode λ 🎉".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        // \u escapes parse, including surrogate pairs.
        assert_eq!(
            from_str::<String>(r#""\u00e9\ud83c\udf89""#).unwrap(),
            "é🎉"
        );
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(from_str::<Vec<u32>>(&to_string(&v).unwrap()).unwrap(), v);
        let m: std::collections::BTreeMap<String, String> = [("a".to_string(), "x\"y".to_string())]
            .into_iter()
            .collect();
        assert_eq!(
            from_str::<std::collections::BTreeMap<String, String>>(&to_string(&m).unwrap())
                .unwrap(),
            m
        );
        let opt: Option<u32> = None;
        assert_eq!(to_string(&opt).unwrap(), "null");
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![vec![1u32], vec![2, 3]];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<Vec<Vec<u32>>>(&pretty).unwrap(), v);
    }

    #[test]
    fn f64_round_trips_exactly() {
        for f in [0.1, 1.0 / 3.0, f64::MAX, 5e-324, -123.456e30] {
            let json = to_string(&f).unwrap();
            assert_eq!(from_str::<f64>(&json).unwrap(), f, "json={json}");
        }
        assert!(to_string(&f64::NAN).is_err());
        assert!(to_string(&f64::INFINITY).is_err());
    }

    /// The compact rendering of `value`'s `Value` tree: what `to_string`
    /// printed before it skipped the tree.
    fn via_tree<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
        let mut out = String::new();
        serde::json::write_value(&mut out, &value.serialize(), None, 0)?;
        Ok(out)
    }

    #[derive(Clone, serde::Serialize)]
    struct Unit;

    #[derive(Clone, serde::Serialize)]
    struct Newtype(f64);

    #[derive(Clone, serde::Serialize)]
    struct Pair(u8, String);

    #[derive(Clone, serde::Serialize)]
    struct Empty {}

    #[derive(Clone, serde::Serialize)]
    #[serde(into = "f64")]
    struct Proxied(f32);

    impl From<Proxied> for f64 {
        fn from(p: Proxied) -> f64 {
            f64::from(p.0) * 2.0
        }
    }

    #[derive(Clone, serde::Serialize)]
    enum Shape {
        Dot,
        Tagged(i32),
        Pair(Option<u64>, char),
        Named { key: String, values: Vec<Newtype> },
        Hollow {},
    }

    #[derive(Clone, serde::Serialize)]
    struct Record {
        id: u64,
        name: String,
        unit: Unit,
        pair: Pair,
        empty: Empty,
        proxied: Proxied,
        shapes: Vec<Shape>,
        tuple: (i8, bool, Option<String>),
        sorted: std::collections::BTreeMap<String, f32>,
        hashed: std::collections::HashMap<String, Vec<u16>>,
        shared: std::sync::Arc<str>,
        boxed: Box<[Shape]>,
        tree: serde::Value,
    }

    fn record(seed: u64) -> Record {
        // A small LCG: varied numbers and strings without a dependency.
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let text = |n: u64| {
            [
                "plain",
                "quo\"te",
                "back\\slash",
                "tab\tnl\ncr\r",
                "ctl\u{1}\u{1f}",
                "ünï λ 🎉",
                "",
            ][(n % 7) as usize]
                .repeat(1 + (n % 3) as usize)
        };
        let float = |n: u64| match n % 6 {
            0 => (n as f64) * 0.5,
            1 => -(n as f64) / 7.0,
            2 => 1e300 / (1 + n % 9) as f64,
            3 => 1e-300 * (n % 5) as f64,
            4 => 4.0e15 + n as f64,
            _ => (n % 1000) as f64,
        };
        let single = |n: u64| (n % 100_000) as f32 / [1.0, 8.0, 3.0][(n % 3) as usize];
        Record {
            id: next(),
            name: text(next()),
            unit: Unit,
            pair: Pair(next() as u8, text(next())),
            empty: Empty {},
            proxied: Proxied(single(next())),
            shapes: vec![
                Shape::Dot,
                Shape::Tagged(next() as i32),
                Shape::Pair(Some(next()).filter(|n| n % 2 == 0), 'é'),
                Shape::Named {
                    key: text(next()),
                    values: (0..next() % 4).map(|_| Newtype(float(next()))).collect(),
                },
                Shape::Hollow {},
            ],
            tuple: (next() as i8, next() % 2 == 0, Some(text(next()))),
            sorted: (0..3).map(|_| (text(next()), single(next()))).collect(),
            hashed: (0..4)
                .map(|i| (format!("k{i}{}", text(next())), vec![next() as u16; i]))
                .collect(),
            shared: text(next()).into(),
            boxed: vec![Shape::Tagged(-1), Shape::Dot].into_boxed_slice(),
            tree: serde::Value::Map(vec![
                ("n".into(), serde::Value::I64(-(next() as i64))),
                (
                    "s".into(),
                    serde::Value::Seq(vec![serde::Value::Null, serde::Value::F64(float(next()))]),
                ),
            ]),
        }
    }

    #[test]
    fn compact_output_matches_the_tree_rendering() {
        for seed in 0..200 {
            let r = record(seed);
            assert_eq!(to_string(&r).unwrap(), via_tree(&r).unwrap(), "seed {seed}");
        }
        // A non-finite float fails both ways.
        let mut r = record(1);
        r.shapes.push(Shape::Named {
            key: String::new(),
            values: vec![Newtype(f64::NAN)],
        });
        assert_eq!(to_string(&r), via_tree(&r));
        assert!(to_string(&r).is_err());
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"",
            "[1,",
            "nul",
            "tru",
            "{]",
            "1e",
            "--3",
            "\"\\u12\"",
            "\"\\q\"",
            "[1]extra",
        ] {
            assert!(from_str::<serde::Value>(bad).is_err(), "input {bad:?}");
        }
        // Deep nesting hits the depth limit instead of the stack.
        let deep = "[".repeat(100_000);
        assert!(from_str::<serde::Value>(&deep).is_err());
    }
}
