//! Offline stand-in for `serde_json` (see `shims/README.md`).
//!
//! Serialisation streams through the serde shim's [`serde::Writer`]
//! straight into a byte sink — no intermediate tree. Parsing is a
//! recursive-descent parser into the shim's ordered [`Value`], which
//! `Deserialize` impls then read. Output formatting mirrors
//! `serde_json`'s conventions (2-space pretty indent, non-finite floats
//! as `null`) and depends only on the value — identical values always
//! print identical bytes, which the suite determinism gate relies on.

pub use serde::Value;
use serde::{Deserialize, Serialize, Writer};
use std::io;

/// Serialisation/deserialisation error: a plain message.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Error {
        Error(e.to_string())
    }
}

/// Serialises `value` as compact JSON into `writer`.
pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(writer: W, value: &T) -> Result<(), Error> {
    value.serialize(&mut Writer::compact(writer))?;
    Ok(())
}

/// Serialises `value` to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    into_string(value, Writer::compact(line_buffer()))
}

/// Serialises `value` to pretty JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    into_string(value, Writer::pretty(line_buffer()))
}

/// An output buffer a typical trace line fits in without regrowing.
fn line_buffer() -> Vec<u8> {
    Vec::with_capacity(128)
}

fn into_string<T: Serialize + ?Sized>(
    value: &T,
    mut writer: Writer<Vec<u8>>,
) -> Result<String, Error> {
    value.serialize(&mut writer)?;
    String::from_utf8(writer.into_inner()).map_err(|e| Error(e.to_string()))
}

/// Parses JSON text into a `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::from_value(&value).map_err(|e| Error(e.0))
}

// -- parser ------------------------------------------------------------

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
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
            Err(Error(format!(
                "expected `{}` at byte {}",
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

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash as one
            // slice: both are ASCII, so the run ends on a char boundary.
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            // Surrogate pairs are not produced by the
                            // writer; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error("bad \\u code point".into()))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|b| b as char),
                                self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("invalid number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error(format!("invalid number `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Marker;

    #[derive(Serialize)]
    struct Newtype(u32);

    #[derive(Serialize)]
    enum Shape {
        Dot,
        Pair(i32, u64),
        Wrap(f64),
        Named { on: bool, label: Option<String> },
    }

    #[derive(Serialize)]
    struct Sample {
        x: f64,
        maybe: Option<u32>,
        items: Vec<i64>,
        none: Vec<u8>,
        shape: Shape,
        marker: Marker,
        id: Newtype,
        pair: (u8, String),
    }

    fn sample(x: f64, shape: Shape) -> Sample {
        Sample {
            x,
            maybe: (x > 0.0).then_some(7),
            items: vec![-3, 0, i64::MAX],
            none: Vec::new(),
            shape,
            marker: Marker,
            id: Newtype(42),
            pair: (1, "tab\there".to_string()),
        }
    }

    /// The derived path and the `Value` path print the same bytes:
    /// `x` re-printed after a parse into `Value` is unchanged, compact
    /// and pretty.
    fn assert_writer_equivalent<T: Serialize>(x: &T) {
        let compact = to_string(x).unwrap();
        let value: Value = from_str(&compact).unwrap();
        assert_eq!(to_string(&value).unwrap(), compact);
        let pretty = to_string_pretty(x).unwrap();
        let value: Value = from_str(&pretty).unwrap();
        assert_eq!(to_string_pretty(&value).unwrap(), pretty);
    }

    #[test]
    fn derived_and_value_paths_print_identical_bytes() {
        let shapes = || {
            [
                Shape::Dot,
                Shape::Pair(-1, u64::MAX),
                Shape::Wrap(0.5),
                Shape::Named {
                    on: true,
                    label: None,
                },
                Shape::Named {
                    on: false,
                    label: Some("é\"q\"".to_string()),
                },
            ]
        };
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1.0, 1e300] {
            for shape in shapes() {
                assert_writer_equivalent(&sample(x, shape));
            }
        }
        assert_writer_equivalent(&Marker);
        assert_writer_equivalent(&Newtype(3));
        assert_eq!(
            to_string(&sample(-0.0, Shape::Dot)).unwrap(),
            r#"{"x":-0.0,"maybe":null,"items":[-3,0,9223372036854775807],"none":[],"shape":"Dot","marker":null,"id":42,"pair":[1,"tab\there"]}"#
        );
        assert_eq!(
            to_string(&Shape::Pair(-1, 2)).unwrap(),
            r#"{"Pair":[-1,2]}"#
        );
        assert_eq!(
            to_string(&Shape::Wrap(f64::NAN)).unwrap(),
            r#"{"Wrap":null}"#
        );
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = Value::Object(vec![
            ("a".into(), Value::UInt(1)),
            (
                "b".into(),
                Value::Array(vec![Value::Float(1.5), Value::Null]),
            ),
            ("c".into(), Value::Str("x\n\"y\"".into())),
            ("d".into(), Value::Int(-3)),
        ]);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back: Value = from_str(&text).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn strings_round_trip_escapes_multibyte_and_long_runs() {
        let mut s = String::from("é😀\"\\\n\r\t\u{8}\u{c}\u{1}\u{1f}/ü");
        s.push_str(&"x".repeat(1 << 20));
        s.push_str("😀é");
        let text = to_string(&s).unwrap();
        assert!(text.starts_with(r#""é😀\"\\\n\r\t\b\f\u0001\u001f/ü"#));
        assert_eq!(from_str::<String>(&text).unwrap(), s);
        let v = Value::Array(vec![Value::Str(s.clone())]);
        assert_eq!(from_str::<Value>(&to_string(&v).unwrap()).unwrap(), v);
    }

    #[test]
    fn to_writer_streams_the_compact_bytes() {
        let v = sample(2.0, Shape::Pair(1, 2));
        let mut out = Vec::new();
        to_writer(&mut out, &v).unwrap();
        assert_eq!(out, to_string(&v).unwrap().into_bytes());
    }

    #[test]
    fn non_finite_floats_print_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }

    #[test]
    fn pretty_format_matches_serde_json_shape() {
        let v = Value::Object(vec![("k".into(), Value::Array(vec![Value::UInt(1)]))]);
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "{\n  \"k\": [\n    1\n  ]\n}"
        );
        assert_eq!(
            to_string_pretty(&sample(
                1.0,
                Shape::Named {
                    on: true,
                    label: None
                }
            ))
            .unwrap(),
            r#"{
  "x": 1.0,
  "maybe": 7,
  "items": [
    -3,
    0,
    9223372036854775807
  ],
  "none": [],
  "shape": {
    "Named": {
      "on": true,
      "label": null
    }
  },
  "marker": null,
  "id": 42,
  "pair": [
    1,
    "tab\there"
  ]
}"#
        );
    }
}
