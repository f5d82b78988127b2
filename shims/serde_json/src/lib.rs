//! Offline stand-in for `serde_json` (see `shims/README.md`).
//!
//! Serialisation streams through the serde shim's [`serde::Writer`]
//! straight into a byte sink, and parsing reads through its
//! [`serde::Deserializer`] cursor straight into the target type — no
//! intermediate tree either way. [`Value`] is just one target among
//! others. Output formatting mirrors `serde_json`'s conventions
//! (2-space pretty indent, non-finite floats as `null`) and depends only
//! on the value — identical values always print identical bytes, which
//! the suite determinism gate relies on.

pub use serde::Value;
use serde::{DeError, Deserialize, Deserializer, Serialize, Writer};
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

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error(e.0)
    }
}

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

/// Parses JSON text into a `T`: the cursor reads one value, then
/// only whitespace may follow. A syntax error anywhere in `s`, trailing
/// characters included, is reported ahead of a type error.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut de = Deserializer::new(s);
    let value = de.attempt(T::deserialize)?;
    de.end()?;
    Ok(value?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Marker;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Newtype(u32);

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Dot,
        Pair(i32, u64),
        Wrap(f64),
        Named { on: bool, label: Option<String> },
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
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

    fn shapes() -> [Shape; 5] {
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
    }

    /// `x`'s compact and pretty text each decode to a value that prints
    /// the same text again.
    fn assert_decodes_back<T: Serialize + Deserialize>(x: &T) {
        for (text, print) in [
            (to_string(x).unwrap(), to_string::<T> as fn(&T) -> _),
            (to_string_pretty(x).unwrap(), to_string_pretty::<T>),
        ] {
            let back: T = from_str(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            assert_eq!(print(&back).unwrap(), text);
        }
    }

    #[test]
    fn every_shape_decodes_back_compact_and_pretty() {
        for x in [f64::NAN, f64::INFINITY, -0.0, 1.0, 1e300] {
            for shape in shapes() {
                assert_decodes_back(&sample(x, shape));
            }
        }
        for shape in shapes() {
            assert_decodes_back(&shape);
            let text = to_string(&shape).unwrap();
            assert_eq!(from_str::<Shape>(&text).unwrap(), shape);
        }
        let finite = sample(2.5, Shape::Pair(3, 4));
        assert_eq!(
            from_str::<Sample>(&to_string_pretty(&finite).unwrap()).unwrap(),
            finite
        );
        assert_eq!(from_str::<Marker>("null").unwrap(), Marker);
        assert_eq!(from_str::<Newtype>("3").unwrap(), Newtype(3));
        // Non-finite floats print `null`, which reads back as NaN.
        assert!(
            from_str::<Sample>(&to_string(&sample(f64::INFINITY, Shape::Dot)).unwrap())
                .unwrap()
                .x
                .is_nan()
        );
    }

    #[test]
    fn keys_in_any_order_unknown_skipped_first_duplicate_wins() {
        let text =
            r#"{"Named":{"label":"b","bogus":[1,{"x":null}],"on":true,"on":"no","label":null}}"#;
        assert_eq!(
            from_str::<Shape>(text).unwrap(),
            Shape::Named {
                on: true,
                label: Some("b".to_string())
            }
        );
        let reversed = r#"{"pair":[1,"a"],"id":42,"marker":null,"shape":"Dot","none":[],"items":[],"maybe":null,"x":1.5}"#;
        let back = from_str::<Sample>(reversed).unwrap();
        assert_eq!(
            (back.x, back.id, back.pair),
            (1.5, Newtype(42), (1, "a".to_string()))
        );
    }

    #[test]
    fn whitespace_between_tokens_is_skipped() {
        let text = " \r\n{ \"Named\" :\t{ \"on\" : false ,\n \"label\" : null } } \n";
        assert_eq!(
            from_str::<Shape>(text).unwrap(),
            Shape::Named {
                on: false,
                label: None
            }
        );
        assert_eq!(
            from_str::<Shape>("{ \"Pair\" : [ -1 ,\t2 ] }").unwrap(),
            Shape::Pair(-1, 2)
        );
    }

    #[test]
    fn escaped_keys_and_values_decode() {
        let text = r#"{"Named":{"o\u006e":true,"lab\"el":0,"label":"tab\t\"q\" \u00e9\/"}}"#;
        assert_eq!(
            from_str::<Shape>(text).unwrap(),
            Shape::Named {
                on: true,
                label: Some("tab\t\"q\" é/".to_string())
            }
        );
    }

    fn err<T: Deserialize + std::fmt::Debug>(text: &str) -> String {
        from_str::<T>(text).unwrap_err().to_string()
    }

    #[test]
    fn decode_errors_name_what_went_wrong() {
        assert_eq!(
            err::<Shape>(r#"{"Named":{"on":true}}"#),
            "missing field `label` for Shape"
        );
        assert_eq!(
            err::<Shape>(r#""Circle""#),
            "unknown variant `Circle` for Shape"
        );
        assert_eq!(
            err::<Shape>(r#"{"Circle":1}"#),
            "unknown variant `Circle` for Shape"
        );
        // A data variant is never a bare string.
        assert_eq!(
            err::<Shape>(r#""Pair""#),
            "unknown variant `Pair` for Shape"
        );
        assert_eq!(err::<Shape>(r#"{"Dot":1,"Wrap":2}"#), "expected Shape");
        assert_eq!(
            err::<Shape>(r#"{"Named":{"on":1,"label":null}}"#),
            "expected bool"
        );
        assert_eq!(err::<Shape>(r#"{"Named":[]}"#), "expected object for Shape");
        assert_eq!(
            err::<Shape>(r#"{"Pair":[1]}"#),
            "expected 2-element array for Shape"
        );
        assert_eq!(err::<Newtype>("4294967296"), "expected u32");
        assert_eq!(err::<Newtype>("-1"), "expected u32");
        assert_eq!(err::<Newtype>("1.0"), "expected u32");
        assert_eq!(
            err::<u64>("18446744073709551616"),
            "invalid number `18446744073709551616`"
        );
        assert_eq!(
            err::<u64>("184467440737095516150"),
            "invalid number `184467440737095516150`"
        );
        assert_eq!(err::<Shape>(r#""Dot" x"#), "trailing characters at byte 6");
        assert_eq!(err::<Shape>(r#""Dot"#), "unterminated string");
        assert_eq!(err::<String>(r#""a\q""#), "bad escape Some('q') at byte 3");
    }

    #[test]
    fn integers_take_every_digit_up_to_the_overflow() {
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<u64>("000000000000000000000042").unwrap(), 42);
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert_eq!(
            from_str::<Value>("18446744073709551616")
                .unwrap_err()
                .to_string(),
            "invalid number `18446744073709551616`"
        );
    }

    #[test]
    fn decode_errors_follow_document_then_declaration_order() {
        // A syntax error anywhere beats a type error before it.
        assert_eq!(
            err::<Shape>(r#"{"Named":{"on":1,"label":null}"#),
            "expected `,` or `}` at byte 30"
        );
        assert_eq!(
            err::<Shape>(r#"{"Named":{"on":1,"label":nul}}"#),
            "unexpected Some('n') at byte 25"
        );
        // Among type errors, the first field in declaration order wins,
        // whatever the order of the keys.
        assert_eq!(
            err::<Shape>(r#"{"Named":{"label":5,"on":1}}"#),
            "expected bool"
        );
        assert_eq!(
            err::<Shape>(r#"{"Named":{"label":5}}"#),
            "missing field `on` for Shape"
        );
        // A tuple's length is checked before its elements.
        assert_eq!(
            err::<Shape>(r#"{"Pair":["x",1,2]}"#),
            "expected 2-element array for Shape"
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
