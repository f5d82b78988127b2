//! Offline stand-in for `serde` (see `shims/README.md` for why).
//!
//! The real crates are unavailable in this build environment, so this
//! shim provides the exact surface the workspace uses: `Serialize` /
//! `Deserialize` traits plus same-named derive macros under the
//! `derive` feature.
//!
//! Serialisation is direct: a [`Serialize`] impl streams its JSON into
//! one shared [`Writer`] (compact or pretty), with no intermediate tree.
//! Deserialisation goes through the ordered [`Value`] tree that
//! `serde_json::from_str` parses into. Output depends only on the value
//! and fields print in declaration order, so serialisation is
//! byte-deterministic — a property the suite determinism CI gate
//! depends on.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use std::io;

/// An ordered JSON value: the parse target of `serde_json::from_str`.
/// Objects preserve insertion order (no hashing).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer (u64 exact).
    UInt(u64),
    /// Negative integer.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Deserialisation error: a plain message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// "expected X" error.
    pub fn expected(what: &str) -> DeError {
        DeError(format!("expected {what}"))
    }

    /// Unknown enum variant error.
    pub fn unknown_variant(got: &str, enum_name: &str) -> DeError {
        DeError(format!("unknown variant `{got}` for {enum_name}"))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that write themselves as JSON.
pub trait Serialize {
    /// Streams `self` into `out`. Container impls call
    /// [`Writer::key`]/[`Writer::element`] before each entry; scalars
    /// write just their token.
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()>;
}

/// Types reconstructable from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a JSON value.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// -- the writer ----------------------------------------------------------

/// The crate's one JSON formatter: streams tokens into an
/// [`io::Write`] sink, compact (no whitespace) or pretty (2-space
/// indent, `": "` after keys, like `serde_json`'s pretty printer).
///
/// Separators are emitted lazily — a `,` and, in pretty mode, the
/// newline and indent are written only when the next entry starts, and
/// a closing bracket is preceded by a newline only when its container
/// has entries — so empty containers print `{}` and `[]`. Non-finite
/// floats print `null`.
pub struct Writer<W> {
    out: W,
    pretty: bool,
    depth: usize,
    /// The innermost open container has no entries yet.
    empty: bool,
}

impl<W: io::Write> Writer<W> {
    /// A writer emitting compact JSON.
    pub fn compact(out: W) -> Self {
        Writer {
            out,
            pretty: false,
            depth: 0,
            empty: true,
        }
    }

    /// A writer emitting pretty JSON (2-space indent).
    pub fn pretty(out: W) -> Self {
        Writer {
            pretty: true,
            ..Writer::compact(out)
        }
    }

    /// The sink, once serialisation is done.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Opens an object.
    pub fn begin_object(&mut self) -> io::Result<()> {
        self.open(b"{")
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> io::Result<()> {
        self.close(b"}")
    }

    /// Opens an array.
    pub fn begin_array(&mut self) -> io::Result<()> {
        self.open(b"[")
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> io::Result<()> {
        self.close(b"]")
    }

    /// Starts an object entry whose key is already quoted and escaped
    /// (derived code passes string literals such as `"\"seq\""`).
    pub fn raw_key(&mut self, quoted: &str) -> io::Result<()> {
        self.separator()?;
        self.out.write_all(quoted.as_bytes())?;
        self.colon()
    }

    /// Starts an object entry with a key escaped at run time.
    pub fn key(&mut self, key: &str) -> io::Result<()> {
        self.separator()?;
        self.string(key)?;
        self.colon()
    }

    /// Starts an array element.
    pub fn element(&mut self) -> io::Result<()> {
        self.separator()
    }

    /// Writes `null`.
    pub fn null(&mut self) -> io::Result<()> {
        self.out.write_all(b"null")
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> io::Result<()> {
        self.out.write_all(if b { b"true" } else { b"false" })
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, mut n: u64) -> io::Result<()> {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out.write_all(&digits[i..])
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, n: i64) -> io::Result<()> {
        if n < 0 {
            self.out.write_all(b"-")?;
        }
        self.u64(n.unsigned_abs())
    }

    /// Writes a float; non-finite values print `null`.
    pub fn f64(&mut self, x: f64) -> io::Result<()> {
        if x.is_finite() {
            // `{:?}` keeps a trailing `.0` on integral floats and
            // round-trips exactly, like serde_json's ryu output.
            write!(self.out, "{x:?}")
        } else {
            self.null()
        }
    }

    /// Writes a string, quoted and escaped.
    pub fn string(&mut self, s: &str) -> io::Result<()> {
        self.out.write_all(b"\"")?;
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let mut hex = *b"\\u0000";
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                0x00..=0x1f => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    hex[4] = HEX[usize::from(b >> 4)];
                    hex[5] = HEX[usize::from(b & 0xf)];
                    &hex
                }
                _ => continue,
            };
            // Every escaped byte is ASCII, so `run..i` never splits a
            // multibyte character.
            self.out.write_all(&bytes[run..i])?;
            self.out.write_all(escape)?;
            run = i + 1;
        }
        self.out.write_all(&bytes[run..])?;
        self.out.write_all(b"\"")
    }

    /// Writes an already quoted and escaped string token (derived code
    /// passes unit-variant names as literals such as `"\"Overflow\""`).
    pub fn raw_str(&mut self, quoted: &str) -> io::Result<()> {
        self.out.write_all(quoted.as_bytes())
    }

    /// Writes `items` as an array.
    pub fn seq<'a, T: Serialize + 'a>(
        &mut self,
        items: impl IntoIterator<Item = &'a T>,
    ) -> io::Result<()> {
        self.begin_array()?;
        for item in items {
            self.element()?;
            item.serialize(self)?;
        }
        self.end_array()
    }

    fn open(&mut self, bracket: &[u8]) -> io::Result<()> {
        self.depth += 1;
        self.empty = true;
        self.out.write_all(bracket)
    }

    fn close(&mut self, bracket: &[u8]) -> io::Result<()> {
        self.depth -= 1;
        if self.pretty && !self.empty {
            self.newline_indent()?;
        }
        // The enclosing container (if any) holds this one as an entry.
        self.empty = false;
        self.out.write_all(bracket)
    }

    fn separator(&mut self) -> io::Result<()> {
        if !self.empty {
            self.out.write_all(b",")?;
        }
        self.empty = false;
        if self.pretty {
            self.newline_indent()?;
        }
        Ok(())
    }

    fn colon(&mut self) -> io::Result<()> {
        self.out.write_all(if self.pretty { b": " } else { b":" })
    }

    fn newline_indent(&mut self) -> io::Result<()> {
        self.out.write_all(b"\n")?;
        for _ in 0..self.depth {
            self.out.write_all(b"  ")?;
        }
        Ok(())
    }
}

// -- derive support helpers (stable API for generated code) ------------

/// Expects `v` to be an object; used by derived code.
pub fn expect_object<'a>(v: &'a Value, type_name: &str) -> Result<&'a [(String, Value)], DeError> {
    v.as_object()
        .ok_or_else(|| DeError(format!("expected object for {type_name}")))
}

/// Looks up a field in derived struct deserialisation.
pub fn expect_field<'a>(
    fields: &'a [(String, Value)],
    name: &str,
    type_name: &str,
) -> Result<&'a Value, DeError> {
    fields
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError(format!("missing field `{name}` for {type_name}")))
}

/// Expects an array of exactly `len` items; used by derived code.
pub fn expect_array<'a>(v: &'a Value, len: usize, type_name: &str) -> Result<&'a [Value], DeError> {
    match v.as_array() {
        Some(items) if items.len() == len => Ok(items),
        _ => Err(DeError(format!(
            "expected {len}-element array for {type_name}"
        ))),
    }
}

// -- primitive impls ---------------------------------------------------

macro_rules! ser_de_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
                out.u64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::expected(stringify!($t))),
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::expected(stringify!($t))),
                    _ => Err(DeError::expected(stringify!($t))),
                }
            }
        }
    )*};
}

macro_rules! ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
                out.i64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::UInt(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::expected(stringify!($t))),
                    Value::Int(n) => <$t>::try_from(*n)
                        .map_err(|_| DeError::expected(stringify!($t))),
                    _ => Err(DeError::expected(stringify!($t))),
                }
            }
        }
    )*};
}

ser_de_uint!(u8, u16, u32, u64, usize);
ser_de_int!(i8, i16, i32, i64, isize);

macro_rules! ser_de_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
                out.f64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Float(x) => Ok(*x as $t),
                    Value::UInt(n) => Ok(*n as $t),
                    Value::Int(n) => Ok(*n as $t),
                    Value::Null => Ok(<$t>::NAN),
                    _ => Err(DeError::expected(stringify!($t))),
                }
            }
        }
    )*};
}

ser_de_float!(f32, f64);

impl Serialize for bool {
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        out.bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::expected("bool")),
        }
    }
}

impl Serialize for String {
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        out.string(self)
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(DeError::expected("string")),
        }
    }
}

impl Serialize for str {
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        out.string(self)
    }
}

impl Serialize for char {
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        out.string(self.encode_utf8(&mut [0; 4]))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        (**self).serialize(out)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        out.seq(self)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        out.seq(self)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            _ => Err(DeError::expected("array")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        match self {
            Some(x) => x.serialize(out),
            None => out.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        (**self).serialize(out)
    }
}

macro_rules! ser_de_tuple {
    ($(($($t:ident . $i:tt),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
                out.begin_array()?;
                $(
                    out.element()?;
                    self.$i.serialize(out)?;
                )+
                out.end_array()
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                const N: usize = 0 $(+ { let _ = $i; 1 })+;
                match v.as_array() {
                    Some(items) if items.len() == N => {
                        Ok(($($t::from_value(&items[$i])?,)+))
                    }
                    _ => Err(DeError::expected("tuple array")),
                }
            }
        }
    )*};
}

ser_de_tuple! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

impl Serialize for Value {
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::UInt(n) => out.u64(*n),
            Value::Int(n) => out.i64(*n),
            Value::Float(x) => out.f64(*x),
            Value::Str(s) => out.string(s),
            Value::Array(items) => out.seq(items),
            Value::Object(entries) => {
                out.begin_object()?;
                for (key, value) in entries {
                    out.key(key)?;
                    value.serialize(out)?;
                }
                out.end_object()
            }
        }
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}
