//! Offline stand-in for `serde` (see `shims/README.md` for why).
//!
//! The real crates are unavailable in this build environment, so this
//! shim provides the exact surface the workspace uses: `Serialize` /
//! `Deserialize` traits plus same-named derive macros under the
//! `derive` feature.
//!
//! Both directions are direct. A [`Serialize`] impl streams its JSON
//! into one shared [`Writer`] (compact or pretty), and a
//! [`Deserialize`] impl reads its fields straight from one shared
//! [`Deserializer`] cursor over the input text; neither builds an
//! intermediate tree. [`Value`] is one `Deserialize` impl among the
//! others, for callers that want the generic document. Output depends
//! only on the value and fields print in declaration order, so
//! serialisation is byte-deterministic — a property the suite
//! determinism CI gate depends on.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::io;

/// An ordered JSON document tree, for callers that want one
/// (`serde_json::from_str::<Value>`). Objects preserve insertion order
/// and duplicate keys (no hashing).
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

    /// A field of a named-field struct or variant never appeared.
    pub fn missing_field(name: &str, type_name: &str) -> DeError {
        DeError(format!("missing field `{name}` for {type_name}"))
    }

    /// A named-field struct or variant was given a non-object.
    pub fn expected_object(type_name: &str) -> DeError {
        DeError(format!("expected object for {type_name}"))
    }

    /// A tuple struct or variant was given anything but an array of
    /// exactly `len` elements.
    pub fn expected_elements(len: usize, type_name: &str) -> DeError {
        DeError(format!("expected {len}-element array for {type_name}"))
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

/// Types that read themselves from JSON text.
pub trait Deserialize: Sized {
    /// Reads one value of `Self` at the cursor, which sits on the
    /// value's first byte, and leaves the cursor just past it.
    ///
    /// An error that is not a syntax error may leave the cursor
    /// anywhere inside the value; [`Deserializer::attempt`] is how
    /// callers recover from one.
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError>;
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

// -- the reader ----------------------------------------------------------

/// The crate's one JSON parser: a cursor over the input text that
/// [`Deserialize`] impls read their values from directly.
///
/// Object keys and escape-free strings are handed out as slices of the
/// input; only a string holding an escape is copied. Integers are read
/// straight from their digits, and [`skip_value`](Self::skip_value)
/// checks a value's syntax without building it.
///
/// Decoding reports the errors a whole-document parse followed by a
/// typed walk would: a syntax error anywhere in the document takes
/// precedence over a type error, and among type errors the first field
/// in declaration order wins. [`attempt`](Self::attempt) is the
/// mechanism — it rewinds a failed read and skips the value, so the
/// syntax check always covers the whole value.
pub struct Deserializer<'de> {
    text: &'de str,
    pos: usize,
}

impl<'de> Deserializer<'de> {
    /// A cursor on the first token of `text` (leading whitespace is
    /// skipped).
    pub fn new(text: &'de str) -> Self {
        let mut de = Deserializer { text, pos: 0 };
        de.skip_ws();
        de
    }

    /// Checks that only whitespace follows the last value read.
    pub fn end(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(DeError(format!("trailing characters at byte {}", self.pos)))
        }
    }

    /// Reads one value with `read`. If the read fails, the cursor
    /// rewinds to the value's start and skips it: a syntax error inside
    /// the value is returned as the outer error, any other read error
    /// as the inner one, with the cursor past the value.
    pub fn attempt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, DeError>,
    ) -> Result<Result<T, DeError>, DeError> {
        let start = self.pos;
        match read(self) {
            Ok(value) => Ok(Ok(value)),
            Err(e) => {
                self.pos = start;
                self.skip_value()?;
                Ok(Err(e))
            }
        }
    }

    /// Reads an object, calling `entry` with each key and the cursor on
    /// that key's value, which `entry` must consume. Returns `false`,
    /// consuming nothing, if the next value is not an object.
    pub fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, &str) -> Result<(), DeError>,
    ) -> Result<bool, DeError> {
        if self.peek() != Some(b'{') {
            return Ok(false);
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(true);
        }
        loop {
            self.skip_ws();
            let key = self.key()?;
            entry(self, &key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(true);
                }
                _ => {
                    return Err(DeError(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    /// Reads an array, calling `element` with the cursor on each
    /// element, which `element` must consume. Returns `false`,
    /// consuming nothing, if the next value is not an array.
    pub fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), DeError>,
    ) -> Result<bool, DeError> {
        if self.peek() != Some(b'[') {
            return Ok(false);
        }
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(true);
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(true);
                }
                _ => return Err(DeError(format!("expected `,` or `]` at byte {}", self.pos))),
            }
        }
    }

    /// Reads an enum of `enum_name`: a bare string is a unit variant,
    /// and a one-entry object is a variant tagged by its key.
    /// `read(de, tag, tagged)` builds the variant; when `tagged`, the
    /// cursor is on the entry's value and `read` must consume it.
    pub fn variant<T>(
        &mut self,
        enum_name: &str,
        read: impl FnOnce(&mut Self, &str, bool) -> Result<T, DeError>,
    ) -> Result<T, DeError> {
        match self.peek() {
            Some(b'"') => {
                let tag = self.string()?;
                read(self, &tag, false)
            }
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    return Err(DeError::expected(enum_name));
                }
                let tag = self.key()?;
                let value = self.attempt(|de| read(de, &tag, true))?;
                self.skip_ws();
                if self.peek() != Some(b'}') {
                    // More than one entry: not an enum, whatever the
                    // first entry held. (A syntax error here surfaces
                    // through the enclosing `attempt` instead.)
                    return Err(DeError::expected(enum_name));
                }
                self.pos += 1;
                value
            }
            _ => Err(DeError::expected(enum_name)),
        }
    }

    /// Consumes one value of any kind, checking its syntax without
    /// building it (a string holding an escape is still decoded, which
    /// is how its escapes are checked).
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(()),
            Some(b't') if self.eat_literal("true") => Ok(()),
            Some(b'f') if self.eat_literal("false") => Ok(()),
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.array(Self::skip_value).map(drop),
            Some(b'{') => self.object(|de, _| de.skip_value()).map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.unexpected()),
        }
    }

    // The token readers are `#[inline]`: derived impls in other crates
    // call them for every field, and the workspace builds without LTO,
    // so otherwise each token costs a cross-crate call.
    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(DeError(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    #[inline]
    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn unexpected(&self) -> DeError {
        DeError(format!(
            "unexpected {:?} at byte {}",
            self.peek().map(|b| b as char),
            self.pos
        ))
    }

    /// An object key and its `:`, leaving the cursor on the value.
    #[inline]
    fn key(&mut self) -> Result<Cow<'de, str>, DeError> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// Advances to the next quote or backslash (or the end). Both are
    /// ASCII, so the run skipped ends on a char boundary.
    #[inline]
    fn skip_plain(&mut self) {
        while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
            self.pos += 1;
        }
    }

    /// A string token, borrowed from the input unless it holds an
    /// escape.
    #[inline]
    fn string(&mut self) -> Result<Cow<'de, str>, DeError> {
        let text = self.text;
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&text[start..self.pos - 1]));
        }
        let mut out = String::from(&text[start..self.pos]);
        loop {
            match self.peek() {
                None => return Err(DeError("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                _ => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                    self.pos += 1;
                }
            }
            let run = self.pos;
            self.skip_plain();
            out.push_str(&text[run..self.pos]);
        }
    }

    /// Decodes the escape whose letter is at the cursor into `out`,
    /// leaving the cursor on its last byte.
    fn escape(&mut self, out: &mut String) -> Result<(), DeError> {
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
                    .text
                    .as_bytes()
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| DeError("truncated \\u escape".into()))?;
                let hex = std::str::from_utf8(hex).map_err(|_| DeError("bad \\u escape".into()))?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|_| DeError("bad \\u escape".into()))?;
                // Surrogate pairs are not produced by the writer;
                // reject rather than mis-decode.
                let c = char::from_u32(code).ok_or_else(|| DeError("bad \\u code point".into()))?;
                out.push(c);
                self.pos += 4;
            }
            other => {
                return Err(DeError(format!(
                    "bad escape {:?} at byte {}",
                    other.map(|b| b as char),
                    self.pos
                )))
            }
        }
        Ok(())
    }

    /// A number token, classified as `serde_json` does: a
    /// [`Value::UInt`] for an integer that fits `u64` (summed from its
    /// digits with overflow checks), a [`Value::Int`] for a negative
    /// integer that fits `i64`, or a [`Value::Float`] for anything with
    /// a fraction, exponent or inner sign.
    ///
    /// Always inlined, so a caller that matches on the numeric variants
    /// carries no drop code for the others.
    #[inline(always)]
    fn number(&mut self) -> Result<Value, DeError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let (mut int, mut overflow) = (0u64, false);
        while let Some(b @ b'0'..=b'9') = self.peek() {
            let (tens, o1) = int.overflowing_mul(10);
            let (sum, o2) = tens.overflowing_add(u64::from(b - b'0'));
            (int, overflow) = (sum, overflow | o1 | o2);
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            is_float = true;
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let invalid = || DeError(format!("invalid number `{text}`"));
        if is_float {
            text.parse().map(Value::Float).map_err(|_| invalid())
        } else if negative {
            text.parse().map(Value::Int).map_err(|_| invalid())
        } else if overflow {
            Err(invalid())
        } else {
            Ok(Value::UInt(int))
        }
    }

    /// A number token, or `None` (consuming nothing) if the next value
    /// is not a number.
    #[inline(always)]
    fn maybe_number(&mut self) -> Result<Option<Value>, DeError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number().map(Some),
            _ => Ok(None),
        }
    }
}

/// What a derived impl read into `slot`: the value, the error reading
/// it, or `missing()` if the input never held it.
pub fn take<T>(
    slot: Option<Result<T, DeError>>,
    missing: impl FnOnce() -> DeError,
) -> Result<T, DeError> {
    slot.unwrap_or_else(|| Err(missing()))
}

// -- primitive impls ---------------------------------------------------

macro_rules! ser_int {
    ($via:ident: $($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
                out.$via(*self as $via)
            }
        }
    )*};
}

ser_int!(u64: u8, u16, u32, u64, usize);
ser_int!(i64: i8, i16, i32, i64, isize);

/// Integers take integer tokens in range; a float token, even an
/// integral one, is an error.
macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
                let n = match de.maybe_number()? {
                    Some(Value::UInt(n)) => <$t>::try_from(n).ok(),
                    Some(Value::Int(n)) => <$t>::try_from(n).ok(),
                    _ => None,
                };
                n.ok_or_else(|| DeError::expected(stringify!($t)))
            }
        }
    )*};
}

de_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Floats take any number token, and `null` (the writer's spelling of a
/// non-finite float) as NaN.
macro_rules! ser_de_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
                out.f64(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
                if de.eat_literal("null") {
                    return Ok(<$t>::NAN);
                }
                match de.maybe_number()? {
                    Some(Value::Float(x)) => Ok(x as $t),
                    Some(Value::UInt(n)) => Ok(n as $t),
                    Some(Value::Int(n)) => Ok(n as $t),
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
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        if de.eat_literal("true") {
            Ok(true)
        } else if de.eat_literal("false") {
            Ok(false)
        } else {
            Err(DeError::expected("bool"))
        }
    }
}

impl Serialize for String {
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        out.string(self)
    }
}

impl Deserialize for String {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        if de.peek() != Some(b'"') {
            return Err(DeError::expected("string"));
        }
        de.string().map(Cow::into_owned)
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
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        let mut items = Vec::new();
        if de.array(|de| {
            items.push(T::deserialize(de)?);
            Ok(())
        })? {
            Ok(items)
        } else {
            Err(DeError::expected("array"))
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
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        if de.eat_literal("null") {
            Ok(None)
        } else {
            T::deserialize(de).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize<W: io::Write>(&self, out: &mut Writer<W>) -> io::Result<()> {
        (**self).serialize(out)
    }
}

/// Tuples are arrays of exactly their arity. The length is checked
/// before any element's error is reported.
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
            fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
                const N: usize = 0 $(+ { let _ = $i; 1 })+;
                let mut slots = ($(None::<Result<$t, DeError>>,)+);
                let mut len = 0;
                let is_array = de.array(|de| {
                    match len {
                        $($i => slots.$i = Some(de.attempt($t::deserialize)?),)+
                        _ => de.skip_value()?,
                    }
                    len += 1;
                    Ok(())
                })?;
                let mismatch = || DeError::expected("tuple array");
                if !is_array || len != N {
                    return Err(mismatch());
                }
                Ok(($(take(slots.$i, mismatch)?,)+))
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

/// A `Value` takes any JSON: it is the generic document tree.
impl Deserialize for Value {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, DeError> {
        match de.peek() {
            Some(b'n') if de.eat_literal("null") => Ok(Value::Null),
            Some(b't') if de.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if de.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => de.string().map(|s| Value::Str(s.into_owned())),
            Some(b'[') => Vec::deserialize(de).map(Value::Array),
            Some(b'{') => {
                let mut entries = Vec::new();
                de.object(|de, key| {
                    entries.push((key.to_string(), Value::deserialize(de)?));
                    Ok(())
                })?;
                Ok(Value::Object(entries))
            }
            Some(b'-' | b'0'..=b'9') => de.number(),
            _ => Err(de.unexpected()),
        }
    }
}
