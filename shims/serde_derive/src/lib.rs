//! Offline stand-in for the real `serde_derive` (see `shims/README.md`).
//!
//! Generates `serde::Serialize` impls that stream straight into the
//! shim's `serde::Writer`, and `serde::Deserialize` impls that read the
//! parsed `serde::Value` tree. Supports exactly the shapes this workspace
//! derives on: non-generic named-field structs, tuple structs, unit
//! structs, and enums with unit / named-field / tuple variants. No
//! `#[serde(...)]` attributes (none are used in-tree).

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Fields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

enum Shape {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

/// Derives `serde::Serialize`: a `serialize` body that writes each
/// field straight into the `serde::Writer`, keys and variant names as
/// pre-escaped string literals.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = parse_shape(input);
    let (name, body) = match &shape {
        Shape::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => "__out.null()".to_string(),
                Fields::Named(names) => {
                    let access: Vec<String> = names.iter().map(|f| format!("&self.{f}")).collect();
                    ser_object(names, &access)
                }
                Fields::Tuple(n) => {
                    let access: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
                    ser_tuple(&access)
                }
            };
            (name, body)
        }
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|(v, fields)| ser_variant_arm(name, v, fields))
                .collect();
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize<__W: ::std::io::Write>(&self, __out: &mut ::serde::Writer<__W>) \
         -> ::std::io::Result<()> {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("serde_derive: generated Serialize impl must parse")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = parse_shape(input);
    let body = match &shape {
        Shape::Struct { name, fields } => {
            let expr = de_fields_expr(name, &format!("{name} "), fields, "v");
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(v: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::DeError> {{\n\
                 ::std::result::Result::Ok({expr})\n\
                 }} }}"
            )
        }
        Shape::Enum { name, variants } => {
            let unit_arms: String = variants
                .iter()
                .filter(|(_, f)| matches!(f, Fields::Unit))
                .map(|(v, _)| format!("{v:?} => ::std::result::Result::Ok({name}::{v}),\n"))
                .collect();
            let tagged_arms: String = variants
                .iter()
                .map(|(v, fields)| {
                    let expr = match fields {
                        Fields::Unit => format!("{name}::{v}"),
                        _ => de_fields_expr(name, &format!("{name}::{v} "), fields, "inner"),
                    };
                    format!("{v:?} => ::std::result::Result::Ok({expr}),\n")
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(v: &::serde::Value) -> \
                 ::std::result::Result<Self, ::serde::DeError> {{\n\
                 match v {{\n\
                 ::serde::Value::Str(s) => match s.as_str() {{\n\
                 {unit_arms}\
                 other => ::std::result::Result::Err(\
                 ::serde::DeError::unknown_variant(other, {name:?})),\n\
                 }},\n\
                 ::serde::Value::Object(entries) if entries.len() == 1 => {{\n\
                 let (key, inner) = &entries[0];\n\
                 let _ = inner;\n\
                 match key.as_str() {{\n\
                 {tagged_arms}\
                 other => ::std::result::Result::Err(\
                 ::serde::DeError::unknown_variant(other, {name:?})),\n\
                 }}\n\
                 }},\n\
                 _ => ::std::result::Result::Err(::serde::DeError::expected({name:?})),\n\
                 }} }} }}"
            )
        }
    };
    body.parse()
        .expect("serde_derive: generated Deserialize impl must parse")
}

/// `name` as a quoted JSON string literal, itself written as a Rust
/// string literal (`Overflow` → `"\"Overflow\""`).
fn quoted(name: &str) -> String {
    format!("{:?}", format!("\"{name}\""))
}

/// Statements writing `{"f": <value>, ...}`; `access[i]` is an
/// expression borrowing field `names[i]`.
fn ser_object(names: &[String], access: &[String]) -> String {
    let entries: String = names
        .iter()
        .zip(access)
        .map(|(f, a)| {
            format!(
                "__out.raw_key({})?; ::serde::Serialize::serialize({a}, __out)?; ",
                quoted(f)
            )
        })
        .collect();
    format!("__out.begin_object()?; {entries}__out.end_object()")
}

/// Statements writing a tuple body: a newtype writes its one field
/// bare, any other arity an array.
fn ser_tuple(access: &[String]) -> String {
    if let [only] = access {
        return format!("::serde::Serialize::serialize({only}, __out)");
    }
    let items: String = access
        .iter()
        .map(|a| format!("__out.element()?; ::serde::Serialize::serialize({a}, __out)?; "))
        .collect();
    format!("__out.begin_array()?; {items}__out.end_array()")
}

/// One match arm: unit variants print as a string, data variants as
/// a one-entry object tagged with the variant name.
fn ser_variant_arm(enum_name: &str, variant: &str, fields: &Fields) -> String {
    let (pattern, inner) = match fields {
        Fields::Unit => {
            return format!(
                "{enum_name}::{variant} => __out.raw_str({}),\n",
                quoted(variant)
            )
        }
        Fields::Named(names) => (
            format!("{{ {} }}", names.join(", ")),
            ser_object(names, names),
        ),
        Fields::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
            (format!("({})", binds.join(", ")), ser_tuple(&binds))
        }
    };
    format!(
        "{enum_name}::{variant} {pattern} => {{ __out.begin_object()?; \
         __out.raw_key({})?; {inner}?; __out.end_object() }}\n",
        quoted(variant)
    )
}

/// Expression constructing `ctor ...` (e.g. `Row ` or `StrategyKind::Pbp `)
/// from the `Value` named `src`.
fn de_fields_expr(type_name: &str, ctor: &str, fields: &Fields, src: &str) -> String {
    match fields {
        Fields::Unit => ctor.trim_end().to_string(),
        Fields::Named(names) => {
            let inits: String = names
                .iter()
                .map(|f| {
                    format!(
                        "{f}: ::serde::Deserialize::from_value(\
                         ::serde::expect_field(fields, {f:?}, {type_name:?})?)?,"
                    )
                })
                .collect();
            format!(
                "{{ let fields = ::serde::expect_object({src}, {type_name:?})?; \
                 {ctor}{{ {inits} }} }}"
            )
        }
        Fields::Tuple(1) => {
            format!(
                "{}(::serde::Deserialize::from_value({src})?)",
                ctor.trim_end()
            )
        }
        Fields::Tuple(n) => {
            let items: String = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&items[{i}])?,"))
                .collect();
            format!(
                "{{ let items = ::serde::expect_array({src}, {n}, {type_name:?})?; \
                 {}({items}) }}",
                ctor.trim_end()
            )
        }
    }
}

// ---------------------------------------------------------------------
// Token-stream parsing (no syn): just enough for the shapes above.
// ---------------------------------------------------------------------

fn parse_shape(input: TokenStream) -> Shape {
    let mut iter = input.into_iter().peekable();
    loop {
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // Attribute: consume the following [...] group.
                iter.next();
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                // Visibility, possibly pub(crate): consume optional group.
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next();
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => {
                let name = expect_ident(iter.next(), "struct name");
                return Shape::Struct {
                    name,
                    fields: parse_struct_body(&mut iter),
                };
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => {
                let name = expect_ident(iter.next(), "enum name");
                match iter.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        return Shape::Enum {
                            name,
                            variants: parse_variants(g.stream()),
                        };
                    }
                    other => panic!("serde_derive: expected enum body, found {other:?}"),
                }
            }
            Some(other) => panic!("serde_derive: unexpected token {other:?}"),
            None => panic!("serde_derive: ran out of tokens before struct/enum"),
        }
    }
}

fn expect_ident(tt: Option<TokenTree>, what: &str) -> String {
    match tt {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde_derive: expected {what}, found {other:?}"),
    }
}

fn parse_struct_body(iter: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) -> Fields {
    match iter.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Fields::Named(parse_named_fields(g.stream()))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Fields::Tuple(count_tuple_fields(g.stream()))
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            panic!("serde_derive shim does not support generic types")
        }
        other => panic!("serde_derive: expected struct body, found {other:?}"),
    }
}

/// Field names of a `{ ... }` body; skips attributes, visibility, and
/// the type after each `:` (tracking `<`/`>` depth so commas inside
/// generic arguments don't split fields; parenthesised types are opaque
/// groups, so their commas are invisible here).
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let mut fields = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        match iter.next() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next();
                    }
                }
            }
            Some(TokenTree::Ident(id)) => {
                fields.push(id.to_string());
                match iter.next() {
                    Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
                    other => panic!("serde_derive: expected ':' after field, found {other:?}"),
                }
                let mut depth = 0i64;
                for tt in iter.by_ref() {
                    if let TokenTree::Punct(p) = &tt {
                        match p.as_char() {
                            '<' => depth += 1,
                            '>' => depth -= 1,
                            ',' if depth == 0 => break,
                            _ => {}
                        }
                    }
                }
            }
            Some(other) => panic!("serde_derive: unexpected field token {other:?}"),
        }
    }
    fields
}

/// Number of fields in a `( ... )` tuple body.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut count = 0usize;
    let mut depth = 0i64;
    let mut pending = false;
    for tt in stream {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => {
                    count += 1;
                    pending = false;
                    continue;
                }
                _ => {}
            }
        }
        pending = true;
    }
    count + usize::from(pending)
}

fn parse_variants(stream: TokenStream) -> Vec<(String, Fields)> {
    let mut variants = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        match iter.next() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            Some(TokenTree::Ident(id)) => {
                let name = id.to_string();
                let fields = match iter.peek() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        let f = Fields::Named(parse_named_fields(g.stream()));
                        iter.next();
                        f
                    }
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                        let f = Fields::Tuple(count_tuple_fields(g.stream()));
                        iter.next();
                        f
                    }
                    _ => Fields::Unit,
                };
                variants.push((name, fields));
            }
            Some(other) => panic!("serde_derive: unexpected variant token {other:?}"),
        }
    }
    variants
}
