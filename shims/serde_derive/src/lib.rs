//! Offline stand-in for the real `serde_derive` (see `shims/README.md`).
//!
//! Generates `serde::Serialize` impls that stream straight into the
//! shim's `serde::Writer`, and `serde::Deserialize` impls that read
//! each field straight from the shim's `serde::Deserializer` cursor
//! into a local. Supports exactly the shapes this workspace
//! derives on: named-field structs, tuple structs, unit structs, and
//! enums with unit / named-field / tuple variants, without type
//! parameters (a `Serialize` type may have lifetime parameters, e.g. a
//! view over borrowed payloads). No `#[serde(...)]` attributes (none
//! are used in-tree).

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// A field list. Types are kept as source text so the generated
/// `Deserialize` can name each field's impl.
enum Fields {
    Unit,
    /// `(name, type)` per field.
    Named(Vec<(String, String)>),
    /// The type of each field.
    Tuple(Vec<String>),
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
    let (shape, generics) = parse_shape(input);
    let (name, body) = match &shape {
        Shape::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => "__out.null()".to_string(),
                Fields::Named(fields) => {
                    let names = field_names(fields);
                    let access: Vec<String> = names.iter().map(|f| format!("&self.{f}")).collect();
                    ser_object(&names, &access)
                }
                Fields::Tuple(types) => {
                    let access: Vec<String> =
                        (0..types.len()).map(|i| format!("&self.{i}")).collect();
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
        "impl{generics} ::serde::Serialize for {name}{generics} {{\n\
         fn serialize<__W: ::std::io::Write>(&self, __out: &mut ::serde::Writer<__W>) \
         -> ::std::io::Result<()> {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("serde_derive: generated Serialize impl must parse")
}

/// Derives `serde::Deserialize`: a `deserialize` body that reads each
/// field straight from the `serde::Deserializer` into an `Option`
/// local, in input order, then assembles the value in declaration
/// order — so a missing field or a bad value is reported for the first
/// field in declaration order, as a walk of a parsed tree would.
///
/// Unknown keys are skipped and, for a repeated key, the first
/// occurrence wins. Unit variants are bare strings and data variants
/// one-entry objects.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let (shape, generics) = parse_shape(input);
    assert!(
        generics.is_empty(),
        "serde_derive shim derives Deserialize only for types without parameters"
    );
    let (name, body) = match &shape {
        Shape::Struct { name, fields } => (name, de_fields(name, name, fields)),
        Shape::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|(v, fields)| match fields {
                    Fields::Unit => format!(
                        "{v:?} => {{ if __tagged {{ __de.skip_value()?; }} \
                         ::std::result::Result::Ok({name}::{v}) }}\n"
                    ),
                    _ => format!(
                        "{v:?} if __tagged => {{ {} }}\n",
                        de_fields(name, &format!("{name}::{v}"), fields)
                    ),
                })
                .collect();
            let body = format!(
                "__de.variant({name:?}, |__de, __tag, __tagged| match __tag {{\n\
                 {arms}\
                 __other => ::std::result::Result::Err(\
                 ::serde::DeError::unknown_variant(__other, {name:?})),\n\
                 }})"
            );
            (name, body)
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize(__de: &mut ::serde::Deserializer<'_>) \
         -> ::std::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}"
    )
    .parse()
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
        Fields::Named(fields) => {
            let names = field_names(fields);
            (
                format!("{{ {} }}", names.join(", ")),
                ser_object(&names, &names),
            )
        }
        Fields::Tuple(types) => {
            let binds: Vec<String> = (0..types.len()).map(|i| format!("f{i}")).collect();
            (format!("({})", binds.join(", ")), ser_tuple(&binds))
        }
    };
    format!(
        "{enum_name}::{variant} {pattern} => {{ __out.begin_object()?; \
         __out.raw_key({})?; {inner}?; __out.end_object() }}\n",
        quoted(variant)
    )
}

/// A block evaluating to `Result<_, DeError>` that reads `ctor ...`
/// (e.g. `Row` or `StrategyKind::Pbp`) from the cursor `__de`;
/// `type_name` names the type in error messages.
fn de_fields(type_name: &str, ctor: &str, fields: &Fields) -> String {
    let ok = "::std::result::Result::Ok";
    match fields {
        // A unit struct accepts any value, like a field it ignores.
        Fields::Unit => format!("__de.skip_value()?; {ok}({ctor})"),
        Fields::Tuple(types) if types.len() == 1 => {
            format!(
                "{ok}({ctor}(<{} as ::serde::Deserialize>::deserialize(__de)?))",
                types[0]
            )
        }
        Fields::Tuple(types) => {
            let n = types.len();
            let reads: String = (0..n)
                .map(|i| format!("{i} => __f{i} = {},\n", de_slot_read(&types[i])))
                .collect();
            let takes: String = (0..n)
                .map(|i| format!("::serde::take(__f{i}, __mismatch)?, "))
                .collect();
            format!(
                "{slots}\
                 let mut __len = 0usize;\n\
                 let __is_array = __de.array(|__de| {{\n\
                 match __len {{ {reads} _ => __de.skip_value()?, }}\n\
                 __len += 1;\n\
                 {ok}(())\n\
                 }})?;\n\
                 let __mismatch = || ::serde::DeError::expected_elements({n}, {type_name:?});\n\
                 if !__is_array || __len != {n} {{\n\
                 return ::std::result::Result::Err(__mismatch());\n\
                 }}\n\
                 {ok}({ctor}({takes}))",
                slots = de_slots(types),
            )
        }
        Fields::Named(fields) => {
            let types: Vec<String> = fields.iter().map(|(_, ty)| ty.clone()).collect();
            let reads: String = fields
                .iter()
                .enumerate()
                .map(|(i, (f, ty))| {
                    format!(
                        "{f:?} if __f{i}.is_none() => __f{i} = {},\n",
                        de_slot_read(ty)
                    )
                })
                .collect();
            let takes: String = fields
                .iter()
                .enumerate()
                .map(|(i, (f, _))| {
                    format!(
                        "{f}: ::serde::take(__f{i}, || \
                         ::serde::DeError::missing_field({f:?}, {type_name:?}))?, "
                    )
                })
                .collect();
            format!(
                "{slots}\
                 if !__de.object(|__de, __key| {{\n\
                 match __key {{ {reads} _ => __de.skip_value()?, }}\n\
                 {ok}(())\n\
                 }})? {{\n\
                 return ::std::result::Result::Err(\
                 ::serde::DeError::expected_object({type_name:?}));\n\
                 }}\n\
                 {ok}({ctor} {{ {takes} }})",
                slots = de_slots(&types),
            )
        }
    }
}

/// `let` statements declaring one empty slot `__f{i}` per field type.
fn de_slots(types: &[String]) -> String {
    types
        .iter()
        .enumerate()
        .map(|(i, ty)| {
            format!(
                "let mut __f{i}: ::std::option::Option<\
                 ::std::result::Result<{ty}, ::serde::DeError>> = \
                 ::std::option::Option::None;\n"
            )
        })
        .collect()
}

/// The expression filling a slot of type `ty` from the cursor: the
/// value, or its read error once the value has been skipped.
fn de_slot_read(ty: &str) -> String {
    format!(
        "::std::option::Option::Some(\
         __de.attempt(<{ty} as ::serde::Deserialize>::deserialize)?)"
    )
}

fn field_names(fields: &[(String, String)]) -> Vec<String> {
    fields.iter().map(|(name, _)| name.clone()).collect()
}

// ---------------------------------------------------------------------
// Token-stream parsing (no syn): just enough for the shapes above.
// ---------------------------------------------------------------------

/// The item's shape and its generic parameter list (`<'a>`, or empty).
fn parse_shape(input: TokenStream) -> (Shape, String) {
    let mut iter = input.into_iter().peekable();
    loop {
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // Attribute: consume the following [...] group.
                iter.next();
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => skip_restriction(&mut iter),
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => {
                let name = expect_ident(iter.next(), "struct name");
                let generics = parse_lifetimes(&mut iter);
                let fields = parse_struct_body(&mut iter);
                return (Shape::Struct { name, fields }, generics);
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" => {
                let name = expect_ident(iter.next(), "enum name");
                let generics = parse_lifetimes(&mut iter);
                match iter.next() {
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                        let variants = parse_variants(g.stream());
                        return (Shape::Enum { name, variants }, generics);
                    }
                    other => panic!("serde_derive: expected enum body, found {other:?}"),
                }
            }
            Some(other) => panic!("serde_derive: unexpected token {other:?}"),
            None => panic!("serde_derive: ran out of tokens before struct/enum"),
        }
    }
}

/// A `<...>` parameter list of lifetimes only (e.g. `<'a>`), or an
/// empty string if the item has none.
fn parse_lifetimes(iter: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) -> String {
    if !matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return String::new();
    }
    iter.next();
    let params: TokenStream = iter
        .by_ref()
        .take_while(|tt| !matches!(tt, TokenTree::Punct(p) if p.as_char() == '>'))
        .collect();
    let params = params.to_string();
    let lifetime = |p: &str| {
        p.trim()
            .strip_prefix('\'')
            .is_some_and(|id| !id.is_empty() && id.chars().all(|c| c.is_alphanumeric() || c == '_'))
    };
    assert!(
        params.split(',').all(lifetime),
        "serde_derive shim supports lifetime parameters only, found <{params}>"
    );
    format!("<{params}>")
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
            Fields::Tuple(tuple_field_types(g.stream()))
        }
        Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
        other => panic!("serde_derive: expected struct body, found {other:?}"),
    }
}

/// `(name, type)` of each field of a `{ ... }` body; skips attributes
/// and visibility.
fn parse_named_fields(stream: TokenStream) -> Vec<(String, String)> {
    let mut fields = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        match iter.next() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => skip_restriction(&mut iter),
            Some(TokenTree::Ident(id)) => {
                match iter.next() {
                    Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
                    other => panic!("serde_derive: expected ':' after field, found {other:?}"),
                }
                fields.push((id.to_string(), take_type(&mut iter)));
            }
            Some(other) => panic!("serde_derive: unexpected field token {other:?}"),
        }
    }
    fields
}

/// The type of each field of a `( ... )` tuple body.
fn tuple_field_types(stream: TokenStream) -> Vec<String> {
    let mut types = Vec::new();
    let mut iter = stream.into_iter().peekable();
    loop {
        match iter.peek() {
            None => break,
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next();
                iter.next();
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                iter.next();
                skip_restriction(&mut iter);
            }
            Some(_) => types.push(take_type(&mut iter)),
        }
    }
    types
}

/// Skips the `(crate)`-style restriction after `pub`, if any.
fn skip_restriction(iter: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    if let Some(TokenTree::Group(g)) = iter.peek() {
        if g.delimiter() == Delimiter::Parenthesis {
            iter.next();
        }
    }
}

/// Consumes a type up to the next top-level `,` (or the end) and
/// returns its source text. `<`/`>` depth is tracked so commas inside
/// generic arguments don't split it; parenthesised types are opaque
/// groups, so their commas are invisible here.
fn take_type(iter: &mut impl Iterator<Item = TokenTree>) -> String {
    let mut ty = Vec::new();
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
        ty.push(tt);
    }
    ty.into_iter().collect::<TokenStream>().to_string()
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
                        let f = Fields::Tuple(tuple_field_types(g.stream()));
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
