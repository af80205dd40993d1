//! `#[derive(Serialize, Deserialize)]` for the serde shim.
//!
//! Written against the raw `proc_macro` API (no `syn`/`quote` available
//! offline). Supports what the workspace derives: non-generic structs
//! (named, tuple/newtype, unit) and enums (unit, tuple, struct variants),
//! plus the `#[serde(try_from = "T", into = "T")]` container attribute.
//! Conventions match serde_json: structs → maps, newtypes transparent,
//! enums externally tagged.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Data {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Shape {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Input {
    name: String,
    /// Raw text of `#[serde(...)]` container attributes, concatenated.
    serde_attr: String,
    data: Data,
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Input) -> String) -> TokenStream {
    let parsed = match parse(input) {
        Ok(p) => p,
        Err(msg) => return format!("compile_error!({msg:?});").parse().unwrap(),
    };
    gen(&parsed).parse().unwrap()
}

// --- parsing ---------------------------------------------------------------

fn parse(input: TokenStream) -> Result<Input, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let mut serde_attr = String::new();

    // Attributes and visibility before the item keyword.
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                    let text = g.stream().to_string();
                    if text.trim_start().starts_with("serde") {
                        serde_attr.push_str(&text);
                        serde_attr.push(' ');
                    }
                }
                i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => break,
        }
    }

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => {
            return Err(format!(
                "serde shim derive: expected struct/enum, got {other:?}"
            ))
        }
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => {
            return Err(format!(
                "serde shim derive: expected type name, got {other:?}"
            ))
        }
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "serde shim derive does not support generic type {name}"
            ));
        }
    }

    let data = match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Data::Unit,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Data::Tuple(split_top_level(g.stream()).len())
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Named(parse_named_fields(g.stream())?)
            }
            other => return Err(format!("serde shim derive: bad struct body {other:?}")),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Enum(parse_variants(g.stream())?)
            }
            other => return Err(format!("serde shim derive: bad enum body {other:?}")),
        },
        other => return Err(format!("serde shim derive: unsupported item kind {other}")),
    };

    Ok(Input {
        name,
        serde_attr,
        data,
    })
}

/// Splits a token stream at commas that are not nested inside `<...>`
/// (delimited groups are single tokens, so only angle depth matters).
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut parts: Vec<Vec<TokenTree>> = Vec::new();
    let mut current: Vec<TokenTree> = Vec::new();
    let mut angle_depth = 0i32;
    for tok in stream {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    parts.push(std::mem::take(&mut current));
                    continue;
                }
                _ => {}
            }
        }
        current.push(tok);
    }
    if !current.is_empty() {
        parts.push(current);
    }
    parts
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    for part in split_top_level(stream) {
        let mut toks = part.into_iter().peekable();
        // Skip attributes and visibility.
        loop {
            match toks.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    toks.next();
                    toks.next();
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    toks.next();
                    if let Some(TokenTree::Group(g)) = toks.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            toks.next();
                        }
                    }
                }
                _ => break,
            }
        }
        match toks.next() {
            Some(TokenTree::Ident(id)) => names.push(id.to_string()),
            None => continue, // trailing comma
            other => return Err(format!("serde shim derive: bad field {other:?}")),
        }
    }
    Ok(names)
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    for part in split_top_level(stream) {
        let mut toks = part.into_iter().peekable();
        while let Some(TokenTree::Punct(p)) = toks.peek() {
            if p.as_char() == '#' {
                toks.next();
                toks.next();
            } else {
                break;
            }
        }
        let name = match toks.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => continue, // trailing comma
            other => return Err(format!("serde shim derive: bad variant {other:?}")),
        };
        let shape = match toks.next() {
            None => Shape::Unit,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Shape::Tuple(split_top_level(g.stream()).len())
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Shape::Named(parse_named_fields(g.stream())?)
            }
            other => {
                return Err(format!(
                    "serde shim derive: unsupported variant syntax after {name}: {other:?}"
                ))
            }
        };
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

/// Extracts the quoted value of `key = "..."` from the serde attr text.
fn attr_value(attr: &str, key: &str) -> Option<String> {
    let at = attr.find(key)?;
    let rest = &attr[at + key.len()..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_string())
}

// --- codegen ---------------------------------------------------------------

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    if let Some(into_ty) = attr_value(&input.serde_attr, "into") {
        return format!(
            "impl ::serde::Serialize for {name} {{\n\
                 fn serialize(&self) -> ::serde::Value {{\n\
                     let __proxy: {into_ty} = ::core::clone::Clone::clone(self).into();\n\
                     ::serde::Serialize::serialize(&__proxy)\n\
                 }}\n\
                 fn write_json(&self, out: &mut ::std::string::String) -> ::std::result::Result<(), ::serde::Error> {{\n\
                     let __proxy: {into_ty} = ::core::clone::Clone::clone(self).into();\n\
                     ::serde::Serialize::write_json(&__proxy, out)\n\
                 }}\n\
             }}"
        );
    }
    let body = match &input.data {
        Data::Unit => "::serde::Value::Null".to_string(),
        Data::Tuple(1) => "::serde::Serialize::serialize(&self.0)".to_string(),
        Data::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::serialize(&self.{i})"))
                .collect();
            format!("::serde::Value::Seq(vec![{}])", items.join(", "))
        }
        Data::Named(fields) => {
            let items: Vec<String> = fields
                .iter()
                .map(|f| format!("({f:?}.to_string(), ::serde::Serialize::serialize(&self.{f}))"))
                .collect();
            format!("::serde::Value::Map(vec![{}])", items.join(", "))
        }
        Data::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.shape {
                        Shape::Unit => format!(
                            "{name}::{vname} => ::serde::Value::Str({vname:?}.to_string()),"
                        ),
                        Shape::Tuple(1) => format!(
                            "{name}::{vname}(__f0) => ::serde::Value::Map(vec![({vname:?}.to_string(), ::serde::Serialize::serialize(__f0))]),"
                        ),
                        Shape::Tuple(n) => {
                            let binds: Vec<String> =
                                (0..*n).map(|i| format!("__f{i}")).collect();
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::serialize({b})"))
                                .collect();
                            format!(
                                "{name}::{vname}({}) => ::serde::Value::Map(vec![({vname:?}.to_string(), ::serde::Value::Seq(vec![{}]))]),",
                                binds.join(", "),
                                items.join(", ")
                            )
                        }
                        Shape::Named(fields) => {
                            let binds = fields.join(", ");
                            let items: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "({f:?}.to_string(), ::serde::Serialize::serialize({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vname} {{ {binds} }} => ::serde::Value::Map(vec![({vname:?}.to_string(), ::serde::Value::Map(vec![{}]))]),",
                                items.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{\n{}\n}}", arms.join("\n"))
        }
    };
    let write_body = gen_write_json(input);
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self) -> ::serde::Value {{\n{body}\n}}\n\
             fn write_json(&self, out: &mut ::std::string::String) -> ::std::result::Result<(), ::serde::Error> {{\n{write_body}\n}}\n\
         }}"
    )
}

/// The body of a derived `write_json`: the compact JSON of the tree that
/// `gen_serialize`'s body builds, written field by field. Map keys are
/// identifiers, so their JSON spelling is fixed at expansion time.
fn gen_write_json(input: &Input) -> String {
    let name = &input.name;
    match &input.data {
        Data::Unit => "out.push_str(\"null\");\n::std::result::Result::Ok(())".to_string(),
        Data::Tuple(1) => "::serde::Serialize::write_json(&self.0, out)".to_string(),
        Data::Tuple(n) => {
            let fields: Vec<String> = (0..*n).map(|i| format!("&self.{i}")).collect();
            write_seq_fields("", &fields, "")
        }
        Data::Named(fields) => {
            let values: Vec<String> = fields.iter().map(|f| format!("&self.{f}")).collect();
            write_map_fields("", fields, &values, "")
        }
        Data::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    let tag = format!("{{{}", json_key(vname));
                    match &v.shape {
                        Shape::Unit => format!(
                            "{name}::{vname} => {{ out.push_str({:?}); ::std::result::Result::Ok(()) }}",
                            format!("\"{vname}\"")
                        ),
                        Shape::Tuple(1) => format!(
                            "{name}::{vname}(__f0) => {{ out.push_str({tag:?}); ::serde::Serialize::write_json(__f0, out)?; out.push('}}'); ::std::result::Result::Ok(()) }}"
                        ),
                        Shape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                            format!(
                                "{name}::{vname}({}) => {{ {} }}",
                                binds.join(", "),
                                write_seq_fields(&tag, &binds, "}")
                            )
                        }
                        Shape::Named(fields) => format!(
                            "{name}::{vname} {{ {} }} => {{ {} }}",
                            fields.join(", "),
                            write_map_fields(&tag, fields, fields, "}")
                        ),
                    }
                })
                .collect();
            format!("match self {{\n{}\n}}", arms.join("\n"))
        }
    }
}

/// `"name":` as JSON text (identifiers need no escaping).
fn json_key(name: &str) -> String {
    format!("\"{name}\":")
}

/// Writes `open`, then `[v0,v1,...]`, then `close`.
fn write_seq_fields(open: &str, values: &[String], close: &str) -> String {
    let mut code = format!("out.push_str({:?});\n", format!("{open}["));
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            code.push_str("out.push(',');\n");
        }
        code.push_str(&format!("::serde::Serialize::write_json({v}, out)?;\n"));
    }
    code.push_str(&format!("out.push_str({:?});\n", format!("]{close}")));
    code.push_str("::std::result::Result::Ok(())");
    code
}

/// Writes `open`, then `{"k0":v0,"k1":v1,...}`, then `close`.
fn write_map_fields(open: &str, keys: &[String], values: &[String], close: &str) -> String {
    let mut code = String::new();
    let mut text = format!("{open}{{");
    for (i, (k, v)) in keys.iter().zip(values).enumerate() {
        if i > 0 {
            text.push(',');
        }
        text.push_str(&json_key(k));
        code.push_str(&format!("out.push_str({text:?});\n"));
        code.push_str(&format!("::serde::Serialize::write_json({v}, out)?;\n"));
        text.clear();
    }
    text.push('}');
    text.push_str(close);
    code.push_str(&format!("out.push_str({text:?});\n"));
    code.push_str("::std::result::Result::Ok(())");
    code
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    if let Some(from_ty) = attr_value(&input.serde_attr, "try_from") {
        return format!(
            "impl ::serde::Deserialize for {name} {{\n\
                 fn deserialize(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
                     let __proxy: {from_ty} = ::serde::Deserialize::deserialize(value)?;\n\
                     <Self as ::core::convert::TryFrom<{from_ty}>>::try_from(__proxy)\n\
                         .map_err(::serde::Error::custom)\n\
                 }}\n\
             }}"
        );
    }
    let body = match &input.data {
        Data::Unit => format!("::std::result::Result::Ok({name})"),
        Data::Tuple(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(value)?))")
        }
        Data::Tuple(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::deserialize(&__seq[{i}])?"))
                .collect();
            format!(
                "let __seq = value.as_seq().ok_or_else(|| ::serde::Error::custom(\"expected sequence for {name}\"))?;\n\
                 if __seq.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::custom(\"wrong tuple length for {name}\")); }}\n\
                 ::std::result::Result::Ok({name}({}))",
                items.join(", ")
            )
        }
        Data::Named(fields) => {
            let items: Vec<String> = fields
                .iter()
                .map(|f| format!("{f}: ::serde::field(__map, {f:?})?,"))
                .collect();
            format!(
                "let __map = value.as_map().ok_or_else(|| ::serde::Error::custom(\"expected map for {name}\"))?;\n\
                 ::std::result::Result::Ok({name} {{\n{}\n}})",
                items.join("\n")
            )
        }
        Data::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.shape, Shape::Unit))
                .map(|v| {
                    let vname = &v.name;
                    format!("{vname:?} => ::std::result::Result::Ok({name}::{vname}),")
                })
                .collect();
            let keyed_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vname = &v.name;
                    match &v.shape {
                        Shape::Unit => None,
                        Shape::Tuple(1) => Some(format!(
                            "{vname:?} => ::std::result::Result::Ok({name}::{vname}(::serde::Deserialize::deserialize(__inner)?)),"
                        )),
                        Shape::Tuple(n) => {
                            let items: Vec<String> = (0..*n)
                                .map(|i| {
                                    format!("::serde::Deserialize::deserialize(&__seq[{i}])?")
                                })
                                .collect();
                            Some(format!(
                                "{vname:?} => {{\n\
                                     let __seq = __inner.as_seq().ok_or_else(|| ::serde::Error::custom(\"expected sequence for {name}::{vname}\"))?;\n\
                                     if __seq.len() != {n} {{ return ::std::result::Result::Err(::serde::Error::custom(\"wrong tuple length for {name}::{vname}\")); }}\n\
                                     ::std::result::Result::Ok({name}::{vname}({}))\n\
                                 }}",
                                items.join(", ")
                            ))
                        }
                        Shape::Named(fields) => {
                            let items: Vec<String> = fields
                                .iter()
                                .map(|f| format!("{f}: ::serde::field(__imap, {f:?})?,"))
                                .collect();
                            Some(format!(
                                "{vname:?} => {{\n\
                                     let __imap = __inner.as_map().ok_or_else(|| ::serde::Error::custom(\"expected map for {name}::{vname}\"))?;\n\
                                     ::std::result::Result::Ok({name}::{vname} {{\n{}\n}})\n\
                                 }}",
                                items.join("\n")
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "match value {{\n\
                     ::serde::Value::Str(__s) => match __s.as_str() {{\n\
                         {}\n\
                         __other => ::std::result::Result::Err(::serde::Error::custom(format!(\"unknown variant {{__other:?}} of {name}\"))),\n\
                     }},\n\
                     ::serde::Value::Map(__m) if __m.len() == 1 => {{\n\
                         let (__key, __inner) = &__m[0];\n\
                         match __key.as_str() {{\n\
                             {}\n\
                             __other => ::std::result::Result::Err(::serde::Error::custom(format!(\"unknown variant {{__other:?}} of {name}\"))),\n\
                         }}\n\
                     }}\n\
                     __other => ::std::result::Result::Err(::serde::Error::custom(format!(\"expected variant of {name}, got {{}}\", __other.kind()))),\n\
                 }}",
                unit_arms.join("\n"),
                keyed_arms.join("\n")
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn deserialize(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}"
    )
}
