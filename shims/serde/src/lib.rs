//! Offline stand-in for `serde`.
//!
//! Instead of serde's visitor architecture, serialization goes through an
//! owned [`Value`] tree: `Serialize` renders a value into the tree and
//! `Deserialize` reads one back out. The `serde_json` shim prints and
//! parses that tree. The derive macros (re-exported from the
//! `serde_derive` shim) generate impls against these traits, using
//! serde_json's conventions: structs become maps, newtypes are
//! transparent, enums are externally tagged.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing data tree — the interchange format between
/// `Serialize`, `Deserialize`, and the `serde_json` shim.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Seq(Vec<Value>),
    /// Insertion-ordered map (JSON object).
    Map(Vec<(String, Value)>),
}

impl Value {
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A short name of the variant, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
        }
    }
}

/// Serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    pub fn custom(message: impl fmt::Display) -> Self {
        Error(message.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Renders `self` into a [`Value`] tree.
pub trait Serialize {
    fn serialize(&self) -> Value;

    /// Appends `self` to `out` as compact JSON: the same text as
    /// [`json::write_value`] prints for [`Serialize::serialize`]'s tree,
    /// without building the tree. The default builds it.
    ///
    /// # Errors
    ///
    /// A non-finite float (JSON has no spelling for it); `out` then holds
    /// a partial rendering.
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        json::write_value(out, &self.serialize(), None, 0)
    }
}

pub mod json {
    //! The JSON writer: prints a [`Value`] tree, and the scalars that the
    //! [`Serialize::write_json`] impls print without a tree, so both
    //! paths spell every value the same way.

    use std::fmt::Write as _;

    use crate::{Error, Value};

    /// Appends `value` to `out`: compact for `indent: None`, otherwise
    /// pretty with `indent` spaces per nesting `level`.
    ///
    /// # Errors
    ///
    /// A non-finite float anywhere in the tree.
    pub fn write_value(
        out: &mut String,
        value: &Value,
        indent: Option<usize>,
        level: usize,
    ) -> Result<(), Error> {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => write_bool(out, *b),
            Value::I64(n) => write_i64(out, *n),
            Value::U64(n) => write_u64(out, *n),
            Value::F64(f) => write_f64(out, *f)?,
            Value::Str(s) => write_str(out, s),
            Value::Seq(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_break(out, indent, level + 1);
                    write_value(out, item, indent, level + 1)?;
                }
                if !items.is_empty() {
                    write_break(out, indent, level);
                }
                out.push(']');
            }
            Value::Map(entries) => {
                out.push('{');
                for (i, (key, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_break(out, indent, level + 1);
                    write_str(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, item, indent, level + 1)?;
                }
                if !entries.is_empty() {
                    write_break(out, indent, level);
                }
                out.push('}');
            }
        }
        Ok(())
    }

    fn write_break(out: &mut String, indent: Option<usize>, level: usize) {
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * level));
        }
    }

    pub fn write_bool(out: &mut String, b: bool) {
        out.push_str(if b { "true" } else { "false" });
    }

    pub fn write_u64(out: &mut String, n: u64) {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{n}");
    }

    pub fn write_i64(out: &mut String, n: i64) {
        let _ = write!(out, "{n}");
    }

    /// # Errors
    ///
    /// `f` is NaN or infinite.
    pub fn write_f64(out: &mut String, f: f64) -> Result<(), Error> {
        if !f.is_finite() {
            return Err(Error::custom("JSON cannot represent non-finite numbers"));
        }
        // Rust's Display for f64 is the shortest round-trip decimal and
        // never uses exponent notation, which is valid JSON.
        if f.fract() == 0.0 && f.abs() < 1e15 {
            // Keep a marker so the value re-parses as a float-typed
            // number, matching serde_json's "1.0" output. This is the
            // text of `{f:.1}` (sign of -0.0 included), printed as an
            // integer: exact below 1e15, and several times cheaper.
            if f.is_sign_negative() {
                out.push('-');
            }
            write_u64(out, f.abs() as u64);
            out.push_str(".0");
        } else {
            let _ = write!(out, "{f}");
        }
        Ok(())
    }

    /// Appends `s` as a quoted, escaped JSON string.
    pub fn write_str(out: &mut String, s: &str) {
        out.push('"');
        let mut plain = 0;
        for (i, c) in s.char_indices() {
            let escape = match c {
                '"' => "\\\"",
                '\\' => "\\\\",
                '\n' => "\\n",
                '\r' => "\\r",
                '\t' => "\\t",
                c if (c as u32) < 0x20 => "",
                _ => continue,
            };
            out.push_str(&s[plain..i]);
            if escape.is_empty() {
                let _ = write!(out, "\\u{:04x}", c as u32);
            } else {
                out.push_str(escape);
            }
            plain = i + c.len_utf8();
        }
        out.push_str(&s[plain..]);
        out.push('"');
    }

    /// Appends the items of `items` as a JSON array.
    ///
    /// # Errors
    ///
    /// The first item that fails.
    pub fn write_seq<'a, T: crate::Serialize + 'a>(
        out: &mut String,
        items: impl IntoIterator<Item = &'a T>,
    ) -> Result<(), Error> {
        out.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out)?;
        }
        out.push(']');
        Ok(())
    }

    /// Appends `(key, value)` pairs as a JSON object, in the given order.
    ///
    /// # Errors
    ///
    /// The first value that fails.
    pub fn write_map<'a, V: crate::Serialize + 'a>(
        out: &mut String,
        entries: impl IntoIterator<Item = (&'a String, &'a V)>,
    ) -> Result<(), Error> {
        out.push('{');
        for (i, (key, value)) in entries.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(out, key);
            out.push(':');
            value.write_json(out)?;
        }
        out.push('}');
        Ok(())
    }
}

/// Rebuilds `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn deserialize(value: &Value) -> Result<Self, Error>;

    /// What a missing struct field deserializes to (`None` = required).
    /// Overridden by `Option<T>` so optional fields may be omitted.
    fn deserialize_missing() -> Option<Self> {
        None
    }
}

pub mod de {
    //! Mirror of `serde::de` for the one import the repo uses.
    pub use crate::Deserialize as DeserializeOwned;
}

/// Looks up struct field `name` in a map and deserializes it; used by
/// derived `Deserialize` impls.
pub fn field<T: Deserialize>(map: &[(String, Value)], name: &str) -> Result<T, Error> {
    match map.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::deserialize(v),
        None => {
            T::deserialize_missing().ok_or_else(|| Error::custom(format!("missing field {name:?}")))
        }
    }
}

// --- primitive impls --------------------------------------------------------

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        json::write_bool(out, *self);
        Ok(())
    }
}

impl Deserialize for bool {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::U64(*self as u64)
            }

            fn write_json(&self, out: &mut String) -> Result<(), Error> {
                json::write_u64(out, *self as u64);
                Ok(())
            }
        }
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let n = match value {
                    Value::U64(n) => *n,
                    Value::I64(n) if *n >= 0 => *n as u64,
                    other => {
                        return Err(Error::custom(format!(
                            "expected unsigned integer, got {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::custom(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::I64(*self as i64)
            }

            fn write_json(&self, out: &mut String) -> Result<(), Error> {
                json::write_i64(out, *self as i64);
                Ok(())
            }
        }
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                let n = match value {
                    Value::I64(n) => *n,
                    Value::U64(n) => i64::try_from(*n)
                        .map_err(|_| Error::custom(format!("{n} out of i64 range")))?,
                    other => {
                        return Err(Error::custom(format!(
                            "expected integer, got {}",
                            other.kind()
                        )))
                    }
                };
                <$t>::try_from(n)
                    .map_err(|_| Error::custom(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::F64(*self as f64)
            }

            fn write_json(&self, out: &mut String) -> Result<(), Error> {
                json::write_f64(out, *self as f64)
            }
        }
        impl Deserialize for $t {
            fn deserialize(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::F64(f) => Ok(*f as $t),
                    Value::I64(n) => Ok(*n as $t),
                    Value::U64(n) => Ok(*n as $t),
                    other => Err(Error::custom(format!(
                        "expected number, got {}",
                        other.kind()
                    ))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::Str(self.clone())
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        json::write_str(out, self);
        Ok(())
    }
}

impl Deserialize for String {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::custom(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        json::write_str(out, self);
        Ok(())
    }
}

impl Serialize for char {
    fn serialize(&self) -> Value {
        Value::Str(self.to_string())
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        json::write_str(out, self.encode_utf8(&mut [0; 4]));
        Ok(())
    }
}

impl Deserialize for char {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let s = value
            .as_str()
            .ok_or_else(|| Error::custom("expected single-char string"))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-char string")),
        }
    }
}

// --- composite impls --------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        (**self).write_json(out)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        (**self).write_json(out)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        T::deserialize(value).map(Box::new)
    }
}

/// `Arc<T>` is transparent on the wire, exactly like real serde: an
/// `Arc<Notification>` serializes identically to the `Notification`
/// inside, so receivers may deserialize either shape.
impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        (**self).write_json(out)
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        T::deserialize(value).map(std::sync::Arc::new)
    }
}

/// `Arc<[T]>` round-trips as a plain sequence (the blanket `Arc<T>`
/// impl above only covers sized pointees).
impl<T: Deserialize> Deserialize for std::sync::Arc<[T]> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Vec::<T>::deserialize(value).map(Into::into)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Null,
        }
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        match self {
            Some(v) => v.write_json(out),
            None => {
                out.push_str("null");
                Ok(())
            }
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }

    fn deserialize_missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        json::write_seq(out, self)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_seq()
            .ok_or_else(|| Error::custom(format!("expected sequence, got {}", value.kind())))?
            .iter()
            .map(T::deserialize)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        json::write_seq(out, self)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self) -> Value {
        Value::Seq(vec![self.0.serialize(), self.1.serialize()])
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        out.push('[');
        self.0.write_json(out)?;
        out.push(',');
        self.1.write_json(out)?;
        out.push(']');
        Ok(())
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value.as_seq() {
            Some([a, b]) => Ok((A::deserialize(a)?, B::deserialize(b)?)),
            _ => Err(Error::custom("expected 2-element sequence")),
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize(&self) -> Value {
        Value::Seq(vec![
            self.0.serialize(),
            self.1.serialize(),
            self.2.serialize(),
        ])
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        out.push('[');
        self.0.write_json(out)?;
        out.push(',');
        self.1.write_json(out)?;
        out.push(',');
        self.2.write_json(out)?;
        out.push(']');
        Ok(())
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        match value.as_seq() {
            Some([a, b, c]) => Ok((A::deserialize(a)?, B::deserialize(b)?, C::deserialize(c)?)),
            _ => Err(Error::custom("expected 3-element sequence")),
        }
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.serialize()))
                .collect(),
        )
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        json::write_map(out, self)
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_map()
            .ok_or_else(|| Error::custom(format!("expected map, got {}", value.kind())))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::deserialize(v)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn serialize(&self) -> Value {
        // Sorted for stable output, as serde_json users usually rely on
        // with BTreeMap; HashMap order would be nondeterministic.
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.clone(), v.serialize()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        json::write_map(out, entries)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        value
            .as_map()
            .ok_or_else(|| Error::custom(format!("expected map, got {}", value.kind())))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::deserialize(v)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }

    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        json::write_value(out, self, None, 0)
    }
}

impl Deserialize for Value {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::json::write_f64;

    #[test]
    fn integral_floats_print_as_precision_one() {
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            330.0,
            1e15 - 1.0,
            -(1e15 - 1.0),
            4503599627370496.0,
        ];
        let mut n = 1u64;
        while n < 1_000_000_000_000_000 {
            values.extend([n as f64, -(n as f64), (n * 7 + 3) as f64]);
            n *= 3;
        }
        for f in values.into_iter().filter(|f| f.abs() < 1e15) {
            let mut out = String::new();
            write_f64(&mut out, f).unwrap();
            assert_eq!(out, format!("{f:.1}"));
        }
    }
}
