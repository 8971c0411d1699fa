//! The one JSON writer: the telemetry export, sweep rows and the
//! `sweep --telemetry` file are all written through it, so they share
//! one format. Output is compact (no whitespace), `None` is `null`,
//! and a float that is not finite is written as `0`, the
//! least-surprising valid JSON. There is no reader.
//!
//! ```
//! use noc_sim::json::{self, Value};
//!
//! let doc = json::object(|o| {
//!     o.field("load", 0.05).field("p99", None::<u64>);
//!     o.array("series", |a| {
//!         a.item(Value::Fixed(1.0 / 3.0, 3)).item(f64::NAN);
//!     });
//! });
//! assert_eq!(doc, r#"{"load":0.05,"p99":null,"series":[0.333,0]}"#);
//! ```

use std::fmt::{self, Write as _};

/// One scalar JSON value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer.
    Int(u64),
    /// A float in the shortest text that reads back as the same value.
    Float(f64),
    /// A float with this many digits after the decimal point.
    Fixed(f64, usize),
    /// A string, escaped.
    Str(&'a str),
    /// An already rendered JSON document, written as it is.
    Raw(&'a str),
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Float(x) if x.is_finite() => write!(f, "{x}"),
            Value::Fixed(x, digits) if x.is_finite() => write!(f, "{x:.digits$}"),
            Value::Float(_) | Value::Fixed(..) => f.write_char('0'),
            Value::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' | '\\' => write!(f, "\\{c}")?,
                        c if c < ' ' => write!(f, "\\u{:04x}", u32::from(c))?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Value::Raw(doc) => f.write_str(doc),
        }
    }
}

macro_rules! value_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value<'_> {
            fn from(x: $t) -> Self {
                Value::$variant(x as _)
            }
        }
    )*};
}
value_from!(bool => Bool, u32 => Int, u64 => Int, usize => Int, f64 => Float);

impl<'a> From<&'a str> for Value<'a> {
    fn from(s: &'a str) -> Self {
        Value::Str(s)
    }
}

impl<'a, T: Into<Value<'a>>> From<Option<T>> for Value<'a> {
    fn from(x: Option<T>) -> Self {
        x.map_or(Value::Null, Into::into)
    }
}

/// The members of one JSON object, written in call order.
#[derive(Debug)]
pub struct Object<'a>(Members<'a>);

/// The elements of one JSON array, written in call order.
#[derive(Debug)]
pub struct Array<'a>(Members<'a>);

/// Comma placement shared by objects and arrays.
#[derive(Debug)]
struct Members<'a> {
    out: &'a mut String,
    empty: bool,
}

impl Members<'_> {
    /// Starts the next member: a comma unless it is the first.
    fn next(&mut self) -> &mut String {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        self.out
    }
}

fn put(out: &mut String, value: Value<'_>) {
    write!(out, "{value}").expect("writing to a String cannot fail");
}

fn object_into(out: &mut String, body: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    body(&mut Object(Members { out, empty: true }));
    out.push('}');
}

fn array_into(out: &mut String, body: impl FnOnce(&mut Array<'_>)) {
    out.push('[');
    body(&mut Array(Members { out, empty: true }));
    out.push(']');
}

/// Renders the object `body` writes.
#[must_use]
pub fn object(body: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    object_into(&mut out, body);
    out
}

/// Renders the array `body` writes.
#[must_use]
pub fn array(body: impl FnOnce(&mut Array<'_>)) -> String {
    let mut out = String::new();
    array_into(&mut out, body);
    out
}

impl Object<'_> {
    /// Starts member `name` and returns the buffer its value goes to.
    fn key(&mut self, name: &str) -> &mut String {
        let out = self.0.next();
        put(out, Value::Str(name));
        out.push(':');
        out
    }

    /// Writes member `name` with a scalar value.
    pub fn field<'v>(&mut self, name: &str, value: impl Into<Value<'v>>) -> &mut Self {
        put(self.key(name), value.into());
        self
    }

    /// Writes member `name` with the object `body` writes.
    pub fn object(&mut self, name: &str, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        object_into(self.key(name), body);
        self
    }

    /// Writes member `name` with the array `body` writes.
    pub fn array(&mut self, name: &str, body: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        array_into(self.key(name), body);
        self
    }
}

impl Array<'_> {
    /// Appends a scalar.
    pub fn item<'v>(&mut self, value: impl Into<Value<'v>>) -> &mut Self {
        put(self.0.next(), value.into());
        self
    }

    /// Appends the object `body` writes.
    pub fn object(&mut self, body: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        object_into(self.0.next(), body);
        self
    }

    /// Appends the array `body` writes.
    pub fn array(&mut self, body: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        array_into(self.0.next(), body);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_digits_null_and_the_non_finite_rule() {
        let doc = object(|o| {
            o.field("fixed", Value::Fixed(0.5, 6))
                .field("rounded", Value::Fixed(2.0 / 3.0, 3))
                .field("integral", Value::Fixed(16.0, 1))
                .field("shortest", 0.1 + 0.2)
                .field("whole", 3.0)
                .field("nan", Value::Fixed(f64::NAN, 6))
                .field("inf", f64::INFINITY)
                .field("none", None::<f64>)
                .field("some", Some(7_u64))
                .field("text", "a\"b\\c\n")
                .field("flag", false)
                .object("empty", |_| {});
            o.array("nested", |a| {
                a.item(1_u32).array(|inner| {
                    inner.item(Value::Raw("{\"x\":1}"));
                });
            });
        });
        assert_eq!(
            doc,
            concat!(
                r#"{"fixed":0.500000,"rounded":0.667,"integral":16.0,"#,
                r#""shortest":0.30000000000000004,"whole":3,"nan":0,"inf":0,"#,
                r#""none":null,"some":7,"text":"a\"b\\c\u000a","flag":false,"#,
                r#""empty":{},"nested":[1,[{"x":1}]]}"#
            )
        );
        assert_eq!(array(|_| {}), "[]");
    }
}
