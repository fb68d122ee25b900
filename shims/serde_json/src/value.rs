//! The JSON value tree.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A JSON number. Stored as `f64`; integral values format without a
/// fractional part, matching how this workspace's documents look on disk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Number(pub(crate) f64);

impl Number {
    /// The value as `f64`.
    pub fn as_f64(&self) -> f64 {
        self.0
    }
}

/// A parsed or constructed JSON value.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Value {
    /// `null`.
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion-ordered key/value pairs.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Borrow as array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Mutably borrow as array elements.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Borrow as object entries.
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// Borrow as string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.0),
            _ => None,
        }
    }

    /// Non-negative integral number as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if n.0.fract() == 0.0 && n.0 >= 0.0 && n.0 <= u64::MAX as f64 => {
                Some(n.0 as u64)
            }
            _ => None,
        }
    }

    /// Boolean value.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object field lookup; `None` when absent or not an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

impl Index<&str> for Value {
    type Output = Value;

    /// Field access; missing keys and non-objects index to `Null`, like
    /// upstream `serde_json`.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => a.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl IndexMut<&str> for Value {
    /// Field write access. Like upstream `serde_json`, indexing `Null`
    /// with a key turns it into an object, and a missing key is inserted
    /// as `Null`; indexing any other non-object panics.
    fn index_mut(&mut self, key: &str) -> &mut Value {
        if let Value::Null = self {
            *self = Value::Object(Vec::new());
        }
        match self {
            Value::Object(entries) => {
                if let Some(at) = entries.iter().position(|(k, _)| k == key) {
                    &mut entries[at].1
                } else {
                    entries.push((key.to_owned(), Value::Null));
                    &mut entries.last_mut().expect("just pushed").1
                }
            }
            other => panic!("cannot index {other:?} with a string key"),
        }
    }
}

impl IndexMut<usize> for Value {
    /// Element write access; panics when out of bounds or not an array,
    /// like upstream `serde_json`.
    fn index_mut(&mut self, idx: usize) -> &mut Value {
        match self {
            Value::Array(a) => &mut a[idx],
            other => panic!("cannot index {other:?} with a usize"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::ser::to_string(self).map_err(|_| fmt::Error)?)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::String(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::String(s)
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Self {
        Value::String(s.clone())
    }
}

macro_rules! value_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Self {
                Value::Number(Number(n as f64))
            }
        }
    )*};
}
value_from_number!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

impl PartialEq<&str> for Value {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<str> for Value {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<String> for Value {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<bool> for Value {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! value_eq_number {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Value {
            fn eq(&self, other: &$t) -> bool {
                self.as_f64() == Some(*other as f64)
            }
        }
        impl PartialEq<Value> for $t {
            fn eq(&self, other: &Value) -> bool {
                other.as_f64() == Some(*self as f64)
            }
        }
    )*};
}
value_eq_number!(u32, u64, usize, i32, i64, f32, f64);
