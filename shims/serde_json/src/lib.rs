//! Offline stand-in for the `serde_json` crate.
//!
//! Provides the subset of the `serde_json` 1.x API this workspace uses:
//! [`Value`] with `&str` indexing and literal comparisons, the [`json!`]
//! macro, a full JSON parser ([`from_str`] / [`from_reader`]), compact and
//! pretty printers ([`to_string`] / [`to_string_pretty`] / [`to_writer`]),
//! and one-method stand-ins for upstream `serde`'s [`Serialize`] /
//! [`Deserialize`] traits (upstream's derive macros are replaced by
//! hand-written impls at the few use sites).
//!
//! Numbers are stored as `f64`; integral values round-trip losslessly up to
//! 2^53, far beyond anything this workspace serialises. Object key order is
//! insertion order.

#![warn(missing_docs)]

mod de;
mod ser;
mod value;

pub use de::{from_reader, from_str};
pub use ser::{to_string, to_string_pretty, to_writer};
pub use value::{Number, Value};

/// Error produced by JSON (de)serialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }

    /// Build an error with a custom message, for hand-written
    /// [`Deserialize`] impls (mirrors `serde::de::Error::custom`).
    pub fn custom(msg: impl Into<String>) -> Self {
        Self::new(msg)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// A value serialisable to JSON. Mirrors `serde::Serialize` closely enough
/// for this workspace: one method producing a [`Value`] tree.
pub trait Serialize {
    /// Convert to a JSON value tree.
    fn to_json_value(&self) -> Value;
}

/// A value reconstructible from JSON. Mirrors `serde::Deserialize`.
pub trait Deserialize: Sized {
    /// Rebuild from a JSON value tree.
    fn from_json_value(value: &Value) -> Result<Self, Error>;
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_json_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

macro_rules! serialize_via_into {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::from(self.clone())
            }
        }
    )*};
}
serialize_via_into!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, String);

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

macro_rules! deserialize_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_json_value(value: &Value) -> Result<Self, Error> {
                let n = value
                    .as_f64()
                    .ok_or_else(|| Error::new(format!("expected number, got {value}")))?;
                if n.fract() != 0.0 {
                    return Err(Error::new(format!("expected integer, got {n}")));
                }
                if n < <$t>::MIN as f64 || n > <$t>::MAX as f64 {
                    return Err(Error::new(format!(
                        "integer {} out of range for {}", n, stringify!($t)
                    )));
                }
                Ok(n as $t)
            }
        }
    )*};
}
deserialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn from_json_value(value: &Value) -> Result<Self, Error> {
        value
            .as_f64()
            .ok_or_else(|| Error::new(format!("expected number, got {value}")))
    }
}

impl Deserialize for f32 {
    fn from_json_value(value: &Value) -> Result<Self, Error> {
        f64::from_json_value(value).map(|n| n as f32)
    }
}

impl Deserialize for bool {
    fn from_json_value(value: &Value) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::new(format!("expected bool, got {value}")))
    }
}

impl Deserialize for String {
    fn from_json_value(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::new(format!("expected string, got {value}")))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_json_value).collect(),
            other => Err(Error::new(format!("expected array, got {other}"))),
        }
    }
}

/// Build a [`Value`] from JSON-looking syntax: object/array literals with
/// arbitrary Rust expressions in value position.
///
/// A token-muncher in the style of upstream `serde_json`, because plain
/// `$val:expr` matchers cannot accept nested `{...}` / `[...]` literals.
#[macro_export]
macro_rules! json {
    ($($tokens:tt)+) => {
        $crate::json_internal!($($tokens)+)
    };
}

/// Implementation detail of [`json!`].
#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    //////////////////// array element munching ////////////////////
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    //////////////////// object entry munching ////////////////////
    // All entries consumed.
    (@object $object:ident () ()) => {};
    // Insert a finished entry, then continue after its comma.
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        $object.push(($crate::json_key!($($key)+), $value));
        $crate::json_internal!(@object $object () ($($rest)*));
    };
    // Insert the final entry (no trailing comma).
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        $object.push(($crate::json_key!($($key)+), $value));
    };
    // Values that are JSON keywords or nested containers.
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*)) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*)) => {
        $crate::json_internal!(
            @object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*
        );
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*)) => {
        $crate::json_internal!(
            @object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*
        );
    };
    // Values that are general expressions.
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*)) => {
        $crate::json_internal!(
            @object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*
        );
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr)) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    // Take the next key (a single token: string literal or identifier).
    (@object $object:ident () ($key:tt : $($rest:tt)*)) => {
        $crate::json_internal!(@object $object ($key) (: $($rest)*));
    };

    //////////////////// primary entry points ////////////////////
    (null) => {
        $crate::Value::Null
    };
    (true) => {
        $crate::Value::Bool(true)
    };
    (false) => {
        $crate::Value::Bool(false)
    };
    ([]) => {
        $crate::Value::Array(vec![])
    };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => {
        $crate::Value::Object(Vec::new())
    };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            #[allow(
                clippy::vec_init_then_push,
                reason = "the muncher pushes entries one at a time, which `vec![]` cannot express"
            )]
            let object = {
                let mut object: Vec<(String, $crate::Value)> = Vec::new();
                $crate::json_internal!(@object object () ($($tt)+));
                object
            };
            object
        })
    };
    // Serialize by reference (upstream does the same), so expressions that
    // name non-Copy fields are not moved out of.
    ($other:expr) => {
        $crate::Serialize::to_json_value(&$other)
    };
}

/// Implementation detail of [`json!`]: turn an object key into a `String`.
#[macro_export]
#[doc(hidden)]
macro_rules! json_key {
    ($key:expr) => {
        ($key).to_string()
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_nested_values() {
        let curve = vec![0.5f64, 0.6];
        let v = json!({
            "name": "FedAvg",
            "final_auc": { "mean": 0.6, "n": 5usize },
            "curve": curve,
            "tags": ["a", "b"],
            "ok": true,
            "none": null,
        });
        assert_eq!(v["name"], "FedAvg");
        assert_eq!(v["final_auc"]["mean"], 0.6);
        assert_eq!(v["final_auc"]["n"], 5.0);
        assert_eq!(v["curve"].as_array().unwrap().len(), 2);
        assert_eq!(v["ok"], true);
        assert_eq!(v["none"], Value::Null);
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn roundtrip_through_text() {
        let v = json!({"a": [1.0, 2.5], "b": {"c": "x \"quoted\" \n"}, "d": -3});
        let text = to_string_pretty(&v).unwrap();
        assert!(text.contains("\"a\": ["));
        let back = from_str::<Value>(&text).unwrap();
        assert_eq!(back, v);
        let compact = to_string(&v).unwrap();
        let back2 = from_str::<Value>(&compact).unwrap();
        assert_eq!(back2, v);
    }

    #[test]
    fn parser_handles_escapes_and_numbers() {
        let v = from_str::<Value>(
            r#"{"s":"tab\tunicodeA","neg":-1.5e2,"int":42,"arr":[true,false,null]}"#,
        )
        .unwrap();
        assert_eq!(v["s"], "tab\tunicodeA");
        assert_eq!(v["neg"], -150.0);
        assert_eq!(v["int"], 42.0);
        assert_eq!(v["arr"].as_array().unwrap().len(), 3);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<Value>("{\"a\":}").is_err());
        assert!(from_str::<Value>("[1,2").is_err());
        assert!(from_str::<Value>("tru").is_err());
        assert!(from_str::<Value>("{} trailing").is_err());
    }

    #[test]
    fn nesting_past_the_recursion_limit_is_an_error_not_a_stack_overflow() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str::<Value>(&nest(128)).is_ok());
        let err = from_str::<Value>(&nest(129)).unwrap_err();
        assert_eq!(err.to_string(), "recursion limit exceeded at byte 128");
        // Mixed containers count alike, and a sibling does not add depth.
        let mixed = "{\"a\":[".repeat(64) + "1,[2]" + &"]}".repeat(64);
        assert!(from_str::<Value>(&mixed).is_err());
        let mixed = "{\"a\":[".repeat(64) + "1,2" + &"]}".repeat(64);
        assert!(from_str::<Value>(&mixed).is_ok());
        for open in ["[", "{\"a\":"] {
            let err = from_str::<Value>(&open.repeat(200_000)).unwrap_err();
            assert!(
                err.to_string().contains("recursion limit exceeded"),
                "{err}"
            );
        }
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(to_string(&json!(3.0f64)).unwrap(), "3");
        assert_eq!(to_string(&json!(3.5f64)).unwrap(), "3.5");
        assert_eq!(to_string(&json!(f64::NAN)).unwrap(), "null");
    }
}
