//! Offline stand-in for the subset of [`serde_json`](https://crates.io/crates/serde_json)
//! used by this workspace: [`to_string`], [`to_string_pretty`], [`from_str`]
//! and [`from_value`], implemented over an owned [`Value`] tree and the
//! workspace `serde` shim's traits.
//!
//! Numbers are represented as `f64` throughout (ample for this workspace,
//! which serializes table strings, coordinates and small counts); there is no
//! zero-copy deserialization and no streaming.

#![forbid(unsafe_code)]

mod read;
mod value;
mod write;

use serde::{Deserialize, Serialize};

pub use value::Value;

/// Errors produced while serializing to or deserializing from JSON.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Self::new(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: std::fmt::Display>(msg: T) -> Self {
        Self::new(msg.to_string())
    }
}

/// A specialized `Result` for JSON operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    let v = value::to_value(value)?;
    Ok(write::write(&v, None))
}

/// Serializes `value` to a two-space-indented JSON string.
pub fn to_string_pretty<T: ?Sized + Serialize>(value: &T) -> Result<String> {
    let v = value::to_value(value)?;
    Ok(write::write(&v, Some(2)))
}

/// Deserializes a value from a JSON string.
pub fn from_str<'de, T: Deserialize<'de>>(s: &str) -> Result<T> {
    let v = read::parse(s)?;
    T::deserialize(value::ValueDeserializer(v))
}

/// Deserializes a value from an already parsed [`Value`] tree, consuming
/// it — so a document parsed once (say, to read a discriminating key) need
/// not be parsed again. The real crate bounds `T` by `DeserializeOwned`,
/// which is this bound.
pub fn from_value<T: for<'de> Deserialize<'de>>(value: Value) -> Result<T> {
    T::deserialize(value::ValueDeserializer(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string("hi\n\"there\"").unwrap(), r#""hi\n\"there\"""#);
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("2.5e3").unwrap(), 2500.0);
        assert_eq!(from_str::<String>(r#""aAb""#).unwrap(), "aAb");
        assert!(!from_str::<bool>("false").unwrap());
    }

    #[test]
    fn vectors_round_trip() {
        let v = vec![vec![1.0f64, 2.5], vec![], vec![-3.0]];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[1,2.5],[],[-3]]");
        let back: Vec<Vec<f64>> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn options_and_tuples_round_trip() {
        assert_eq!(to_string(&Option::<u32>::None).unwrap(), "null");
        assert_eq!(to_string(&Some(3u32)).unwrap(), "3");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("3").unwrap(), Some(3));
        let pair: (usize, f64) = from_str("[4, 0.5]").unwrap();
        assert_eq!(pair, (4, 0.5));
        assert_eq!(to_string(&(4usize, 0.5f64)).unwrap(), "[4,0.5]");
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = vec![1u32, 2];
        assert_eq!(to_string_pretty(&v).unwrap(), "[\n  1,\n  2\n]");
    }

    #[test]
    fn float_precision_round_trips() {
        for &x in &[
            0.1f64,
            1.0 / 3.0,
            1e-300,
            123_456_789.123_456_79,
            f64::MIN_POSITIVE,
        ] {
            let back: f64 = from_str(&to_string(&x).unwrap()).unwrap();
            assert_eq!(back, x);
        }
    }

    #[test]
    fn documents_parse_to_a_value_tree() {
        let v: Value =
            from_str(r#"{"session":{"name":"s1"},"n":3,"ok":true,"xs":[1,null]}"#).unwrap();
        let Value::Object(entries) = &v else {
            panic!("expected object, got {v:?}");
        };
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[0].0, "session");
        assert!(matches!(&entries[0].1, Value::Object(inner) if inner[0].0 == "name"));
        assert_eq!(entries[1].1, Value::Number(3.0));
        assert_eq!(entries[2].1, Value::Bool(true));
        assert_eq!(
            entries[3].1,
            Value::Array(vec![Value::Number(1.0), Value::Null])
        );
        // Scalars parse to values too.
        assert_eq!(
            from_str::<Value>("\"hi\"").unwrap(),
            Value::String("hi".into())
        );
        assert_eq!(from_str::<Value>("null").unwrap(), Value::Null);
    }

    #[test]
    fn parsed_trees_deserialize_by_value() {
        let v: Value = from_str(r#"{"pair":[4,0.5],"name":"s1"}"#).unwrap();
        let Value::Object(entries) = v else {
            panic!("expected an object");
        };
        let mut entries = entries.into_iter();
        let (key, pair) = entries.next().unwrap();
        assert_eq!(key, "pair");
        assert_eq!(from_value::<(usize, f64)>(pair).unwrap(), (4, 0.5));
        let (_, name) = entries.next().unwrap();
        assert_eq!(from_value::<String>(name).unwrap(), "s1");
        // The typed errors are those of `from_str` on the same text.
        let typed = from_value::<u64>(Value::String("x".into())).unwrap_err();
        assert_eq!(
            typed.to_string(),
            from_str::<u64>("\"x\"").unwrap_err().to_string()
        );
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<f64>("nope").is_err());
        assert!(from_str::<Vec<f64>>("[1,").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<f64>("1 2").is_err());
    }
}
