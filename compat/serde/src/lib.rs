//! Hermetic stand-in for the `serde` crate.
//!
//! The build environment has no registry access, so this crate provides
//! the serialization surface the workspace uses: [`Serialize`] /
//! [`Deserialize`] traits built around a JSON-shaped [`value::Value`]
//! tree, with derive macros re-exported from the companion
//! `serde_derive` proc-macro crate. `serde_json` (also in `compat/`)
//! renders and parses the value tree as JSON text.
//!
//! Simplifications relative to upstream serde:
//!
//! * one self-describing data model (the value tree) instead of the
//!   generic `Serializer`/`Deserializer` driver traits;
//! * numbers are carried as `f64` — exact for every integer this
//!   workspace serializes (all well below 2^53);
//! * `Deserialize` has no lifetime parameter (no zero-copy borrowing).

pub mod de;
pub mod value;

pub use serde_derive::{Deserialize, Serialize};

use value::Value;

/// Types that can render themselves into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, de::Error>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        v.as_bool()
            .ok_or_else(|| de::Error::custom("expected a boolean"))
    }
}

macro_rules! impl_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }

        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, de::Error> {
                let n = v
                    .as_f64()
                    .ok_or_else(|| de::Error::custom(concat!("expected a number for ", stringify!($t))))?;
                Ok(n as $t)
            }
        }
    )*};
}
impl_num!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| de::Error::custom("expected a string"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        v.as_array()
            .ok_or_else(|| de::Error::custom("expected an array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+) with $len:expr;)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, de::Error> {
                let items = v
                    .as_array()
                    .ok_or_else(|| de::Error::custom("expected a tuple array"))?;
                if items.len() != $len {
                    return Err(de::Error::custom("tuple arity mismatch"));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}
impl_tuple! {
    (A: 0) with 1;
    (A: 0, B: 1) with 2;
    (A: 0, B: 1, C: 2) with 3;
    (A: 0, B: 1, C: 2, D: 3) with 4;
}

/// Helpers invoked by code the derive macros generate. Not a public API.
#[doc(hidden)]
pub mod __private {
    use super::{de, Deserialize, Value};

    /// Looks up field `name` in `v` (which must be an object) and
    /// deserializes it, with struct context in the error message.
    ///
    /// An absent key reads as `null`, so an `Option` field becomes `None`
    /// as with upstream serde's derive; any type that rejects `null`
    /// reports the field as missing.
    pub fn field<T: Deserialize>(v: &Value, ty: &str, name: &str) -> Result<T, de::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| de::Error::custom(format!("expected an object for {ty}")))?;
        match obj.iter().find(|(k, _)| k == name) {
            Some((_, entry)) => {
                T::from_value(entry).map_err(|e| de::Error::custom(format!("{ty}.{name}: {e}")))
            }
            None => T::from_value(&Value::Null)
                .map_err(|_| de::Error::custom(format!("missing field {ty}.{name}"))),
        }
    }

    /// Splits an externally-tagged enum value `{"Variant": {...}}` into
    /// its tag and payload.
    pub fn variant<'v>(v: &'v Value, ty: &str) -> Result<(&'v str, &'v Value), de::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| de::Error::custom(format!("expected a variant object for {ty}")))?;
        match obj {
            [(tag, payload)] => Ok((tag.as_str(), payload)),
            _ => Err(de::Error::custom(format!(
                "expected a single-variant object for {ty}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(f64::from_value(&3.25f64.to_value()).unwrap(), 3.25);
        assert_eq!(u64::from_value(&17u64.to_value()).unwrap(), 17);
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        assert!(bool::from_value(&true.to_value()).unwrap());
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1.0f64, 2.5, -3.0];
        assert_eq!(Vec::<f64>::from_value(&v.to_value()).unwrap(), v);
        let o: Option<f64> = None;
        assert_eq!(Option::<f64>::from_value(&o.to_value()).unwrap(), None);
        let t = ("a".to_string(), 2.0f64);
        assert_eq!(<(String, f64)>::from_value(&t.to_value()).unwrap(), t);
    }

    #[test]
    fn absent_field_is_none_for_option_and_missing_otherwise() {
        let obj = Value::Object(vec![("a".into(), Value::Num(1.0))]);
        let absent: Option<f64> = __private::field(&obj, "T", "b").unwrap();
        assert_eq!(absent, None);
        let present: Option<f64> = __private::field(&obj, "T", "a").unwrap();
        assert_eq!(present, Some(1.0));
        let err = __private::field::<f64>(&obj, "T", "b").unwrap_err();
        assert_eq!(err.to_string(), "missing field T.b");
    }

    #[test]
    fn type_mismatches_error() {
        assert!(f64::from_value(&Value::Str("x".into())).is_err());
        assert!(String::from_value(&Value::Num(1.0)).is_err());
        assert!(Vec::<f64>::from_value(&Value::Bool(true)).is_err());
    }
}
