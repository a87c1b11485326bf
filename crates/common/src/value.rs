//! Scalar values stored in Caldera tables.
//!
//! Caldera is a main-memory HTAP prototype; the paper's workloads (TPC-H Q6,
//! TPC-C NewOrder, YCSB-style updates, the 16-attribute layout
//! microbenchmark) only need a handful of fixed-width types plus short
//! strings. Values are kept deliberately small (16 bytes for the enum) so
//! record copies during shadow-copying stay cheap.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A single scalar cell value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// 32-bit signed integer (TPC-H quantities, keys, YCSB counters).
    Int32(i32),
    /// 64-bit signed integer (row ids, large keys).
    Int64(i64),
    /// 64-bit float (prices, discounts).
    Float64(f64),
    /// Date stored as days since an arbitrary epoch (TPC-H shipdate).
    Date(i32),
    /// Short string, e.g. TPC-C district names. Boxed to keep the enum small.
    Str(Box<str>),
}

impl Value {
    /// Returns the value as `i64` when it holds any integer-like variant.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int32(v) => Some(i64::from(*v)),
            Value::Int64(v) => Some(*v),
            Value::Date(v) => Some(i64::from(*v)),
            Value::Float64(_) | Value::Str(_) => None,
        }
    }

    /// Returns the value as `f64` when it holds a numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int32(v) => Some(f64::from(*v)),
            Value::Int64(v) => Some(*v as f64),
            Value::Date(v) => Some(f64::from(*v)),
            Value::Float64(v) => Some(*v),
            Value::Str(_) => None,
        }
    }

    /// The width in bytes this value occupies in a fixed-width columnar page.
    #[cfg(test)]
    pub(crate) fn fixed_width(&self) -> usize {
        match self {
            Value::Int32(_) | Value::Date(_) => 4,
            Value::Int64(_) | Value::Float64(_) => 8,
            Value::Str(s) => s.len(),
        }
    }

    /// Encodes the value into the canonical 8-byte cell representation used
    /// by the storage engine for fixed-width layouts. Strings are hashed to
    /// a stable 8-byte code (the layout microbenchmarks never use strings).
    pub fn to_cell(&self) -> u64 {
        match self {
            Value::Int32(v) => *v as u32 as u64,
            Value::Int64(v) => *v as u64,
            Value::Date(v) => *v as u32 as u64,
            Value::Float64(v) => v.to_bits(),
            Value::Str(s) => {
                // FNV-1a, stable across runs so snapshots agree.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for b in s.as_bytes() {
                    h ^= u64::from(*b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                h
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int32(v) => write!(f, "{v}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Date(v) => write!(f, "date({v})"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int32(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_conversions() {
        assert_eq!(Value::Int32(7).as_i64(), Some(7));
        assert_eq!(Value::Int64(-3).as_i64(), Some(-3));
        assert_eq!(Value::Date(100).as_i64(), Some(100));
        assert_eq!(Value::Float64(1.5).as_i64(), None);
    }

    #[test]
    fn float_conversions() {
        assert_eq!(Value::Int32(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float64(2.25).as_f64(), Some(2.25));
        assert_eq!(Value::from("x").as_f64(), None);
    }

    #[test]
    fn cell_roundtrip_for_floats() {
        let v = Value::Float64(3.125);
        assert_eq!(f64::from_bits(v.to_cell()), 3.125);
    }

    #[test]
    fn fixed_widths() {
        assert_eq!(Value::Int32(1).fixed_width(), 4);
        assert_eq!(Value::Int64(1).fixed_width(), 8);
        assert_eq!(Value::Float64(1.0).fixed_width(), 8);
        assert_eq!(Value::from("abcd").fixed_width(), 4);
    }

    #[test]
    fn string_cells_are_stable() {
        assert_eq!(Value::from("caldera").to_cell(), Value::from("caldera").to_cell());
        assert_ne!(Value::from("caldera").to_cell(), Value::from("silo").to_cell());
    }

    #[test]
    fn enum_stays_small() {
        assert!(std::mem::size_of::<Value>() <= 24);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int32(5).to_string(), "5");
        assert_eq!(Value::Date(9).to_string(), "date(9)");
        assert_eq!(Value::from("a").to_string(), "\"a\"");
    }
}
