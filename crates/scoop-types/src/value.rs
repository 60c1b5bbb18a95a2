//! Sensor attributes, integer sensor values, and value ranges.
//!
//! The paper indexes integer values of a single attribute per storage index
//! (Section 3); its REAL experiments used a value domain of roughly 150
//! distinct values and the synthetic sources use the range `[0, 100]`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A sensor reading value.
///
/// Scoop indexes integer values (or integer classes produced by local
/// pre-processing, e.g. "vibration level on a scale of 1-20"); 12-bit raw ADC
/// readings fit comfortably in an `i32`.
pub type Value = i32;

/// The physical (or derived) quantity an index is built over.
///
/// The attribute interface in the paper "currently supports temperature,
/// humidity, light, acceleration, and sound volume sensors" (Section 3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Attribute {
    /// Degrees (integerized).
    Temperature,
    /// Relative humidity.
    Humidity,
    /// Light level (the REAL trace attribute).
    Light,
    /// Vibration / acceleration class.
    Acceleration,
    /// Sound volume.
    SoundVolume,
}

impl Attribute {
    /// All supported attributes.
    pub const ALL: [Attribute; 5] = [
        Attribute::Temperature,
        Attribute::Humidity,
        Attribute::Light,
        Attribute::Acceleration,
        Attribute::SoundVolume,
    ];

    /// A short lowercase name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Attribute::Temperature => "temperature",
            Attribute::Humidity => "humidity",
            Attribute::Light => "light",
            Attribute::Acceleration => "acceleration",
            Attribute::SoundVolume => "sound_volume",
        }
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An inclusive range of sensor values, `[lo, hi]`.
///
/// Storage indices map value ranges to owner nodes (Figure 1); queries carry
/// one or more value ranges of interest (Section 5.5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ValueRange {
    /// Smallest value in the range (inclusive).
    pub lo: Value,
    /// Largest value in the range (inclusive).
    pub hi: Value,
}

impl ValueRange {
    /// Creates the inclusive range `[lo, hi]`, swapping the endpoints if they
    /// were given in the wrong order.
    pub fn new(lo: Value, hi: Value) -> Self {
        if lo <= hi {
            ValueRange { lo, hi }
        } else {
            ValueRange { lo: hi, hi: lo }
        }
    }

    /// The single-value range `[v, v]`.
    pub fn point(v: Value) -> Self {
        ValueRange { lo: v, hi: v }
    }

    /// Number of integer values contained in the range.
    pub fn width(&self) -> u64 {
        (self.hi - self.lo) as u64 + 1
    }

    /// Returns `true` if `v` lies inside the range.
    #[inline]
    pub fn contains(&self, v: Value) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Returns `true` if the two ranges share at least one value.
    pub fn overlaps(&self, other: &ValueRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Returns `true` if `other` lies entirely inside `self`.
    pub fn covers(&self, other: &ValueRange) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// The intersection of the two ranges, if non-empty.
    pub fn intersect(&self, other: &ValueRange) -> Option<ValueRange> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo <= hi {
            Some(ValueRange { lo, hi })
        } else {
            None
        }
    }

    /// Iterates over every value in the range.
    pub fn values(&self) -> impl Iterator<Item = Value> {
        self.lo..=self.hi
    }
}

impl fmt::Debug for ValueRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl fmt::Display for ValueRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_new_normalizes_order() {
        let r = ValueRange::new(10, 3);
        assert_eq!((r.lo, r.hi), (3, 10));
        assert_eq!(r.width(), 8);
    }

    #[test]
    fn point_range() {
        let r = ValueRange::point(7);
        assert_eq!(r.width(), 1);
        assert!(r.contains(7));
        assert!(!r.contains(8));
    }

    #[test]
    fn overlap_and_cover() {
        let a = ValueRange::new(0, 10);
        let b = ValueRange::new(5, 15);
        let c = ValueRange::new(11, 20);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(a.covers(&ValueRange::new(2, 9)));
        assert!(!a.covers(&b));
    }

    #[test]
    fn intersect() {
        let a = ValueRange::new(0, 10);
        let b = ValueRange::new(5, 15);
        assert_eq!(a.intersect(&b), Some(ValueRange::new(5, 10)));
        assert_eq!(a.intersect(&ValueRange::new(20, 30)), None);
    }

    #[test]
    fn values_iterator() {
        let vals: Vec<Value> = ValueRange::new(3, 6).values().collect();
        assert_eq!(vals, vec![3, 4, 5, 6]);
    }

    #[test]
    fn attribute_names_are_distinct() {
        let names: std::collections::HashSet<_> = Attribute::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), Attribute::ALL.len());
    }
}
