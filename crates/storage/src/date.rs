//! A minimal proleptic-Gregorian calendar date.
//!
//! The KER model of the paper lists `date` among the basic domains
//! (Appendix A), so the storage engine supports it as a first-class value
//! type. Dates are stored as `(year, month, day)` and ordered by their day
//! number from the civil epoch, computed with Howard Hinnant's
//! `days_from_civil` algorithm.

use crate::error::{Result, StorageError};
use std::fmt;
use std::str::FromStr;

/// A calendar date in the proleptic Gregorian calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Date {
    year: i32,
    month: u32,
    day: u32,
}

impl Date {
    /// The earliest representable date.
    pub const MIN: Date = Date {
        year: i32::MIN,
        month: 1,
        day: 1,
    };

    /// Construct a date, validating month and day-of-month.
    pub fn new(year: i32, month: u32, day: u32) -> Result<Self> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return Err(StorageError::InvalidDate { year, month, day });
        }
        Ok(Date { year, month, day })
    }

    /// The year component.
    pub fn year(&self) -> i32 {
        self.year
    }

    /// The month component (1-12).
    pub fn month(&self) -> u32 {
        self.month
    }

    /// The day-of-month component (1-based).
    pub fn day(&self) -> u32 {
        self.day
    }

    /// Days since 1970-01-01 (may be negative).
    pub fn days_from_epoch(&self) -> i64 {
        days_from_civil(self.year, self.month, self.day)
    }

    /// Construct a date from a day count since 1970-01-01.
    pub fn from_days_from_epoch(days: i64) -> Self {
        let (year, month, day) = civil_from_days(days);
        Date { year, month, day }
    }

    /// The date `n` days after this one (negative `n` goes backwards).
    pub fn plus_days(&self, n: i64) -> Self {
        Self::from_days_from_epoch(self.days_from_epoch() + n)
    }

    /// Signed number of days from `other` to `self`.
    pub fn days_since(&self, other: &Date) -> i64 {
        self.days_from_epoch() - other.days_from_epoch()
    }
}

impl PartialOrd for Date {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Date {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.year, self.month, self.day).cmp(&(other.year, other.month, other.day))
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

impl FromStr for Date {
    type Err = StorageError;

    /// Parse an ISO `YYYY-MM-DD` date string.
    fn from_str(s: &str) -> Result<Self> {
        let err = || StorageError::ParseValue {
            text: s.to_string(),
            ty: "date".to_string(),
        };
        let mut parts = s.splitn(3, '-');
        let year: i32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let month: u32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        let day: u32 = parts.next().ok_or_else(err)?.parse().map_err(|_| err())?;
        Date::new(year, month, day)
    }
}

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap(year) => 29,
        2 => 28,
        _ => 0,
    }
}

/// Days since 1970-01-01 for a civil date (Hinnant's algorithm).
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Civil date for a day count since 1970-01-01 (Hinnant's algorithm).
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m as u32, d as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        let d = Date::new(1970, 1, 1).unwrap();
        assert_eq!(d.days_from_epoch(), 0);
    }

    #[test]
    fn known_day_numbers() {
        assert_eq!(Date::new(2000, 3, 1).unwrap().days_from_epoch(), 11017);
        assert_eq!(Date::new(1969, 12, 31).unwrap().days_from_epoch(), -1);
    }

    #[test]
    fn roundtrip_day_numbers() {
        for days in [-100_000, -1, 0, 1, 59, 60, 365, 366, 100_000] {
            let d = Date::from_days_from_epoch(days);
            assert_eq!(d.days_from_epoch(), days, "roundtrip failed for {days}");
        }
    }

    #[test]
    fn rejects_invalid_dates() {
        assert!(Date::new(2021, 2, 29).is_err());
        assert!(Date::new(2021, 13, 1).is_err());
        assert!(Date::new(2021, 0, 1).is_err());
        assert!(Date::new(2021, 4, 31).is_err());
        assert!(Date::new(2020, 2, 29).is_ok());
    }

    #[test]
    fn ordering_follows_calendar() {
        let a = Date::new(1981, 6, 30).unwrap();
        let b = Date::new(1981, 7, 1).unwrap();
        assert!(a < b);
        assert_eq!(b.days_since(&a), 1);
    }

    #[test]
    fn parse_and_display() {
        let d: Date = "1981-06-30".parse().unwrap();
        assert_eq!(d.to_string(), "1981-06-30");
        assert!("1981-6".parse::<Date>().is_err());
        assert!("not-a-date".parse::<Date>().is_err());
    }

    #[test]
    fn plus_days_crosses_month_and_year() {
        let d = Date::new(1999, 12, 31).unwrap();
        assert_eq!(d.plus_days(1).to_string(), "2000-01-01");
        assert_eq!(d.plus_days(-365).to_string(), "1998-12-31");
    }
}
