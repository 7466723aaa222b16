//! Dataset presets matching the shape of the paper's evaluation datasets.
//!
//! | Paper dataset | Preset | Columns | NDV range | Default rows (paper) |
//! |---|---|---|---|---|
//! | DMV (vehicle registrations) | [`dmv_like`] | 11 | 2 – 2,774 | 12,370,355 |
//! | Kddcup98 | [`kddcup98_like`] | 100 | 2 – 57 | 95,412 |
//! | Census | [`census_like`] | 14 | 2 – 123 | 48,842 |
//!
//! The row count is a parameter so tests and CI-sized runs can use scaled-down
//! tables. The experiment binaries in `duet-bench` do not start from the
//! paper's row counts: each dataset has a fixed CI-sized default
//! (`Dataset::default_rows` there: DMV 20,000, Kddcup98 5,000, Census 8,000
//! rows), multiplied by the binaries' `--scale` flag.

mod synthetic;

pub use synthetic::{ColumnSpec, SyntheticSpec};

use crate::table::Table;

/// Number of rows of the real DMV table used in the paper.
pub const DMV_PAPER_ROWS: usize = 12_370_355;
/// Number of rows of the real Kddcup98 table used in the paper.
pub const KDDCUP98_PAPER_ROWS: usize = 95_412;
/// Number of rows of the real Census table used in the paper.
pub const CENSUS_PAPER_ROWS: usize = 48_842;

/// DMV-like table: 11 columns, high cardinality, large NDV spread (2 to 2,774),
/// strong correlations between the vehicle-description attributes.
pub fn dmv_like(rows: usize, seed: u64) -> Table {
    let columns = vec![
        // (name, ndv, zipf skew, correlation with the row's latent factor)
        ColumnSpec::new("record_type", 4, 0.6, 0.1),
        ColumnSpec::new("registration_class", 75, 1.1, 0.7),
        ColumnSpec::new("state", 67, 1.3, 0.2),
        ColumnSpec::new("county", 63, 0.9, 0.3),
        ColumnSpec::new("body_type", 36, 1.2, 0.8),
        ColumnSpec::new("fuel_type", 9, 1.0, 0.6),
        ColumnSpec::new("valid_date", 2_101, 0.4, 0.5),
        ColumnSpec::new("color", 225, 1.1, 0.4),
        ColumnSpec::new("scofflaw_indicator", 2, 0.8, 0.1),
        ColumnSpec::new("suspension_indicator", 2, 0.9, 0.1),
        ColumnSpec::new("revocation_indicator", 2_774, 0.7, 0.6),
    ];
    SyntheticSpec::new("dmv_like", rows, columns).generate(seed)
}

/// Kddcup98-like table: 100 columns with small domains (NDV 2 to 57); used to
/// evaluate scalability on high-dimensional tables.
pub fn kddcup98_like(rows: usize, seed: u64) -> Table {
    let mut columns = Vec::with_capacity(100);
    for i in 0..100usize {
        // Cycle NDVs through the 2..=57 range the paper reports, with a mix of
        // skews and correlation strengths so the table has realistic structure.
        let ndv = 2 + (i * 9) % 56; // gcd(9, 56) = 1, so this covers 2..=57
        let zipf = match i % 4 {
            0 => 0.0,
            1 => 0.6,
            2 => 1.0,
            _ => 1.4,
        };
        let corr = match i % 5 {
            0 => 0.0,
            1 => 0.2,
            2 => 0.5,
            3 => 0.7,
            _ => 0.9,
        };
        columns.push(ColumnSpec::new(format!("attr_{i:03}"), ndv, zipf, corr));
    }
    SyntheticSpec::new("kddcup98_like", rows, columns).generate(seed)
}

/// Census-like table: 14 columns, small table, NDV 2 to 123.
pub fn census_like(rows: usize, seed: u64) -> Table {
    let columns = vec![
        ColumnSpec::new("age", 74, 0.3, 0.5),
        ColumnSpec::new("workclass", 9, 1.0, 0.4),
        ColumnSpec::new("fnlwgt_bucket", 123, 0.2, 0.1),
        ColumnSpec::new("education", 16, 0.8, 0.9),
        ColumnSpec::new("education_num", 16, 0.8, 0.9),
        ColumnSpec::new("marital_status", 7, 0.9, 0.5),
        ColumnSpec::new("occupation", 15, 0.7, 0.6),
        ColumnSpec::new("relationship", 6, 0.8, 0.5),
        ColumnSpec::new("race", 5, 1.3, 0.2),
        ColumnSpec::new("sex", 2, 0.4, 0.3),
        ColumnSpec::new("capital_gain_bucket", 119, 1.6, 0.4),
        ColumnSpec::new("capital_loss_bucket", 92, 1.6, 0.4),
        ColumnSpec::new("hours_per_week", 96, 0.5, 0.5),
        ColumnSpec::new("native_country", 42, 1.8, 0.2),
    ];
    SyntheticSpec::new("census_like", rows, columns).generate(seed)
}

/// The three presets, by the names used throughout the bench harness.
pub fn by_name(name: &str, rows: usize, seed: u64) -> Option<Table> {
    match name {
        "dmv" | "dmv_like" => Some(dmv_like(rows, seed)),
        "kddcup98" | "kddcup98_like" | "kddcup" => Some(kddcup98_like(rows, seed)),
        "census" | "census_like" => Some(census_like(rows, seed)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dmv_like_shape() {
        let t = dmv_like(2_000, 1);
        assert_eq!(t.num_columns(), 11);
        assert_eq!(t.num_rows(), 2_000);
        let ndvs = t.ndvs();
        assert_eq!(*ndvs.iter().min().unwrap(), 2);
        assert_eq!(*ndvs.iter().max().unwrap(), 2_774);
    }

    #[test]
    fn kddcup98_like_shape() {
        let t = kddcup98_like(1_000, 2);
        assert_eq!(t.num_columns(), 100);
        let ndvs = t.ndvs();
        assert!(ndvs.iter().all(|&n| (2..=57).contains(&n)));
        assert_eq!(*ndvs.iter().min().unwrap(), 2);
        assert_eq!(*ndvs.iter().max().unwrap(), 57);
    }

    #[test]
    fn census_like_shape() {
        let t = census_like(1_000, 3);
        assert_eq!(t.num_columns(), 14);
        let ndvs = t.ndvs();
        assert_eq!(*ndvs.iter().min().unwrap(), 2);
        assert_eq!(*ndvs.iter().max().unwrap(), 123);
    }

    #[test]
    fn by_name_resolves_aliases() {
        assert!(by_name("dmv", 100, 0).is_some());
        assert!(by_name("kddcup", 100, 0).is_some());
        assert!(by_name("census_like", 100, 0).is_some());
        assert!(by_name("unknown", 100, 0).is_none());
    }
}
