//! Order statistics over a handful of repetitions.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here agrees with
//! one computed by an outside harness over the same values.

use robust_multicast::core::runner::Json;

/// Median of `values` (mean of the middle pair for an even count).
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped into the data.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, quartiles, extremes and the samples of one metric's
/// repetitions. With n ≤ 7 no tail percentile is meaningful, so none is
/// reported. Samples keep repetition order: sample `i` of two runs at
/// one seed measured the same scenario, which is what `compare` pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub samples: Vec<f64>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            samples: values.to_vec(),
        }
    }

    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj([
            ("unit", Json::Str(unit.into())),
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("n", Json::U64(self.samples.len() as u64)),
            ("samples", Json::nums(self.samples.iter().copied())),
        ])
    }

    /// Rebuilt from the samples, so a hand-edited median cannot disagree
    /// with them.
    pub fn from_json(j: &Json) -> Option<Summary> {
        let samples: Option<Vec<f64>> = crate::json::items(crate::json::get(j, "samples")?)
            .iter()
            .map(|v| match v {
                Json::Num(x) => Some(*x),
                Json::U64(n) => Some(*n as f64),
                _ => None,
            })
            .collect();
        samples.filter(|s| !s.is_empty()).map(|s| Summary::of(&s))
    }
}

/// 64-bit FNV-1a, fed word by word: the `sim_digest` of a run.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(quartiles(&[7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0]), (2.0, 6.0));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 4.5));
    }

    #[test]
    fn summary_collects_median_quartiles_and_extremes() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(
            (s.median, s.min, s.max, s.samples.len()),
            (3.0, 1.0, 5.0, 5)
        );
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
