//! Result series, ASCII charts and the per-attack damage/containment
//! metrics for the experiments.

use crate::runner::record;
use std::fmt::Write as _;

record! {
    /// Damage and containment of one attack run, relative to an
    /// honest-baseline run of the same scenario — the per-cell metrics of the
    /// `matrix_robustness` experiment.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Damage {
        /// Honest-goodput loss in percent of the baseline: positive when the
        /// attack hurt the honest receiver, near zero when contained
        /// (negative values mean the honest flow did *better* under attack —
        /// run-to-run noise).
        pub honest_loss_pct: f64,
        /// Attacker throughput in percent above its entitlement — the goodput
        /// the same receiver earned in the honest-baseline run (or a static
        /// fair share when no baseline exists): what the misbehaviour bought.
        pub attacker_excess_pct: f64,
        /// Seconds from attack onset until the edge router first locked the
        /// attacker out or flagged its guessing tally; `None` when no
        /// detection fired (e.g. unprotected variants).
        pub time_to_lockout_secs: Option<f64>,
    }
}

/// Compute [`Damage`] from raw throughputs.
///
/// `baseline_honest_bps` is the honest receiver's goodput in the
/// attack-free baseline run, `honest_bps` the same receiver under attack,
/// `attacker_bps` the attacker's delivered throughput and `entitled_bps`
/// its counterfactual goodput (the honest-baseline run of the same
/// receiver, or a fair share when no baseline exists). `detection_secs`
/// is the absolute detection time; `onset_secs` the attack onset
/// (detection is reported relative to it, clamped at zero).
pub(crate) fn damage(
    baseline_honest_bps: f64,
    honest_bps: f64,
    attacker_bps: f64,
    entitled_bps: f64,
    detection_secs: Option<f64>,
    onset_secs: f64,
) -> Damage {
    let attacker_excess_pct = if entitled_bps > 0.0 {
        (attacker_bps - entitled_bps) / entitled_bps * 100.0
    } else {
        0.0
    };
    Damage {
        honest_loss_pct: loss_pct(baseline_honest_bps, honest_bps),
        attacker_excess_pct,
        time_to_lockout_secs: detection_secs.map(|t| (t - onset_secs).max(0.0)),
    }
}

/// Goodput loss of `bps` against `baseline_bps`, percent (0 when the
/// baseline is empty).
pub(crate) fn loss_pct(baseline_bps: f64, bps: f64) -> f64 {
    if baseline_bps > 0.0 {
        (baseline_bps - bps) / baseline_bps * 100.0
    } else {
        0.0
    }
}

record! {
    /// A labeled time/value series.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Series {
        /// Legend label (e.g. "F1").
        pub label: String,
        /// `(x, y)` points.
        pub points: Vec<(f64, f64)>,
    }
}

impl Series {
    /// Build from per-second values starting at `t0` with step `dt`.
    pub fn from_values(label: &str, t0: f64, dt: f64, values: &[f64]) -> Self {
        Series {
            label: label.to_string(),
            points: values
                .iter()
                .enumerate()
                .map(|(i, &v)| (t0 + i as f64 * dt, v))
                .collect(),
        }
    }

    /// Centered moving average over `w` points (the paper's throughput
    /// curves are visibly smoothed).
    ///
    /// The window shrinks *symmetrically* near the edges: point `i`
    /// averages `±min(w/2, i, n-1-i)` neighbours, so the first and last
    /// points pass through unsmoothed instead of absorbing a one-sided
    /// (forward- or backward-biased) window. The window is always
    /// centered, so an even `w` behaves like `w + 1`.
    pub fn smoothed(&self, w: usize) -> Series {
        let n = self.points.len();
        let points = (0..n)
            .map(|i| {
                let half = (w / 2).min(i).min(n - 1 - i);
                let (lo, hi) = (i - half, i + half + 1);
                let mean = self.points[lo..hi].iter().map(|p| p.1).sum::<f64>() / (hi - lo) as f64;
                (self.points[i].0, mean)
            })
            .collect();
        Series {
            label: self.label.clone(),
            points,
        }
    }

    /// Mean of the y values.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|p| p.1).sum::<f64>() / self.points.len() as f64
        }
    }
}

/// A quick ASCII line chart (one glyph per series), for terminal output of
/// the figure regenerators.
pub fn ascii_chart(series: &[Series], width: usize, height: usize, y_label: &str) -> String {
    let glyphs = ['*', '+', 'o', 'x', '#', '@', '%', '&'];
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (ymin, mut ymax) = (0.0f64, f64::NEG_INFINITY);
    for s in series {
        for &(x, y) in &s.points {
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymax = ymax.max(y);
        }
    }
    if !xmin.is_finite() || xmax <= xmin {
        return String::from("(no data)\n");
    }
    ymax = ymax.max(1e-9);
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = glyphs[si % glyphs.len()];
        for &(x, y) in &s.points {
            let cx = ((x - xmin) / (xmax - xmin) * (width as f64 - 1.0)).round() as usize;
            let cy = ((y - ymin) / (ymax - ymin) * (height as f64 - 1.0)).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = glyph;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{y_label} (max {ymax:.0})");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    let _ = writeln!(out, "+{} x: {:.1} .. {:.1}", "-".repeat(width), xmin, xmax);
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "  {} = {}", glyphs[si % glyphs.len()], s.label);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_from_values_and_mean() {
        let s = Series::from_values("a", 0.0, 1.0, &[1.0, 2.0, 3.0]);
        assert_eq!(s.points, vec![(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn smoothing_flattens_spikes() {
        let s = Series::from_values("a", 0.0, 1.0, &[0.0, 0.0, 10.0, 0.0, 0.0]);
        let sm = s.smoothed(5);
        assert!(sm.points[2].1 < 5.0);
        // Mass is conserved enough that the mean stays put.
        assert!((sm.mean() - s.mean()).abs() < 1.0);
    }

    /// Regression: the window must shrink symmetrically at the edges.
    /// The old clamp averaged only *forward* points at `i = 0` (and only
    /// backward points at `i = n-1`), biasing the first and last `w/2`
    /// points of every paper curve toward the interior.
    #[test]
    fn smoothing_shrinks_symmetrically_at_edges() {
        let s = Series::from_values("a", 0.0, 1.0, &[1.0, 2.0, 3.0, 4.0, 5.0]);
        let sm = s.smoothed(5);
        // Endpoints pass through unsmoothed (half-width 0), the next
        // points average three, the center all five.
        let want = [1.0, 2.0, 3.0, 4.0, 5.0];
        for (p, w) in sm.points.iter().zip(want) {
            assert!((p.1 - w).abs() < 1e-12, "{:?}", sm.points);
        }
        // A symmetric series smooths to a symmetric series.
        let s = Series::from_values("b", 0.0, 1.0, &[9.0, 0.0, 0.0, 0.0, 9.0]);
        let sm = s.smoothed(3);
        assert_eq!(sm.points[0].1, sm.points[4].1, "{:?}", sm.points);
        assert_eq!(sm.points[1].1, sm.points[3].1, "{:?}", sm.points);
        // Degenerate windows and empty series stay well-defined.
        assert_eq!(s.smoothed(1).points, s.points);
        assert!(Series::from_values("c", 0.0, 1.0, &[])
            .smoothed(5)
            .points
            .is_empty());
    }

    #[test]
    fn ascii_chart_renders() {
        let s = Series::from_values("load", 0.0, 1.0, &[0.0, 5.0, 10.0, 5.0, 0.0]);
        let chart = ascii_chart(&[s], 20, 5, "bps");
        assert!(chart.contains('*'));
        assert!(chart.contains("load"));
    }

    #[test]
    fn ascii_chart_handles_empty() {
        assert_eq!(ascii_chart(&[], 10, 5, "y"), "(no data)\n");
    }

    #[test]
    fn damage_reports_loss_excess_and_detection_delay() {
        let d = damage(200_000.0, 50_000.0, 750_000.0, 250_000.0, Some(30.0), 20.0);
        assert!((d.honest_loss_pct - 75.0).abs() < 1e-9);
        assert!((d.attacker_excess_pct - 200.0).abs() < 1e-9);
        assert_eq!(d.time_to_lockout_secs, Some(10.0));
    }

    #[test]
    fn damage_handles_contained_attacks_and_missing_detection() {
        // Contained: honest flow untouched, attacker at fair share.
        let d = damage(200_000.0, 200_000.0, 250_000.0, 250_000.0, None, 20.0);
        assert_eq!(d.honest_loss_pct, 0.0);
        assert_eq!(d.attacker_excess_pct, 0.0);
        assert_eq!(d.time_to_lockout_secs, None);
        // Detection before onset clamps at zero; zero baselines don't 1/0.
        let d = damage(0.0, 10.0, 10.0, 0.0, Some(5.0), 20.0);
        assert_eq!(d.honest_loss_pct, 0.0);
        assert_eq!(d.attacker_excess_pct, 0.0);
        assert_eq!(d.time_to_lockout_secs, Some(0.0));
    }
}
