//! `compare A.json B.json`: per workload and end-to-end metric, both
//! medians, the median of their sample-by-sample ratios, and a verdict
//! from the metric's bound.

use std::path::Path;

use robust_multicast::core::runner::Json;

use crate::json;
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::report::{human, read_json};
use crate::stats::{median, quartiles, Summary};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// The medians differ by no more than the bound.
    Within,
    /// B is worse than A by more than the bound.
    Worse,
    /// The paired ratios spread wider than the bound and fall on both
    /// sides of 1: the data cannot tell `within` from a change.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// B against baseline A on one metric, sample by sample.
pub struct Judgement {
    /// Median of the paired ratios bᵢ ÷ aᵢ.
    pub ratio: f64,
    /// Quartile distance of the paired ratios.
    pub ratio_iqr: f64,
    pub verdict: Verdict,
}

/// Judge B against baseline A. Sample `i` of both sides measured the same
/// scenario (same seed of the family), so the ratio bᵢ ÷ aᵢ cancels what
/// the scenario contributes and leaves the change plus the noise.
pub fn judge(metric: &EndToEnd, a: &Summary, b: &Summary) -> Judgement {
    let ratios: Vec<f64> = a
        .samples
        .iter()
        .zip(&b.samples)
        .map(|(a, b)| b / a)
        .collect();
    let ratio = median(&ratios);
    let (q1, q3) = quartiles(&ratios);
    let straddles_one = ratios.iter().any(|r| *r < 1.0) && ratios.iter().any(|r| *r > 1.0);
    // The bound, or the absolute floor where that is the larger share.
    let tolerance = metric.tolerance(a.median) / a.median.abs();
    let worse_by = match metric.better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let verdict = if q3 - q1 > tolerance && straddles_one {
        Verdict::Unresolved
    } else if worse_by > tolerance {
        Verdict::Worse
    } else if -worse_by > tolerance {
        Verdict::Better
    } else {
        Verdict::Within
    };
    Judgement {
        ratio,
        ratio_iqr: q3 - q1,
        verdict,
    }
}

fn summary_of(workload: &Json, metric: &str) -> Option<Summary> {
    Summary::from_json(json::get(json::get(workload, "end_to_end")?, metric)?)
}

/// Returns `Ok(false)` when any cell reads `worse`.
pub fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare A.json B.json".into());
    };
    let a = read_json(Path::new(a_path))?;
    let b = read_json(Path::new(b_path))?;
    let workloads = |doc| json::members(json::get(doc, "workloads").unwrap_or(&Json::Null));
    println!(
        "{:<16} {:<15} {:>16} {:>16} {:>8} {:>7}  verdict (bound)",
        "workload", "metric", "A median", "B median", "B/A", "IQR"
    );
    let mut counts = [0usize; 4];
    for (name, wa) in workloads(&a) {
        let Some((_, wb)) = workloads(&b).iter().find(|(n, _)| n == name) else {
            println!("{name:<16} missing from {b_path}");
            continue;
        };
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (summary_of(wa, metric.name), summary_of(wb, metric.name))
            else {
                println!("{name:<16} {:<15} missing on one side", metric.name);
                continue;
            };
            let j = judge(metric, &sa, &sb);
            counts[j.verdict as usize] += 1;
            println!(
                "{name:<16} {:<15} {:>16} {:>16} {:>8.4} {:>7.4}  {} ({:.0}% of A = {} {})",
                metric.name,
                human(sa.median),
                human(sb.median),
                j.ratio,
                j.ratio_iqr,
                j.verdict.as_str(),
                metric.bound * 100.0,
                human(metric.tolerance(sa.median)),
                metric.unit,
            );
        }
        let (da, db) = (json::str(wa, "sim_digest"), json::str(wb, "sim_digest"));
        if da != db {
            println!(
                "{name:<16} sim_digest differs: {} vs {} — simulated behaviour changed; a speed-only change must leave it identical",
                da.unwrap_or("?"),
                db.unwrap_or("?")
            );
        }
    }
    println!(
        "\n{} better, {} within, {} worse, {} unresolved",
        counts[Verdict::Better as usize],
        counts[Verdict::Within as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(counts[Verdict::Worse as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Summary {
        Summary::of(&[median * 0.995, median, median * 1.005])
    }

    fn verdict(metric: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
        judge(metric, a, b).verdict
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let run_wall = &END_TO_END[1];
        let rate = &END_TO_END[2];
        assert_eq!((run_wall.name, rate.name), ("run_wall_s", "events_per_sec"));
        assert_eq!(verdict(run_wall, &tight(2.0), &tight(2.4)), Verdict::Within);
        assert_eq!(verdict(run_wall, &tight(2.0), &tight(2.6)), Verdict::Worse);
        assert_eq!(verdict(run_wall, &tight(2.0), &tight(1.4)), Verdict::Better);
        assert_eq!(verdict(rate, &tight(1e7), &tight(1.3e7)), Verdict::Better);
        assert_eq!(verdict(rate, &tight(1e7), &tight(0.7e7)), Verdict::Worse);
    }

    #[test]
    fn pairing_cancels_what_the_scenario_contributes() {
        // Five scenarios 40 % apart, each 5 % slower in B: unpaired, the
        // sides' ranges overlap almost entirely; paired, the ratio is
        // 1.05 with no spread at all.
        let run_wall = &END_TO_END[1];
        let a = Summary::of(&[2.0, 2.2, 2.4, 2.6, 2.8]);
        let b = Summary::of(&[2.1, 2.31, 2.52, 2.73, 2.94]);
        let j = judge(run_wall, &a, &b);
        assert!((j.ratio - 1.05).abs() < 1e-12 && j.ratio_iqr < 1e-12);
        assert_eq!(j.verdict, Verdict::Within);
        // A sixth repetition on one side pairs with nothing.
        let longer = Summary::of(&[2.1, 2.31, 2.52, 2.73, 2.94, 9.0]);
        assert_eq!(judge(run_wall, &a, &longer).verdict, Verdict::Within);
    }

    #[test]
    fn ratios_scattered_across_one_are_unresolved_but_one_sided_ones_decide() {
        let run_wall = &END_TO_END[1];
        let a = Summary::of(&[2.0, 2.0, 2.0, 2.0, 2.0]);
        let scattered = Summary::of(&[1.2, 1.6, 2.1, 2.6, 3.0]);
        assert_eq!(verdict(run_wall, &a, &scattered), Verdict::Unresolved);
        let all_slower = Summary::of(&[2.6, 3.0, 3.4, 3.8, 4.2]);
        assert_eq!(verdict(run_wall, &a, &all_slower), Verdict::Worse);
    }

    #[test]
    fn absolute_floors_absorb_clock_and_page_granularity() {
        let setup = &END_TO_END[0];
        let rss = &END_TO_END[3];
        // 1 ms → 3 ms of set-up is under the 50 ms floor; 6 → 7.5 MiB is
        // under the 2 MiB floor.
        assert_eq!(
            verdict(setup, &tight(0.001), &tight(0.003)),
            Verdict::Within
        );
        assert_eq!(verdict(rss, &tight(6.0), &tight(7.5)), Verdict::Within);
        assert_eq!(verdict(rss, &tight(50.0), &tight(65.0)), Verdict::Worse);
    }
}
