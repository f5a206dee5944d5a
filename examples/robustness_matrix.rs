//! The registered `matrix_robustness` experiment as an ASCII table:
//! every `mcc-attack` strategy against every defense variant.
//!
//! Each cell shows `honest-goodput loss % / attacker excess %`, plus a
//! `⚡t` marker when the edge router locked the attacker out (or flagged
//! its guessing tally) `t` seconds after onset. Rows are strategies,
//! columns defenses; FLID-DL is the unprotected baseline.
//!
//! ```text
//! cargo run --release --example robustness_matrix            # full 60 s cells
//! cargo run --release --example robustness_matrix -- --quick # 30 s cells
//! ```

use robust_multicast::core::experiments::robustness_matrix;

fn main() {
    let quick = std::env::args()
        .skip(1)
        .any(|a| a == "--quick" || a == "-q");
    let duration = if quick { 30 } else { 60 };
    let onset = duration / 3;
    println!(
        "robustness matrix: {duration} s cells, attack onset t = {onset} s, seed 17\n\
         cell = honest loss % / attacker excess %  (⚡t: detection t s after onset)\n"
    );
    let m = robustness_matrix(duration, onset, 17);

    let col = 18usize;
    print!("{:<16}", "strategy \\ defense");
    for d in &m.defenses {
        print!("{d:>col$}");
    }
    println!();
    for &strategy in &m.strategies {
        print!("{strategy:<16}");
        for &defense in &m.defenses {
            let cell = m
                .cells
                .iter()
                .find(|c| c.strategy == strategy && c.defense == defense)
                .expect("complete matrix");
            let mut text = format!(
                "{:+.0}%/{:+.0}%",
                cell.damage.honest_loss_pct, cell.damage.attacker_excess_pct
            );
            if let Some(t) = cell.damage.time_to_lockout_secs {
                text.push_str(&format!(" ⚡{t:.0}s"));
            }
            print!("{text:>col$}");
        }
        println!();
    }

    println!(
        "\nReading the matrix: the FLID-DL column is the vulnerability (inflation\n\
         devastates honest flows); every protected column contains it — the attacker\n\
         gains nothing and the router's counters expose the attempt."
    );
}
