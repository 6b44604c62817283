//! # wiki-bench
//!
//! The reproduction harness: one module per experiment of the paper plus
//! shared plumbing (dataset construction, matcher registry, text-table
//! rendering, JSON reports).
//!
//! Every table and figure of the paper has a corresponding binary under
//! `src/bin/` (`table2`, `figure5`, ...). Each binary calls into the
//! functions of [`experiments`] so the logic is unit-testable, prints a
//! text rendering of the paper's rows/series, and writes a JSON report to
//! `reports/` for EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod kernels;
pub mod report;

pub use experiments::{ExperimentContext, StandardDatasets};
pub use report::{format_table, write_report};

use std::time::{Duration, Instant};

use wiki_corpus::{ScaleTier, SyntheticConfig};

/// Resolves a `--tiers` token to its generator config via [`ScaleTier`],
/// so every recording binary accepts the same tier names (including
/// `xlarge`) and cannot drift from the corpus crate's catalog.
pub fn tier_config(tier: &str) -> Option<SyntheticConfig> {
    tier.parse::<ScaleTier>().ok().map(|t| t.config())
}

/// The usage-error text for an unknown `--tiers` token: the canonical tier
/// list, derived from [`ScaleTier::ALL`] so it can never go stale.
pub fn tier_names() -> String {
    let names: Vec<&str> = ScaleTier::ALL.iter().map(|t| t.name()).collect();
    names.join("|")
}

/// The argument after `args[*i]` as that flag's value, advancing `i` to
/// it. A trailing flag without a value is a usage error (exit status 2),
/// not an index-out-of-bounds panic.
pub fn flag_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    args.get(*i).cloned().unwrap_or_else(|| {
        eprintln!("{flag} needs a value; see the module docs");
        std::process::exit(2);
    })
}

/// A duration in (fractional) milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Best-of-N wall time of `f` in milliseconds (best-of, not mean: the
/// quantity of interest is the cost of the work, not of the noise), plus
/// the last run's result.
///
/// # Panics
/// When `runs` is zero.
pub fn time_best<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..runs {
        let t = Instant::now();
        last = Some(f());
        best = best.min(ms(t.elapsed()));
    }
    (best, last.expect("runs >= 1"))
}

#[cfg(test)]
mod cli_tests {
    use super::*;

    #[test]
    fn flag_value_takes_the_next_argument() {
        let args: Vec<String> = ["--runs", "3", "--smoke"].map(String::from).into();
        let mut i = 0;
        assert_eq!(flag_value(&args, &mut i, "--runs"), "3");
        assert_eq!(i, 1);
    }

    #[test]
    fn time_best_runs_n_times_and_returns_the_last_result() {
        let mut calls = 0;
        let (best, last) = time_best(3, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (3, 3));
        assert!(best >= 0.0 && best.is_finite());
        assert_eq!(ms(Duration::from_micros(1500)), 1.5);
    }
}

#[cfg(test)]
mod tier_tests {
    use super::*;

    #[test]
    fn every_tier_name_resolves_and_round_trips() {
        for tier in ScaleTier::ALL {
            assert!(tier_config(tier.name()).is_some(), "{tier} unresolvable");
            assert_eq!(tier.name().parse::<ScaleTier>(), Ok(tier));
        }
        assert!(tier_config("galactic").is_none());
        assert_eq!(tier_names(), "tiny|small|medium|large|xlarge");
    }
}
