//! Helpers shared by the reproduction binaries.

use wiki_bench::{ExperimentContext, StandardDatasets};
use wikimatch::ComputeMode;

/// Builds the experiment context from the command line:
///
/// * `--quick` switches to the reduced datasets (useful for smoke runs);
/// * `--mode pruned|dense|filtered[:T]` selects the similarity-table
///   compute mode instead of hard-coding the default (`pruned` and `dense`
///   are bit-identical, `dense` being the single-threaded reference pass;
///   `filtered` stores only the pairs scoring at least `T`).
pub fn context_from_args() -> ExperimentContext {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mode = match args.iter().position(|a| a == "--mode") {
        Some(i) => {
            let value = args.get(i + 1).map(String::as_str).unwrap_or("");
            value.parse::<ComputeMode>().unwrap_or_else(|err| {
                eprintln!("--mode: {err}");
                std::process::exit(2);
            })
        }
        None => ComputeMode::default(),
    };
    if quick {
        eprintln!("(running on the reduced --quick datasets)");
    }
    if mode != ComputeMode::default() {
        eprintln!("(similarity tables computed in {mode} mode)");
    }
    let datasets = if quick {
        StandardDatasets::quick()
    } else {
        StandardDatasets::standard()
    };
    ExperimentContext::with_mode(datasets, mode)
}

/// The two language-pair names in report order.
///
/// Not every binary iterates over both pairs (e.g. `table1` picks its own
/// sample), hence the allow.
#[allow(dead_code)]
pub const PAIRS: [&str; 2] = ["Portuguese-English", "Vietnamese-English"];
