//! The synthetic generator's output is part of every corpus's identity.
//!
//! Snapshots hold only derived artifacts: every cold load, restart and
//! compaction regenerates the pristine corpus from its spec and checks the
//! snapshot's `corpus_fingerprint` against it. A generator change that
//! reorders one RNG draw, renders one value differently or merges one
//! ground-truth sense differently would silently invalidate every
//! persisted snapshot and move every quality figure. These golden values
//! were captured from the generator before its hot loop was rewritten to
//! run in linear time; the rewrite (and any later one) must reproduce them
//! bit for bit.

use wikimatch_suite::{wiki_corpus, wikimatch};

use wiki_corpus::{Dataset, Language, SyntheticConfig};
use wikimatch::snapshot::corpus_fingerprint;

/// FNV-1a 64 over the ground truth's JSON serialisation: senses in their
/// first-seen order, with their concept sets.
fn ground_truth_hash(dataset: &Dataset) -> u64 {
    let json = serde_json::to_string(&dataset.ground_truth).expect("ground truth serialises");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn assert_golden(name: &str, language: Language, config: SyntheticConfig, want: (u64, u64)) {
    let dataset = Dataset::generate(language, &config);
    let got = (corpus_fingerprint(&dataset), ground_truth_hash(&dataset));
    assert_eq!(
        got, want,
        "{name}: (corpus_fingerprint, ground-truth hash) = ({:#018x}, {:#018x}), golden ({:#018x}, {:#018x})",
        got.0, got.1, want.0, want.1
    );
}

#[test]
fn tiny_matches_the_golden_values() {
    assert_golden(
        "pt-tiny",
        Language::Pt,
        SyntheticConfig::tiny(),
        (0xd3f7_fe16_39f6_9362, 0x063c_56f8_c4d5_da10),
    );
    assert_golden(
        "vi-tiny",
        Language::Vn,
        SyntheticConfig::tiny(),
        (0xf650_c7cf_9445_8f04, 0xb7e9_1258_5607_2225),
    );
}

#[test]
fn small_matches_the_golden_values() {
    assert_golden(
        "pt-small",
        Language::Pt,
        SyntheticConfig::small(),
        (0x0c4e_ebcc_c55a_a8c6, 0x209e_3a06_b32c_b80a),
    );
    assert_golden(
        "vi-small",
        Language::Vn,
        SyntheticConfig::small(),
        (0x5dde_a605_e8ad_64d6, 0x5001_13aa_f6b1_4f93),
    );
}

#[test]
fn medium_matches_the_golden_values() {
    assert_golden(
        "pt-medium",
        Language::Pt,
        SyntheticConfig::medium(),
        (0x5b3c_1c28_e3b3_a84a, 0x143e_c862_fc15_1fda),
    );
    assert_golden(
        "vi-medium",
        Language::Vn,
        SyntheticConfig::medium(),
        (0x4126_0713_0595_34b3, 0x1f27_1fb7_8102_b3e0),
    );
}

#[test]
fn large_matches_the_golden_values() {
    assert_golden(
        "pt-large",
        Language::Pt,
        SyntheticConfig::large(),
        (0xdaea_181f_09a4_a8fb, 0x8cbd_9a61_e577_66b8),
    );
    assert_golden(
        "vi-large",
        Language::Vn,
        SyntheticConfig::large(),
        (0x3f2d_eb06_3e64_7ff6, 0x612b_e4ff_f95d_f941),
    );
}
