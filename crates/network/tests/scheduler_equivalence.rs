//! The cycle loop's performance machinery must be invisible in the
//! results. Three optimizations once had a reference path each, and a
//! sweep over all four paper traffic patterns, two loads and both
//! pipelines (PROUD and LA-PROUD) had to be **bit-identical** with each
//! optimization forced on vs forced off:
//!
//! * the activity-tracked scheduler vs scanning every component;
//! * the fused single-pass router walk vs the staged reference walk;
//! * batched per-router link delivery vs flit-at-a-time delivery.
//!
//! The reference paths are gone; their outcomes remain as the golden
//! fingerprint tables below (see `common/mod.rs` for the hash). Every
//! table was recorded before the deletion and was reproduced with each
//! reference path forced on alone, with all three together, and with
//! none. Each test pins the 8×8 grid under its own master seed, so the
//! four grids draw four independent sets of arrivals and destinations.

mod common;

use common::{build, check, pipeline_tag, run_grid, Golden};
use lapses_network::scenario::Scenario;
use lapses_network::{Pattern, ScenarioAxis, SimResult, SweepGrid};

/// The 8×8 paper grid: PROUD and LA-PROUD × the four paper patterns ×
/// loads 0.1 and 0.25, at 100 + 700 messages, run on two threads under
/// `master_seed`.
fn run_paper_grid(master_seed: u64) -> Vec<(String, SimResult)> {
    let mut grid = SweepGrid::new();
    for lookahead in [false, true] {
        let base = Scenario::builder()
            .mesh_2d(8, 8)
            .lookahead(lookahead)
            .message_counts(100, 700);
        for pattern in Pattern::PAPER_FOUR {
            let scenario = build(base.clone().pattern(pattern));
            grid = grid
                .scenario_series(
                    format!("{}/{}", pipeline_tag(lookahead), pattern.name()),
                    &scenario,
                    &ScenarioAxis::Load(vec![0.1, 0.25]),
                )
                .expect("load axis is valid");
        }
    }
    let points = run_grid(&grid, master_seed);
    assert_full_coverage(&points);
    points
}

/// Asserts the grid covers both pipelines and all four patterns with
/// real, unsaturated data, so the comparison is not vacuous.
fn assert_full_coverage(points: &[(String, SimResult)]) {
    assert_eq!(points.len(), 16);
    for (name, r) in points {
        assert!(!r.saturated, "{name} saturated");
        assert!(r.messages > 0 && r.avg_latency > 0.0, "{name} is empty");
        assert!(r.cycles > 0);
    }
}

#[test]
fn active_set_scheduler_is_bit_identical_to_always_step() {
    check("ALWAYS_STEP", ALWAYS_STEP, &run_paper_grid(424242));
}

#[test]
fn fused_pipeline_is_bit_identical_to_staged_walk() {
    check("STAGED_WALK", STAGED_WALK, &run_paper_grid(424243));
}

#[test]
fn batched_delivery_is_bit_identical_to_per_flit_delivery() {
    check("PER_FLIT", PER_FLIT, &run_paper_grid(424244));
}

#[test]
fn all_reference_paths_together_match_the_full_fast_path() {
    check("ALL_REFERENCE", ALL_REFERENCE, &run_paper_grid(424245));
}

#[test]
fn scheduler_equivalence_holds_under_saturation() {
    // Saturated points exercise the watchdog/backlog paths (the O(1)
    // counters): the cut-off decision must not shift by a cycle.
    let r = build(
        Scenario::builder()
            .mesh_2d(4, 4)
            .message_counts(200, 1_500)
            .load(3.0)
            .seed(77),
    )
    .run();
    assert!(r.saturated, "the overload point must hit the cut-off");
    let points = [("4x4/overload-cutoff@3".to_string(), r)];
    check("CUTOFF", CUTOFF, &points);
}

#[rustfmt::skip]
const ALWAYS_STEP: &[Golden] = &[
    ("proud/uniform@0.1", 5084, 700, 85560, 0x35c3fb4e51fd3eb6),
    ("proud/uniform@0.25", 2029, 700, 85620, 0xb60619c09b5521f9),
    ("proud/transpose@0.1", 6376, 700, 97120, 0xc85d665aa348b766),
    ("proud/transpose@0.25", 2429, 700, 93920, 0x6c58483f76cd1984),
    ("proud/bit-reversal@0.1", 5910, 700, 97020, 0x2a428ff347e0bd1a),
    ("proud/bit-reversal@0.25", 2481, 700, 94720, 0x7a99ef9b1085add8),
    ("proud/perfect-shuffle@0.1", 5400, 700, 65660, 0xe43198e76e930b5a),
    ("proud/perfect-shuffle@0.25", 2095, 700, 69300, 0xd6b6843ea935892e),
    ("la/uniform@0.1", 5334, 700, 86720, 0xc25c74fe45bff125),
    ("la/uniform@0.25", 2029, 700, 84320, 0x5c301699811a78f6),
    ("la/transpose@0.1", 5720, 700, 91480, 0xc3d034b1f0d9f01d),
    ("la/transpose@0.25", 2339, 700, 94320, 0x6ef2ff23b055620b),
    ("la/bit-reversal@0.1", 6030, 700, 97640, 0xd7e4c0932b8721c3),
    ("la/bit-reversal@0.25", 2496, 700, 95560, 0x0e5da9261b664509),
    ("la/perfect-shuffle@0.1", 4836, 700, 66480, 0xaa3802c3846d04c5),
    ("la/perfect-shuffle@0.25", 2179, 700, 65020, 0xef035d272eddae83),
];

#[rustfmt::skip]
const STAGED_WALK: &[Golden] = &[
    ("proud/uniform@0.1", 4927, 700, 88280, 0x4bd424790b8fa72b),
    ("proud/uniform@0.25", 2106, 700, 84580, 0x2f3c5974a70787b0),
    ("proud/transpose@0.1", 5907, 700, 95160, 0xfa38ed6d54eed521),
    ("proud/transpose@0.25", 2384, 700, 93160, 0xb7a5eab2edd1dffc),
    ("proud/bit-reversal@0.1", 5656, 700, 96400, 0x09bdd44c532329f2),
    ("proud/bit-reversal@0.25", 2461, 700, 96080, 0xc3a7da5332f1a77d),
    ("proud/perfect-shuffle@0.1", 5337, 700, 65200, 0x16bdae67d54220b7),
    ("proud/perfect-shuffle@0.25", 2191, 700, 66140, 0xe643e5e18d90c4ea),
    ("la/uniform@0.1", 4807, 700, 86820, 0x4d32616538da84b9),
    ("la/uniform@0.25", 2126, 700, 85660, 0x4ba4f20a011c860d),
    ("la/transpose@0.1", 5687, 700, 96080, 0x4c052bbe487c0410),
    ("la/transpose@0.25", 2489, 700, 93240, 0x3a3ac7614c418a26),
    ("la/bit-reversal@0.1", 5585, 700, 96480, 0x619d2cf4e601ba86),
    ("la/bit-reversal@0.25", 2363, 700, 95660, 0x47860c233f5aec6b),
    ("la/perfect-shuffle@0.1", 5015, 700, 66740, 0x0bbc04fdffd37780),
    ("la/perfect-shuffle@0.25", 2154, 700, 64300, 0x6be1f53a21896bcc),
];

#[rustfmt::skip]
const PER_FLIT: &[Golden] = &[
    ("proud/uniform@0.1", 4739, 700, 82680, 0x75c3bc04afa3456b),
    ("proud/uniform@0.25", 2076, 700, 86240, 0xbafbc72a25e43299),
    ("proud/transpose@0.1", 5889, 700, 94840, 0x4a16a9369b1ef4b6),
    ("proud/transpose@0.25", 2353, 700, 96000, 0xf7ab81a3dc4434ed),
    ("proud/bit-reversal@0.1", 5453, 700, 94380, 0x6f4a5af93316290c),
    ("proud/bit-reversal@0.25", 2404, 700, 97100, 0x18c520b83a4e819a),
    ("proud/perfect-shuffle@0.1", 5020, 700, 66340, 0xeb75829b64c1cc4b),
    ("proud/perfect-shuffle@0.25", 2098, 700, 66180, 0xb8300f46bfc78bd3),
    ("la/uniform@0.1", 5184, 700, 87620, 0x0fc9a7d1f2a5e69c),
    ("la/uniform@0.25", 2159, 700, 84140, 0x44541ab2b993e15c),
    ("la/transpose@0.1", 5839, 700, 95280, 0x49aac6c80663e7ce),
    ("la/transpose@0.25", 2333, 700, 100240, 0x1a810092f65ffdf3),
    ("la/bit-reversal@0.1", 5913, 700, 97620, 0x6d46ecb47a0be619),
    ("la/bit-reversal@0.25", 2375, 700, 97020, 0x98c5cf85c5aa2b97),
    ("la/perfect-shuffle@0.1", 5182, 700, 67180, 0x83a17e8718c69cc7),
    ("la/perfect-shuffle@0.25", 2180, 700, 66400, 0x2727085a3b5862a4),
];

#[rustfmt::skip]
const ALL_REFERENCE: &[Golden] = &[
    ("proud/uniform@0.1", 5119, 700, 86200, 0x1c1bffdf996fa604),
    ("proud/uniform@0.25", 2159, 700, 88280, 0x9899cb34beaf7023),
    ("proud/transpose@0.1", 5660, 700, 95600, 0x2662afc020b91add),
    ("proud/transpose@0.25", 2409, 700, 95520, 0x0235eba3129b3045),
    ("proud/bit-reversal@0.1", 5753, 700, 95160, 0x19ddd9cf521b6db1),
    ("proud/bit-reversal@0.25", 2316, 700, 94360, 0x52fa7d3df0db20cc),
    ("proud/perfect-shuffle@0.1", 5216, 700, 66920, 0x68e5bda46d51ac5f),
    ("proud/perfect-shuffle@0.25", 2158, 700, 64440, 0xe4b4cdba3bcfc00d),
    ("la/uniform@0.1", 5040, 700, 85800, 0x24e5af2c0fa104bb),
    ("la/uniform@0.25", 2084, 700, 87060, 0x20eb62c45389794f),
    ("la/transpose@0.1", 5629, 700, 92240, 0x368555f3c1194576),
    ("la/transpose@0.25", 2415, 700, 96800, 0x85cc6f42dffee4d3),
    ("la/bit-reversal@0.1", 5598, 700, 99500, 0x91f0b81ca6a945a6),
    ("la/bit-reversal@0.25", 2399, 700, 97800, 0xc4362a0b94c6b9e5),
    ("la/perfect-shuffle@0.1", 5551, 700, 66880, 0x1fd81380ade187c2),
    ("la/perfect-shuffle@0.25", 2175, 700, 65640, 0x579a9f2eca722d4b),
];

#[rustfmt::skip]
const CUTOFF: &[Golden] = &[
    ("4x4/overload-cutoff@3", 152, 0, 0, 0x74d408f9c6a740a1),
];
