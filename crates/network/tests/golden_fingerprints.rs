//! Golden fingerprints of simulated behaviour: the oracle for the cycle
//! loop.
//!
//! Every point below is run and its [`SimResult`] hashed bit-exactly into
//! one 64-bit fingerprint (see `common/mod.rs`). The expected fingerprints
//! are the inline tables in this file. Any change to an arbitration
//! decision, an RNG draw, a latency sample or the saturation cut-off moves
//! at least one of them.
//!
//! This file covers the paper's four traffic patterns under PROUD and
//! LA-PROUD on meshes, tori, a 3-D mesh and a faulty mesh, at low load and
//! at 3.0× saturation load (at 100 + 700 messages the backlog never
//! reaches the 16-per-node cut-off, so those points drain with full
//! statistics under heavy contention); one point per router, routing,
//! table and workload axis and for each of the other four patterns; and
//! the pinned 16×16 reference sweep (36284 cycles, 20000 messages, 400000
//! flits). The 8×8 paper grid and the
//! saturation cut-off are pinned in `scheduler_equivalence.rs`, the 16×16
//! reference point in `scenario_equivalence.rs`.
//!
//! When a deliberate semantic change moves a fingerprint, the failing test
//! prints its whole recomputed table in the format below; paste it over
//! the old one and say in the change description why behaviour moved.

mod common;

use common::{build, check, pipeline_tag, points, run_grid, Golden};
use lapses_core::psh::{CreditAggregate, LfuCounting, PathSelection};
use lapses_network::scenario::{Scenario, ScenarioBuilder};
use lapses_network::{
    Algorithm, ArrivalKind, Pattern, ScenarioAxis, SweepGrid, SweepRunner, TableKind,
};
use lapses_topology::Mesh;
use lapses_traffic::{LengthDistribution, Trace, TraceEvent};
use std::sync::Arc;

/// Four topologies × PROUD/LA-PROUD × the paper's four patterns × loads
/// 0.2 and 3.0, at 100 + 700 messages (master seed 2718).
#[test]
fn topologies_at_low_and_overload() {
    let topologies: [(&str, ScenarioBuilder); 4] = [
        ("mesh8x8", Scenario::builder().mesh_2d(8, 8)),
        ("torus8x8", Scenario::builder().torus_2d(8, 8).vcs(4, 2)),
        (
            "mesh4x4x4",
            Scenario::builder().topology(Mesh::mesh(&[4, 4, 4])),
        ),
        (
            "faulty8x8",
            Scenario::builder()
                .mesh_2d(8, 8)
                .random_faults(6, 42)
                .algorithm(Algorithm::UpDownAdaptive),
        ),
    ];
    let mut grid = SweepGrid::new();
    for (topo, base) in topologies {
        for lookahead in [false, true] {
            for pattern in Pattern::PAPER_FOUR {
                let scenario = build(
                    base.clone()
                        .lookahead(lookahead)
                        .pattern(pattern)
                        .message_counts(100, 700),
                );
                grid = grid
                    .scenario_series(
                        format!("{topo}/{}/{}", pipeline_tag(lookahead), pattern.name()),
                        &scenario,
                        &ScenarioAxis::Load(vec![0.2, 3.0]),
                    )
                    .expect("load axis is valid");
            }
        }
    }
    let all = run_grid(&grid, 2718);
    for (name, r) in &all {
        assert!(!r.saturated && r.messages == 700, "{name} must drain fully");
    }
    check("TOPOLOGIES", TOPOLOGIES, &all);
}

#[rustfmt::skip]
const TOPOLOGIES: &[Golden] = &[
    ("mesh8x8/proud/uniform@0.2", 2692, 700, 83400, 0x4d960b0f50aaae3d),
    ("mesh8x8/proud/uniform@3", 885, 700, 85940, 0x9f9f6249767cd21d),
    ("mesh8x8/proud/transpose@0.2", 2964, 700, 93560, 0xb3dbbea83338b855),
    ("mesh8x8/proud/transpose@3", 1380, 700, 97120, 0x990dba50c2bcbec0),
    ("mesh8x8/proud/bit-reversal@0.2", 3010, 700, 95080, 0xbaf87cbdb4349b13),
    ("mesh8x8/proud/bit-reversal@3", 1534, 700, 98360, 0x47d9380c9759db2b),
    ("mesh8x8/proud/perfect-shuffle@0.2", 2596, 700, 66520, 0x375047ba9718e27e),
    ("mesh8x8/proud/perfect-shuffle@3", 1096, 700, 65940, 0x6b47f9a5518b0a1a),
    ("mesh8x8/la/uniform@0.2", 2586, 700, 85220, 0x35f81307c5cbca19),
    ("mesh8x8/la/uniform@3", 888, 700, 85460, 0x96d98f1734dc034b),
    ("mesh8x8/la/transpose@0.2", 2895, 700, 95320, 0x641709119832ff8e),
    ("mesh8x8/la/transpose@3", 1550, 700, 97000, 0xc31ee43dc89616d0),
    ("mesh8x8/la/bit-reversal@0.2", 2975, 700, 97220, 0xd3545a23e7eb516c),
    ("mesh8x8/la/bit-reversal@3", 1497, 700, 97960, 0x9f8308bcc979de1b),
    ("mesh8x8/la/perfect-shuffle@0.2", 2621, 700, 64500, 0x67b8c513faf0aa42),
    ("mesh8x8/la/perfect-shuffle@3", 1211, 700, 66760, 0x3b94142f611ee578),
    ("torus8x8/proud/uniform@0.2", 1314, 700, 65380, 0x54e98587bb546fa3),
    ("torus8x8/proud/uniform@3", 610, 700, 66580, 0x8fb8ebf184df6377),
    ("torus8x8/proud/transpose@0.2", 1494, 700, 73760, 0xedc0d1e881d6a31c),
    ("torus8x8/proud/transpose@3", 804, 700, 70400, 0x27483c3445073e8b),
    ("torus8x8/proud/bit-reversal@0.2", 1536, 700, 72460, 0xb67ee333dcc92de3),
    ("torus8x8/proud/bit-reversal@3", 755, 700, 72440, 0xe4c05fbd2b4ee1ad),
    ("torus8x8/proud/perfect-shuffle@0.2", 1357, 700, 67160, 0x4c14425975a4b40d),
    ("torus8x8/proud/perfect-shuffle@3", 1194, 700, 66280, 0x86a73eac792ddd32),
    ("torus8x8/la/uniform@0.2", 1341, 700, 64820, 0x46ac573bb7bd6c01),
    ("torus8x8/la/uniform@3", 623, 700, 64920, 0x80e2549141df2a43),
    ("torus8x8/la/transpose@0.2", 1521, 700, 72440, 0xef1e17a971882431),
    ("torus8x8/la/transpose@3", 830, 700, 71440, 0x36de0531dde9002d),
    ("torus8x8/la/bit-reversal@0.2", 1458, 700, 72620, 0xfed952bc0aa13f4f),
    ("torus8x8/la/bit-reversal@3", 861, 700, 73820, 0x506ad59fb7a01d77),
    ("torus8x8/la/perfect-shuffle@0.2", 1446, 700, 66140, 0xbf042712d62bd070),
    ("torus8x8/la/perfect-shuffle@3", 1075, 700, 66620, 0xd900ad24f3c16924),
    ("mesh4x4x4/proud/uniform@0.2", 1351, 700, 61240, 0xebc64e282b259bee),
    ("mesh4x4x4/proud/uniform@3", 525, 700, 61860, 0x7a1be79ac9f64025),
    ("mesh4x4x4/proud/transpose@0.2", 1450, 700, 69600, 0x33806501b5c72c6e),
    ("mesh4x4x4/proud/transpose@3", 755, 700, 68920, 0x2acf49e814dc5d1d),
    ("mesh4x4x4/proud/bit-reversal@0.2", 1437, 700, 54720, 0x369e61206c70d7d1),
    ("mesh4x4x4/proud/bit-reversal@3", 702, 700, 55560, 0x60819b43e95c9eb6),
    ("mesh4x4x4/proud/perfect-shuffle@0.2", 1372, 700, 50340, 0x74e06f380ebd3b5d),
    ("mesh4x4x4/proud/perfect-shuffle@3", 807, 700, 49580, 0xb7c1ca163b867b73),
    ("mesh4x4x4/la/uniform@0.2", 1330, 700, 61120, 0x8ec52e09ee1540f7),
    ("mesh4x4x4/la/uniform@3", 557, 700, 61520, 0x98374d98e449de82),
    ("mesh4x4x4/la/transpose@0.2", 1581, 700, 67620, 0x2d323fc92a38e4f5),
    ("mesh4x4x4/la/transpose@3", 838, 700, 67660, 0xb1fd3a0f96b65e34),
    ("mesh4x4x4/la/bit-reversal@0.2", 1459, 700, 53960, 0x727fa6da313f8143),
    ("mesh4x4x4/la/bit-reversal@3", 745, 700, 54820, 0xf03b2f3d4b9aecd5),
    ("mesh4x4x4/la/perfect-shuffle@0.2", 1342, 700, 48960, 0xe58e11d87bd26a17),
    ("mesh4x4x4/la/perfect-shuffle@3", 694, 700, 49760, 0x0d0268c410130523),
    ("faulty8x8/proud/uniform@0.2", 2457, 700, 87360, 0xdcee42f069cb4f59),
    ("faulty8x8/proud/uniform@3", 1172, 700, 87700, 0x1068ba2130ac982d),
    ("faulty8x8/proud/transpose@0.2", 3120, 700, 95600, 0xde1d0ebc12087ef0),
    ("faulty8x8/proud/transpose@3", 2094, 700, 103960, 0xd154bb375d364f47),
    ("faulty8x8/proud/bit-reversal@0.2", 2896, 700, 99700, 0x70c35dedce7a4987),
    ("faulty8x8/proud/bit-reversal@3", 1734, 700, 102160, 0x30bd3d7ef10dedfe),
    ("faulty8x8/proud/perfect-shuffle@0.2", 2596, 700, 68160, 0x85664ea61a4f1af1),
    ("faulty8x8/proud/perfect-shuffle@3", 1248, 700, 68960, 0xd863d4f94f4db43c),
    ("faulty8x8/la/uniform@0.2", 2580, 700, 88500, 0xc4175858a4164cdf),
    ("faulty8x8/la/uniform@3", 1173, 700, 89920, 0xbbaee998ece40f2c),
    ("faulty8x8/la/transpose@0.2", 3328, 700, 96040, 0xcb21eeb1103ddcb6),
    ("faulty8x8/la/transpose@3", 2276, 700, 104840, 0xfca26754b8f9d5fe),
    ("faulty8x8/la/bit-reversal@0.2", 2870, 700, 99060, 0x804604792534ee65),
    ("faulty8x8/la/bit-reversal@3", 1785, 700, 103300, 0x87d6b24568516155),
    ("faulty8x8/la/perfect-shuffle@0.2", 2641, 700, 68240, 0x5d02eaadfa1bdfef),
    ("faulty8x8/la/perfect-shuffle@3", 1248, 700, 69580, 0x81a7eb58a86d3c2c),
];

/// A replayable trace over 64 nodes: 900 messages of mixed lengths.
fn trace_64() -> Arc<Trace> {
    let mut events = Vec::new();
    for i in 0..900u32 {
        let src = (i * 7) % 64;
        let mut dest = (i * 13 + 5) % 64;
        if dest == src {
            dest = (dest + 1) % 64;
        }
        events.push(TraceEvent {
            cycle: (i / 3) as u64,
            src,
            dest,
            length: 4 + i % 17,
        });
    }
    Arc::new(Trace::from_events(64, events).expect("valid trace"))
}

/// One point per axis the grids above do not cross: deterministic and
/// turn-model routing, every path-selection heuristic, a two-cycle table
/// RAM, the economical/interval/meta tables, plain up*/down*, link delay,
/// message lengths, arrival processes, bursty and trace workloads
/// (master seed 31415).
#[test]
fn router_routing_table_and_workload_axes() {
    let base = || {
        Scenario::builder()
            .mesh_2d(8, 8)
            .message_counts(100, 700)
            .load(0.4)
    };
    let mut axes: Vec<(String, ScenarioBuilder)> = vec![
        (
            "det/proud".into(),
            base().algorithm(Algorithm::DimensionOrder).vcs(4, 0),
        ),
        (
            "det/la".into(),
            base()
                .algorithm(Algorithm::DimensionOrder)
                .vcs(4, 0)
                .lookahead(true),
        ),
        (
            "north-last".into(),
            base().algorithm(Algorithm::NorthLast).vcs(4, 0),
        ),
        (
            "west-first/la".into(),
            base()
                .algorithm(Algorithm::WestFirst)
                .vcs(4, 0)
                .lookahead(true),
        ),
        (
            "negative-first".into(),
            base().algorithm(Algorithm::NegativeFirst).vcs(4, 0),
        ),
        ("tl2/proud".into(), base().table_lookup_cycles(2)),
        (
            "tl2/la".into(),
            base().table_lookup_cycles(2).lookahead(true),
        ),
        (
            "table/economical".into(),
            base().table(TableKind::Economical),
        ),
        (
            "table/interval/la".into(),
            base().table(TableKind::Interval).lookahead(true),
        ),
        ("table/meta-rows".into(), base().table(TableKind::MetaRows)),
        (
            "table/meta-blocks/la".into(),
            base()
                .table(TableKind::MetaBlocks(vec![4, 4]))
                .lookahead(true),
        ),
        (
            "faulty/up-down/economical".into(),
            base()
                .random_faults(6, 42)
                .algorithm(Algorithm::UpDown)
                .table(TableKind::Economical),
        ),
        (
            "link-delay-2/la".into(),
            base().link_delay(2).lookahead(true),
        ),
        (
            "lengths/bimodal".into(),
            base().lengths(LengthDistribution::Bimodal {
                short: 4,
                long: 32,
                long_fraction: 0.25,
            }),
        ),
        (
            "lengths/uniform-range/la".into(),
            base()
                .lengths(LengthDistribution::UniformRange { min: 2, max: 30 })
                .lookahead(true),
        ),
        (
            "arrivals/bernoulli".into(),
            base().arrivals(ArrivalKind::Bernoulli),
        ),
        (
            "arrivals/periodic/la".into(),
            base().arrivals(ArrivalKind::Periodic).lookahead(true),
        ),
        ("bursty".into(), base().bursty(8, 2.0).load(0.2)),
        (
            "bursty/la".into(),
            base().bursty(8, 2.0).load(0.2).lookahead(true),
        ),
        ("trace".into(), base().trace(trace_64())),
        ("trace/la".into(), base().trace(trace_64()).lookahead(true)),
    ];
    let selections = [
        PathSelection::Random,
        PathSelection::MinMux,
        PathSelection::Lfu(LfuCounting::PerFlit),
        PathSelection::Lfu(LfuCounting::PerMessage),
        PathSelection::Lru,
        PathSelection::MaxCredit(CreditAggregate::Sum),
        PathSelection::MaxCredit(CreditAggregate::Max),
    ];
    for (i, psh) in selections.into_iter().enumerate() {
        let lookahead = i % 2 == 1;
        axes.push((
            format!("psh/{psh:?}/{}", pipeline_tag(lookahead)),
            base().path_selection(psh).lookahead(lookahead),
        ));
    }
    let extra_patterns = [
        Pattern::BitComplement,
        Pattern::Tornado,
        Pattern::Hotspot {
            node: 27,
            probability: 0.05,
        },
        Pattern::NearestNeighbor,
    ];
    for pattern in extra_patterns {
        axes.push((
            format!("pattern/{}", pattern.name()),
            base().pattern(pattern),
        ));
    }
    let mut grid = SweepGrid::new();
    for (name, b) in axes {
        grid = grid.scenario_point(name, 0.0, &build(b));
    }
    check("AXES", AXES, &run_grid(&grid, 31415));
}

#[rustfmt::skip]
const AXES: &[Golden] = &[
    ("det/proud@0", 1382, 700, 84400, 0x9b0fe843f830a457),
    ("det/la@0", 1382, 700, 86380, 0x3d5af79ef6dd4d25),
    ("north-last@0", 1356, 700, 85080, 0x794edf43ea1a977b),
    ("west-first/la@0", 1441, 700, 84560, 0xf14a8e32e6c93dbd),
    ("negative-first@0", 1481, 700, 88140, 0x3f920f49e4bcbcc9),
    ("tl2/proud@0", 1344, 700, 88760, 0x1749dda799737f2e),
    ("tl2/la@0", 1396, 700, 85900, 0x2aa6a1cab3d47e4c),
    ("table/economical@0", 1374, 700, 86420, 0x0e62f40e390b57fd),
    ("table/interval/la@0", 1366, 700, 86940, 0x0edc6643bbc9be6d),
    ("table/meta-rows@0", 1342, 700, 83060, 0x06b26618e3c9e8f5),
    ("table/meta-blocks/la@0", 1597, 700, 85880, 0xb1f28e6eae918b79),
    ("faulty/up-down/economical@0", 2813, 700, 91680, 0x074c0bff2fa22376),
    ("link-delay-2/la@0", 1322, 700, 87460, 0xc97ff5b24ec1fee1),
    ("lengths/bimodal@0", 799, 700, 46604, 0xf00c4c5f4f8549fd),
    ("lengths/uniform-range/la@0", 1135, 700, 69687, 0x5c8808eef1a2430b),
    ("arrivals/bernoulli@0", 1383, 700, 85720, 0x8712ac48bd2034e6),
    ("arrivals/periodic/la@0", 1413, 700, 85920, 0x2107f8ea9e4a5c90),
    ("bursty@0", 2588, 700, 86700, 0x7f21498998c15d71),
    ("bursty/la@0", 2604, 700, 83500, 0x861ffd983c673fcc),
    ("trace@0", 483, 700, 47942, 0x60508dea0ed00b8b),
    ("trace/la@0", 471, 700, 47942, 0xb91ced30ac875554),
    ("psh/Random/proud@0", 1307, 700, 84600, 0xe36fd81b265332c4),
    ("psh/MinMux/la@0", 1318, 700, 88020, 0xf4a27251305a2113),
    ("psh/Lfu(PerFlit)/proud@0", 1321, 700, 86620, 0x2e86de636ec2c782),
    ("psh/Lfu(PerMessage)/la@0", 1252, 700, 84680, 0xb1f203bdd3ea0c89),
    ("psh/Lru/proud@0", 1338, 700, 87580, 0xc6007015fa75f254),
    ("psh/MaxCredit(Sum)/la@0", 1364, 700, 84380, 0xdc116271566b33ae),
    ("psh/MaxCredit(Max)/proud@0", 1358, 700, 86540, 0xe7c92c11e49825ba),
    ("pattern/bit-complement@0", 1768, 700, 131080, 0x7fafa0e00c164094),
    ("pattern/tornado@0", 1353, 700, 60360, 0x44e43bf9d0a93057),
    ("pattern/hotspot@0", 1479, 700, 82800, 0xf7b1eadc6ea6b0cf),
    ("pattern/nearest-neighbor@0", 1375, 700, 16000, 0x9ecc6b1c69372ac3),
];

/// The pinned reference sweep: 16×16 LA-PROUD, the paper's four patterns
/// at load 0.2, 500 + 5000 messages each, master seed 1999 — 36284
/// cycles, 20000 messages and 400000 delivered flits in total.
#[test]
fn pinned_reference_sweep() {
    let mut grid = SweepGrid::new();
    for pattern in Pattern::PAPER_FOUR {
        let scenario = build(
            Scenario::builder()
                .mesh_2d(16, 16)
                .lookahead(true)
                .pattern(pattern)
                .message_counts(500, 5_000),
        );
        grid = grid
            .scenario_series(pattern.name(), &scenario, &ScenarioAxis::Load(vec![0.2]))
            .expect("load axis is valid");
    }
    let report = SweepRunner::new()
        .with_threads(2)
        .with_master_seed(1999)
        .run(&grid);
    let all = points(&report);
    let cycles: u64 = all.iter().map(|(_, r)| r.cycles).sum();
    let messages: u64 = all.iter().map(|(_, r)| r.messages).sum();
    let flits: f64 = all
        .iter()
        .map(|(_, r)| r.throughput * r.cycles as f64 * 256.0)
        .sum();
    assert_eq!(
        (cycles, messages, flits.round() as u64),
        (36_284, 20_000, 400_000),
        "pinned reference outcome moved"
    );
    check("PINNED_REFERENCE", PINNED_REFERENCE, &all);
}

#[rustfmt::skip]
const PINNED_REFERENCE: &[Golden] = &[
    ("uniform@0.2", 8651, 5000, 1164940, 0x5d486fdb3eb05f5b),
    ("transpose@0.2", 9280, 5000, 1242120, 0xc2ae6e29961630a5),
    ("bit-reversal@0.2", 9470, 5000, 1248200, 0x43ffdca2704eb5f8),
    ("perfect-shuffle@0.2", 8883, 5000, 883760, 0x2523b062139405b3),
];
