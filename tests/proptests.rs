//! Property-based tests over the core invariants of the reproduction.

use lapses::core::flit::{Flit, FlitKind, MsgRef};
use lapses::core::tables::{EconomicalTable, FullTable, IntervalTable, TableScheme};
use lapses::prelude::*;
use lapses::sim::stats::{Histogram, RunningStats};
use lapses::sim::PhaseController;
use lapses::topology::labeling::{ClusterId, ClusterMap};
use lapses::topology::SignVec;
use proptest::prelude::*;

fn arb_mesh() -> impl Strategy<Value = Mesh> {
    (2u16..=9, 2u16..=9).prop_map(|(w, h)| Mesh::mesh_2d(w, h))
}

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::DimensionOrder),
        Just(Algorithm::Duato),
        Just(Algorithm::NorthLast),
        Just(Algorithm::WestFirst),
        Just(Algorithm::NegativeFirst),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// §5.2.2: the economical table equals the full table for every
    /// source-relative algorithm, on every mesh, for every (router, dest).
    #[test]
    fn economical_equals_full_everywhere(mesh in arb_mesh(), algo in arb_algorithm()) {
        let full = FullTable::program(&mesh, &algo);
        let econ = EconomicalTable::program(&mesh, &algo);
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                let f = full.entry(node, dest);
                let e = econ.entry(node, dest);
                prop_assert_eq!(f.candidates, e.candidates);
                prop_assert_eq!(f.escape, e.escape);
            }
        }
    }

    /// Every programmed entry is minimal: each candidate strictly reduces
    /// distance, and the escape is always among the candidates.
    #[test]
    fn table_entries_are_minimal_and_consistent(
        mesh in arb_mesh(),
        algo in arb_algorithm(),
    ) {
        let table = FullTable::program(&mesh, &algo);
        for node in mesh.nodes() {
            for dest in mesh.nodes() {
                let e = table.entry(node, dest);
                if node == dest {
                    prop_assert!(e.is_local());
                    continue;
                }
                prop_assert!(!e.candidates.is_empty());
                let esc = e.escape.expect("escape exists away from dest");
                prop_assert!(e.candidates.contains(esc));
                for p in e.candidates.iter() {
                    let nb = mesh.neighbor(node, p.direction().unwrap()).unwrap();
                    prop_assert_eq!(
                        mesh.distance(nb, dest) + 1,
                        mesh.distance(node, dest)
                    );
                }
            }
        }
    }

    /// Walking any scheme's escape route reaches the destination in exactly
    /// the minimal number of hops — tables can never livelock a message.
    #[test]
    fn escape_walks_terminate_minimally(
        mesh in arb_mesh(),
        src_i in 0usize..81,
        dest_i in 0usize..81,
    ) {
        let n = mesh.node_count();
        let src = NodeId((src_i % n) as u32);
        let dest = NodeId((dest_i % n) as u32);
        let schemes: Vec<Box<dyn TableScheme>> = vec![
            Box::new(FullTable::program(&mesh, &Algorithm::Duato)),
            Box::new(EconomicalTable::program(&mesh, &Algorithm::Duato)),
            Box::new(IntervalTable::program(&mesh)),
        ];
        for scheme in &schemes {
            let mut at = src;
            let mut hops = 0u32;
            loop {
                let e = scheme.entry(at, dest);
                let p = e.escape.expect("programmed entry");
                if p.is_local() {
                    break;
                }
                at = mesh.neighbor(at, p.direction().unwrap()).unwrap();
                hops += 1;
                prop_assert!(hops <= mesh.distance(src, dest), "walk too long");
            }
            prop_assert_eq!(at, dest);
            prop_assert_eq!(hops, mesh.distance(src, dest));
        }
    }

    /// Meta-table safe sets: non-empty toward every foreign cluster, and
    /// minimal toward every node of that cluster.
    #[test]
    fn meta_safe_sets_sound(w in 2u16..=4, h in 2u16..=4, cw in 1u16..=2, ch in 1u16..=2) {
        let mesh = Mesh::mesh_2d(w * cw * 2, h * ch);
        let shape = [cw * 2, ch];
        let map = ClusterMap::blocks(&mesh, &shape);
        for node in mesh.nodes() {
            let coord = mesh.coord_of(node);
            let home = map.cluster_of(&coord);
            for c in 0..map.cluster_count() as u32 {
                let cluster = ClusterId(c);
                if cluster == home {
                    continue;
                }
                let safe = map.safe_ports_toward(&coord, cluster);
                prop_assert!(!safe.is_empty());
                // Safe ports reduce the distance to every member node.
                let (lo, hi) = map.cluster_bounds(cluster);
                for port in safe.iter() {
                    let nb = mesh.neighbor(node, port.direction().unwrap()).unwrap();
                    let nb_c = mesh.coord_of(nb);
                    for dim in 0..mesh.dims() {
                        // Componentwise: moving along the safe port never
                        // increases distance to the cluster box.
                        let dist = |x: u16| {
                            if x < lo[dim] { (lo[dim] - x) as i32 }
                            else if x > hi[dim] { (x - hi[dim]) as i32 }
                            else { 0 }
                        };
                        prop_assert!(dist(nb_c[dim]) <= dist(coord[dim]));
                    }
                }
            }
        }
    }

    /// Sign-vector table indices form a bijection on every dimensionality.
    #[test]
    fn sign_index_bijection(dims in 1usize..=4) {
        let len = SignVec::table_len(dims);
        let mut seen = vec![false; len];
        for (i, slot) in seen.iter_mut().enumerate() {
            let sv = SignVec::from_table_index(i, dims);
            prop_assert_eq!(sv.table_index(), i);
            prop_assert!(!*slot);
            *slot = true;
        }
    }

    /// Message construction: exactly one head, one tail, bodies between,
    /// every flit carrying the message's handle and destination.
    #[test]
    fn message_structure(len in 1u32..200) {
        let flits = Flit::message(MsgRef(0), NodeId(1), len);
        prop_assert_eq!(flits.len() as u32, len);
        let heads = flits.iter().filter(|f| f.kind.is_head()).count();
        let tails = flits.iter().filter(|f| f.kind.is_tail()).count();
        prop_assert_eq!(heads, 1);
        prop_assert_eq!(tails, 1);
        prop_assert!(flits[0].kind.is_head());
        prop_assert!(flits.last().unwrap().kind.is_tail());
        for (i, f) in flits.iter().enumerate() {
            prop_assert_eq!(f.kind, FlitKind::at(i as u32, len));
            let interior = i > 0 && i + 1 < len as usize;
            prop_assert_eq!(f.kind == FlitKind::Body, interior);
            prop_assert_eq!((f.rec, f.dest), (MsgRef(0), NodeId(1)));
        }
    }

    /// Phase controller: deliveries never exceed injections; Done is
    /// reached exactly when all measured messages landed.
    #[test]
    fn phase_controller_invariants(warmup in 0u64..20, measure in 1u64..50) {
        let mut pc = PhaseController::new(warmup, measure);
        let mut measured = 0u64;
        while pc.accepting_injections() {
            if pc.note_injection() {
                measured += 1;
            }
        }
        prop_assert_eq!(measured, measure);
        prop_assert_eq!(pc.injected(), warmup + measure);
        for i in 0..measure {
            prop_assert!(pc.measured_in_flight() == measure - i);
            pc.note_measured_delivery();
        }
        prop_assert_eq!(pc.phase(), lapses::sim::MeasurementPhase::Done);
    }

    /// Histogram percentiles are monotone in p and bracket the samples.
    #[test]
    fn histogram_percentiles_monotone(samples in prop::collection::vec(0.0f64..500.0, 10..200)) {
        let mut h = Histogram::new(2.0, 512);
        let mut stats = RunningStats::new();
        for &s in &samples {
            h.record(s);
            stats.record(s);
        }
        let p50 = h.percentile(50.0).unwrap();
        let p95 = h.percentile(95.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        prop_assert!(p50 <= p95 + 1e-9);
        prop_assert!(p95 <= p99 + 1e-9);
        prop_assert!(p99 <= stats.max().unwrap() + 2.0 + 1e-9); // bucket width slack
    }

    /// End-to-end mini-simulation: every offered message is delivered, for
    /// random loads and patterns, under both pipelines.
    #[test]
    fn small_networks_deliver_everything(
        seed in 0u64..1000,
        lookahead in any::<bool>(),
        load_pct in 5u32..30,
    ) {
        let r = Scenario::builder()
            .mesh_2d(4, 4)
            .lookahead(lookahead)
            .load(load_pct as f64 / 100.0)
            .message_counts(20, 150)
            .seed(seed)
            .build()
            .unwrap()
            .run();
        prop_assert!(!r.saturated);
        prop_assert_eq!(r.messages, 150);
        prop_assert!(r.avg_latency > 0.0);
    }
}
