//! Paper fidelity: numbers the simulator must reproduce from the paper.
//!
//! Table 2 gives the header pipeline of the PROUD router as five stages
//! per router and of LA-PROUD as four. A single-flit message on an idle
//! network pays exactly those stages at each of the `h + 1` routers on an
//! `h`-hop path when links take no extra cycle (`link_delay(0)`): `5h + 5`
//! and `4h + 4` cycles. The default `link_delay(1)` adds one cycle per
//! router: `6h + 6` and `5h + 5`.
//!
//! Every simulated experiment is defined once, with its claims, in
//! `lapses_bench::paper`: Figs. 5 and 6, Tables 3 and 4, the ablations
//! (`psh`, `vcs`, `topologies`, `lookup`) and the burst sweep. This suite
//! runs each one's claimed rows. Table 5 is computed, not simulated; its
//! entry counts are asserted in `lapses_core::tables::cost`.

use lapses::prelude::*;
use lapses::traffic::TraceEvent;
use lapses_bench::paper;
use std::path::Path;
use std::sync::Arc;

/// A trace holding one single-flit message on an 8×8 mesh, injected at
/// cycle 0 from node 0 toward a node `hops` hops away.
fn one_message(hops: u16) -> Arc<Trace> {
    let mesh = Mesh::mesh_2d(8, 8);
    let dest = mesh.id_at(&[hops.div_ceil(2), hops / 2]).unwrap();
    assert_eq!(mesh.distance(NodeId(0), dest), hops as u32);
    let event = TraceEvent {
        cycle: 0,
        src: 0,
        dest: dest.0,
        length: 1,
    };
    Arc::new(Trace::from_events(64, vec![event]).unwrap())
}

/// The latency of [`one_message`] through `builder`'s router.
fn latency(builder: ScenarioBuilder, hops: u16) -> f64 {
    let result = builder
        .mesh_2d(8, 8)
        .trace(one_message(hops))
        .message_counts(0, 1)
        .build()
        .unwrap()
        .run();
    assert_eq!(result.messages, 1);
    result.avg_latency
}

#[test]
fn table2_header_stages_per_hop() {
    for hops in 1..=6u16 {
        let h = hops as f64;
        for (lookahead, stages) in [(false, 5.0), (true, 4.0)] {
            let paper = Scenario::builder().lookahead(lookahead).link_delay(0);
            assert_eq!(
                latency(paper, hops),
                stages * (h + 1.0),
                "{hops} hops, lookahead {lookahead}, paper timing"
            );
            let default = Scenario::builder().lookahead(lookahead);
            assert_eq!(
                latency(default, hops),
                (stages + 1.0) * (h + 1.0),
                "{hops} hops, lookahead {lookahead}, default link delay"
            );
        }
    }
}

#[test]
fn table2_timing_through_a_spec() {
    let spec =
        ScenarioSpec::parse("topology = mesh 8x8\nlookahead = true\nlink-delay = 0\n").unwrap();
    let builder = spec.to_builder(Path::new(".")).unwrap();
    assert_eq!(latency(builder, 4), 4.0 * 5.0);
}

/// Every registered paper experiment, run on the rows its claims name at
/// 300 warm-up / 3000 measured messages from the default seed, meets
/// every claim. Each table is printed (`--nocapture` shows them) and
/// repeated in the failure message.
#[test]
fn paper_experiments_meet_their_claims() {
    let mut failures = String::new();
    for experiment in paper::all() {
        let experiment = experiment.checked();
        let outcome = experiment.run(300, 3_000);
        let table = outcome.table().render();
        println!("{}\n{table}", experiment.title);
        let violations = outcome.check();
        if !violations.is_empty() {
            failures += &format!("{}\n{table}", experiment.title);
            for violation in violations {
                failures += &format!("  {violation}\n");
            }
        }
    }
    assert!(failures.is_empty(), "paper claims not met:\n{failures}");
}
