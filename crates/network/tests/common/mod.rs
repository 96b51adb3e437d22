//! Golden-fingerprint helpers shared by the integration tests that pin
//! simulated behaviour. Each test binary uses a different subset.
#![allow(dead_code)]

use lapses_network::scenario::{Scenario, ScenarioBuilder};
use lapses_network::{CutoffPolicy, SimResult, SweepGrid, SweepReport, SweepRunner};

/// One golden row: point name, simulated cycles, measured messages,
/// flit-hops, and the fingerprint of the whole `SimResult`.
pub type Golden = (&'static str, u64, u64, u64, u64);

/// FNV-1a over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn opt(&mut self, x: Option<f64>) {
        match x {
            None => self.word(0),
            Some(v) => {
                self.word(1);
                self.word(v.to_bits());
            }
        }
    }
}

pub fn fingerprint(r: &SimResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(r.avg_latency.to_bits());
    h.word(r.avg_total_latency.to_bits());
    h.opt(r.p50_latency);
    h.opt(r.p95_latency);
    h.opt(r.p99_latency);
    h.word(r.max_latency.to_bits());
    h.word(r.messages);
    h.word(r.cycles);
    h.word(r.saturated as u64);
    h.word(r.throughput.to_bits());
    h.word(r.escape_fraction.to_bits());
    h.word(r.choice_fraction.to_bits());
    h.word(r.max_link_utilization.to_bits());
    h.word(r.flit_hops);
    h.0
}

/// Flattens a report into `("series@x", result)` points in report order.
pub fn points(report: &SweepReport) -> Vec<(String, SimResult)> {
    report
        .series()
        .iter()
        .flat_map(|s| {
            s.points
                .iter()
                .map(move |(x, r)| (format!("{}@{x}", s.label), r.clone()))
        })
        .collect()
}

/// One table row in source form.
pub fn row((name, cycles, messages, hops, fp): (&str, u64, u64, u64, u64)) -> String {
    format!("    ({name:?}, {cycles}, {messages}, {hops}, 0x{fp:016x}),")
}

/// Compares `points` with `golden` row by row; on any difference prints
/// the whole recomputed table (paste-ready) and fails.
pub fn check(table: &str, golden: &[Golden], points: &[(String, SimResult)]) {
    let rows: Vec<String> = points
        .iter()
        .map(|(name, r)| row((name, r.cycles, r.messages, r.flit_hops, fingerprint(r))))
        .collect();
    let expected: Vec<String> = golden.iter().map(|&g| row(g)).collect();
    if rows == expected {
        return;
    }
    println!("recomputed {table}:");
    println!("#[rustfmt::skip]");
    println!("const {table}: &[Golden] = &[");
    for r in &rows {
        println!("{r}");
    }
    println!("];");
    if let Some((now, was)) = rows.iter().zip(&expected).find(|(a, b)| a != b) {
        println!("first difference:\n  recomputed {now}\n  golden     {was}");
    }
    panic!(
        "{table}: simulated behaviour moved ({} recomputed rows, {} golden)",
        rows.len(),
        golden.len()
    );
}

pub fn build(b: ScenarioBuilder) -> Scenario {
    b.build().expect("golden scenario is valid")
}

/// Runs `grid` on two threads under `master_seed`, keeping every point.
pub fn run_grid(grid: &SweepGrid, master_seed: u64) -> Vec<(String, SimResult)> {
    points(
        &SweepRunner::new()
            .with_threads(2)
            .with_master_seed(master_seed)
            .with_cutoff(CutoffPolicy::KeepAll)
            .run(grid),
    )
}

pub fn pipeline_tag(la: bool) -> &'static str {
    if la {
        "la"
    } else {
        "proud"
    }
}
