//! Router configuration.

use crate::psh::PathSelection;
use std::fmt;
use std::ops::Range;

/// The pipeline organization of the router — the paper's two delay models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineModel {
    /// PROUD (Fig. 1): five stages — sync/demux/buffer/decode, **table
    /// lookup**, selection + arbitration, crossbar, VC mux. Header latency
    /// 5 cycles per router.
    Proud,
    /// LA-PROUD (Fig. 2): four stages — the table lookup for the *next*
    /// router runs concurrently with selection + arbitration, using the
    /// candidate information carried in the header flit. Header latency 4
    /// cycles per router.
    LaProud,
}

impl PipelineModel {
    /// Contention-free header latency through the router, in cycles
    /// (Table 2: 5 units for PROUD, 4 for LA-PROUD).
    pub fn header_stages(self) -> u32 {
        match self {
            PipelineModel::Proud => 5,
            PipelineModel::LaProud => 4,
        }
    }

    /// Whether headers carry look-ahead routing information.
    pub fn is_lookahead(self) -> bool {
        matches!(self, PipelineModel::LaProud)
    }
}

impl fmt::Display for PipelineModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PipelineModel::Proud => "PROUD",
            PipelineModel::LaProud => "LA-PROUD",
        })
    }
}

/// Configuration of one router (and, in practice, of every router in a
/// network — the study uses homogeneous networks).
///
/// The defaults are the paper's Table 2 parameters: 4 VCs per physical
/// channel, 20-flit input and output buffers, PROUD pipeline, STATIC-XY
/// path selection, and one escape VC for Duato's protocol.
///
/// # Example
///
/// ```
/// use lapses_core::config::{PipelineModel, RouterConfig};
///
/// let cfg = RouterConfig::paper_adaptive().with_lookahead(true);
/// assert_eq!(cfg.pipeline, PipelineModel::LaProud);
/// assert_eq!(cfg.adaptive_vcs(), 1..4); // VC 0 is the escape channel
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Virtual channels per physical channel (Table 2: 4).
    pub vcs_per_port: usize,
    /// Number of VCs reserved as Duato escape channels (low indices).
    /// Zero for algorithms that are deadlock-free without escape
    /// (deterministic and turn-model routing).
    pub escape_vcs: usize,
    /// Dateline subclasses within the escape class (1 on meshes, 2 on
    /// tori). Escape VC `v` serves subclass `v % escape_subclasses`.
    /// A scenario ignores the value given here: `lapses_network`'s
    /// `SimConfig::build_network` overwrites it for every scenario with
    /// `Algorithm::escape_vcs_needed(..).max(1)`.
    pub escape_subclasses: usize,
    /// Input buffer depth per VC, in flits (Table 2: 20).
    pub input_buffer_flits: usize,
    /// Output staging buffer depth per VC, in flits (Table 2: 20).
    pub output_buffer_flits: usize,
    /// PROUD or LA-PROUD pipeline.
    pub pipeline: PipelineModel,
    /// Path-selection heuristic for adaptive candidates.
    pub path_selection: PathSelection,
    /// Cycles the routing-table lookup takes (Table 5's "lookup time"
    /// column: large RAMs may need more than one cycle). In PROUD the TL
    /// stage stretches; in LA-PROUD the concurrent next-hop lookup delays
    /// selection completion once it exceeds the arbitration cycle.
    pub table_lookup_cycles: u32,
}

impl RouterConfig {
    /// The paper's adaptive router: Duato's protocol with 1 escape VC and
    /// 3 adaptive VCs, PROUD pipeline, STATIC-XY selection.
    pub fn paper_adaptive() -> RouterConfig {
        RouterConfig {
            vcs_per_port: 4,
            escape_vcs: 1,
            escape_subclasses: 1,
            input_buffer_flits: 20,
            output_buffer_flits: 20,
            pipeline: PipelineModel::Proud,
            path_selection: PathSelection::StaticXy,
            table_lookup_cycles: 1,
        }
    }

    /// The paper's deterministic router: XY routing with all 4 VCs usable
    /// (no escape class needed — the algorithm is deadlock-free).
    pub fn paper_deterministic() -> RouterConfig {
        RouterConfig {
            escape_vcs: 0,
            ..Self::paper_adaptive()
        }
    }

    /// Switches between PROUD (`false`) and LA-PROUD (`true`).
    pub fn with_lookahead(mut self, on: bool) -> RouterConfig {
        self.pipeline = if on {
            PipelineModel::LaProud
        } else {
            PipelineModel::Proud
        };
        self
    }

    /// Sets the path-selection heuristic.
    pub fn with_path_selection(mut self, psh: PathSelection) -> RouterConfig {
        self.path_selection = psh;
        self
    }

    /// Sets the table-lookup latency in cycles (models slow large-table
    /// RAMs; 1 is the paper's default).
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn with_table_lookup_cycles(mut self, cycles: u32) -> RouterConfig {
        assert!(cycles >= 1, "table lookup takes at least one cycle");
        self.table_lookup_cycles = cycles;
        self
    }

    /// Sets the VC split: `escape` escape VCs out of `total`.
    ///
    /// # Panics
    ///
    /// Panics if `escape > total` or `total == 0`.
    pub fn with_vcs(mut self, total: usize, escape: usize) -> RouterConfig {
        assert!(total > 0, "at least one VC required");
        assert!(escape <= total, "more escape VCs than VCs");
        self.vcs_per_port = total;
        self.escape_vcs = escape;
        self
    }

    /// Indices of the adaptive-class VCs (`escape_vcs..vcs_per_port`).
    ///
    /// When `escape_vcs == 0` every VC is adaptive.
    pub fn adaptive_vcs(&self) -> Range<usize> {
        self.escape_vcs..self.vcs_per_port
    }

    /// Indices of the escape-class VCs (`0..escape_vcs`).
    pub fn escape_vc_range(&self) -> Range<usize> {
        0..self.escape_vcs
    }

    /// Escape VCs serving dateline `subclass`.
    pub fn escape_vcs_for_subclass(&self, subclass: usize) -> impl Iterator<Item = usize> + use<> {
        let subclasses = self.escape_subclasses;
        let range = self.escape_vc_range();
        range.filter(move |v| v % subclasses == subclass)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics when the configuration cannot work: no VCs, empty buffers,
    /// more subclasses than escape VCs, or an escape class with no adaptive
    /// VCs left while adaptivity is requested.
    pub fn validate(&self) {
        assert!(self.vcs_per_port >= 1, "at least one VC per port");
        assert!(
            self.escape_vcs <= self.vcs_per_port,
            "escape VCs exceed VCs"
        );
        assert!(
            self.input_buffer_flits >= 1,
            "input buffer must hold a flit"
        );
        assert!(
            self.output_buffer_flits >= 1,
            "output buffer must hold a flit"
        );
        assert!(self.escape_subclasses >= 1, "at least one escape subclass");
        assert!(
            self.table_lookup_cycles >= 1,
            "table lookup takes at least one cycle"
        );
        if self.escape_vcs > 0 {
            assert!(
                self.escape_vcs >= self.escape_subclasses,
                "need at least one escape VC per dateline subclass"
            );
        }
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self::paper_adaptive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table2() {
        let cfg = RouterConfig::paper_adaptive();
        assert_eq!(cfg.vcs_per_port, 4);
        assert_eq!(cfg.input_buffer_flits, 20);
        assert_eq!(cfg.output_buffer_flits, 20);
        assert_eq!(cfg.pipeline.header_stages(), 5);
        cfg.validate();
    }

    #[test]
    fn lookahead_switch() {
        let cfg = RouterConfig::paper_adaptive().with_lookahead(true);
        assert!(cfg.pipeline.is_lookahead());
        assert_eq!(cfg.pipeline.header_stages(), 4);
        let back = cfg.with_lookahead(false);
        assert!(!back.pipeline.is_lookahead());
    }

    #[test]
    fn vc_classes_partition() {
        let cfg = RouterConfig::paper_adaptive();
        assert_eq!(cfg.escape_vc_range(), 0..1);
        assert_eq!(cfg.adaptive_vcs(), 1..4);

        let det = RouterConfig::paper_deterministic();
        assert_eq!(det.adaptive_vcs(), 0..4);
        assert_eq!(det.escape_vc_range(), 0..0);
        det.validate();
    }

    #[test]
    fn subclass_assignment_interleaves() {
        let cfg = RouterConfig::paper_adaptive().with_vcs(4, 2);
        let cfg = RouterConfig {
            escape_subclasses: 2,
            ..cfg
        };
        cfg.validate();
        let class0: Vec<usize> = cfg.escape_vcs_for_subclass(0).collect();
        let class1: Vec<usize> = cfg.escape_vcs_for_subclass(1).collect();
        assert_eq!(class0, vec![0]);
        assert_eq!(class1, vec![1]);
    }

    #[test]
    #[should_panic(expected = "escape VC per dateline subclass")]
    fn too_few_escape_vcs_for_subclasses() {
        let cfg = RouterConfig {
            escape_subclasses: 2,
            ..RouterConfig::paper_adaptive()
        };
        cfg.validate();
    }

    #[test]
    fn display_names() {
        assert_eq!(PipelineModel::Proud.to_string(), "PROUD");
        assert_eq!(PipelineModel::LaProud.to_string(), "LA-PROUD");
    }
}
