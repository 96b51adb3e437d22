//! Text reports: paper-style tables and latency/load series.
//!
//! [`Table`] renders every table in the workspace: aligned text for the
//! terminal and CSV for external plotting. The paper presents its results
//! as latency-versus-normalized-load curves (Figs. 5 and 6);
//! [`SweepReport`] collects labeled sweeps and shows them as one [`Table`]
//! or one quick ASCII chart per x axis, so examples and ad-hoc experiments
//! can eyeball curve shapes without leaving the terminal.

use crate::stats::SimResult;
use std::fmt::{self, Write as _};

/// One labeled latency series over one x axis.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSeries {
    /// Legend label ("LA, ADAPT", "LRU", ...).
    pub label: String,
    /// The name of the x axis: the swept
    /// [`ScenarioAxis`](crate::ScenarioAxis)'s name ("load",
    /// "burst-length", ...; "load" for the algorithm axis, whose points
    /// lie at the scenario's load), or `"x"` for a single scenario point.
    pub axis: &'static str,
    /// `(x, result)` points in ascending x order.
    pub points: Vec<(f64, SimResult)>,
}

/// A collection of labeled sweeps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepReport {
    series: Vec<SweepSeries>,
}

impl SweepReport {
    /// Creates an empty report.
    pub fn new() -> SweepReport {
        SweepReport::default()
    }

    /// Adds a labeled sweep along the x axis named `axis`.
    pub fn push(
        &mut self,
        axis: &'static str,
        label: impl Into<String>,
        points: Vec<(f64, SimResult)>,
    ) {
        self.series.push(SweepSeries {
            label: label.into(),
            axis,
            points,
        });
    }

    /// The collected series.
    pub fn series(&self) -> &[SweepSeries] {
        &self.series
    }

    /// The load at which `label`'s series saturates: the load of its first
    /// "Sat." point. `None` when the series never saturated (or is absent).
    pub fn saturation_load(&self, label: &str) -> Option<f64> {
        self.saturation_summary()
            .iter()
            .find(|s| s.label == label)?
            .saturation_load
    }

    /// Per-series saturation summary, in series order: label, highest load
    /// that completed, and the saturation load when one was hit.
    pub fn saturation_summary(&self) -> Vec<SeriesSaturation<'_>> {
        self.series
            .iter()
            .map(|s| SeriesSaturation {
                label: &s.label,
                last_stable_load: s
                    .points
                    .iter()
                    .rev()
                    .find(|(_, r)| !r.saturated)
                    .map(|(l, _)| *l),
                saturation_load: s.points.iter().find(|(_, r)| r.saturated).map(|(l, _)| *l),
            })
            .collect()
    }

    /// The series grouped by x axis, axes in order of first appearance.
    fn by_axis(&self) -> Vec<(&'static str, Vec<&SweepSeries>)> {
        let mut blocks: Vec<(&'static str, Vec<&SweepSeries>)> = Vec::new();
        for s in &self.series {
            match blocks.iter_mut().find(|(axis, _)| *axis == s.axis) {
                Some((_, members)) => members.push(s),
                None => blocks.push((s.axis, vec![s])),
            }
        }
        blocks
    }

    /// The latency tables, one per x axis in order of first appearance:
    /// one row per x value (headed by the axis name), one column per
    /// series on that axis, with the paper's "Sat." convention.
    pub fn to_tables(&self) -> Vec<Table> {
        self.by_axis()
            .into_iter()
            .map(|(axis, series)| {
                let mut table = Table::new(
                    std::iter::once(axis).chain(series.iter().map(|s| s.label.as_str())),
                );
                for x in xs(&series) {
                    let cells = series.iter().map(|s| {
                        s.points
                            .iter()
                            .find(|(px, _)| (*px - x).abs() < 1e-9)
                            .map_or("-".to_string(), |(_, r)| r.latency_cell())
                    });
                    let x_cell = if axis == LOAD {
                        format!("{x:.2}")
                    } else {
                        x.to_string()
                    };
                    table.row(std::iter::once(x_cell).chain(cells).collect());
                }
                table
            })
            .collect()
    }

    /// Renders a rough ASCII chart of latency against x (linear axes,
    /// saturated points clipped to the top line), `height` rows tall: one
    /// chart per x axis, in order of first appearance.
    ///
    /// # Panics
    ///
    /// Panics if `height < 2`.
    pub fn to_chart(&self, height: usize) -> String {
        assert!(height >= 2, "chart needs at least two rows");
        let blocks = self.by_axis();
        if blocks.is_empty() {
            return String::from("(no data)\n");
        }
        let charts: Vec<String> = blocks
            .into_iter()
            .map(|(axis, series)| chart(axis, &series, height))
            .collect();
        charts.join("\n")
    }
}

/// The name of the normalized-load axis, whose values print as loads.
const LOAD: &str = "load";

/// All distinct x values across `series`, ascending.
fn xs(series: &[&SweepSeries]) -> Vec<f64> {
    let mut xs: Vec<f64> = series
        .iter()
        .flat_map(|s| s.points.iter().map(|(x, _)| *x))
        .collect();
    xs.sort_by(|a, b| a.total_cmp(b));
    xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    xs
}

/// One [`SweepReport::to_chart`] block: the series on the x axis `axis`.
fn chart(axis: &str, series: &[&SweepSeries], height: usize) -> String {
    let xs = xs(series);
    let ticks: Vec<String> = xs
        .iter()
        .map(|x| {
            if axis == LOAD {
                format!("{x:.1}").replace("0.", ".")
            } else {
                x.to_string()
            }
        })
        .collect();
    let width = ticks.iter().map(String::len).max().unwrap_or(0).max(2) + 1;
    let max_latency = series
        .iter()
        .flat_map(|s| s.points.iter())
        .filter(|(_, r)| !r.saturated)
        .map(|(_, r)| r.avg_latency)
        .fold(0.0f64, f64::max)
        .max(1.0);

    let cols = xs.len();
    let mut grid = vec![vec![' '; cols * width]; height];
    for (si, s) in series.iter().enumerate() {
        let marker = marker_for(si);
        for (x, r) in &s.points {
            let col = xs
                .iter()
                .position(|px| (px - x).abs() < 1e-9)
                .expect("x on the axis")
                * width
                + 1;
            let value = if r.saturated {
                max_latency
            } else {
                r.avg_latency
            };
            let frac = (value / max_latency).clamp(0.0, 1.0);
            let row = height - 1 - ((frac * (height - 1) as f64).round() as usize);
            grid[row][col] = marker;
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "latency (max {max_latency:.0} cycles)");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(cols * width));
    out.push('\n');
    out.push(' ');
    for tick in &ticks {
        let _ = write!(out, "{tick:<width$}");
    }
    let _ = writeln!(out, " {axis}");
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "  {} = {}", marker_for(si), s.label);
    }
    out
}

/// One row of [`SweepReport::saturation_summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesSaturation<'a> {
    /// The series label.
    pub label: &'a str,
    /// Highest load that completed without saturating, if any.
    pub last_stable_load: Option<f64>,
    /// Load of the first "Sat." point, if the series saturated.
    pub saturation_load: Option<f64>,
}

fn marker_for(index: usize) -> char {
    const MARKERS: [char; 8] = ['*', 'o', '+', 'x', '#', '@', '%', '&'];
    MARKERS[index % MARKERS.len()]
}

/// A text table with a header row: the one renderer of every table the
/// crate and its benches print.
///
/// [`render`](Table::render) (and `Display`) right-aligns each column to
/// its widest cell, under a dashed rule; [`to_csv`](Table::to_csv) gives
/// the same cells as CSV text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. [`render`](Table::render) drops cells past the
    /// header's width and renders missing cells empty.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (width, cell) in widths.iter_mut().zip(row) {
                *width = (*width).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map_or("", String::as_str);
                let _ = write!(line, "{cell:>w$}  ");
            }
            line.trim_end().to_string() + "\n"
        };
        let mut out = line(&self.header);
        out += &"-".repeat(widths.iter().map(|w| w + 2).sum());
        out.push('\n');
        for row in &self.rows {
            out += &line(row);
        }
        out
    }

    /// The table as CSV text: the header, then one line per row. A comma
    /// inside a cell becomes a semicolon, so every line has one field per
    /// cell.
    pub fn to_csv(&self) -> String {
        let line = |cells: &[String]| {
            let fields: Vec<String> = cells.iter().map(|c| c.replace(',', ";")).collect();
            fields.join(",") + "\n"
        };
        let mut csv = line(&self.header);
        for row in &self.rows {
            csv += &line(row);
        }
        csv
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(latency: f64, saturated: bool) -> SimResult {
        SimResult {
            avg_latency: latency,
            avg_total_latency: latency,
            p50_latency: None,
            p95_latency: None,
            p99_latency: None,
            max_latency: latency,
            messages: 100,
            cycles: 1000,
            saturated,
            throughput: 0.1,
            escape_fraction: 0.0,
            choice_fraction: 0.0,
            max_link_utilization: 0.2,
            flit_hops: 0,
        }
    }

    fn report() -> SweepReport {
        let mut rep = SweepReport::new();
        rep.push(
            "load",
            "det",
            vec![(0.1, result(90.0, false)), (0.2, result(300.0, false))],
        );
        rep.push(
            "load",
            "adaptive",
            vec![
                (0.1, result(88.0, false)),
                (0.2, result(120.0, false)),
                (0.3, result(0.0, true)),
            ],
        );
        rep
    }

    #[test]
    fn table_includes_all_loads_and_sat_cells() {
        let t = report().to_tables()[0].render();
        assert!(t.contains("0.30"));
        assert!(t.contains("Sat."));
        assert!(t.contains("det"));
        // The det series has no 0.3 point.
        assert!(t.lines().last().unwrap().contains('-'));
    }

    #[test]
    fn series_on_other_axes_render_as_their_own_blocks() {
        let mut rep = report();
        rep.push(
            "burst-length",
            "bursty",
            vec![(2.0, result(75.0, false)), (8.0, result(102.0, false))],
        );
        let tables = rep.to_tables();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0], report().to_tables()[0]);
        assert_eq!(tables[1].to_csv(), "burst-length,bursty\n2,75.0\n8,102.0\n");
        let chart = rep.to_chart(4);
        assert_eq!(chart.matches("latency (max").count(), 2);
        assert!(chart.contains("\n .1 .2 .3  load\n"), "{chart}");
        assert!(chart.contains("\n 2  8   burst-length\n"), "{chart}");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["load", "latency"]);
        t.row(vec!["0.1".into(), "69.2".into()]);
        t.row(vec!["0.9".into(), "432.8".into()]);
        let s = t.render();
        assert_eq!(
            s,
            "load  latency\n---------------\n 0.1     69.2\n 0.9    432.8\n"
        );
        assert_eq!(t.to_string(), s);
    }

    #[test]
    fn csv_has_a_header_and_one_line_per_row_with_commas_escaped() {
        let mut t = Table::new(["scheme", "topologies"]);
        t.row(vec!["full".into(), "any".into()]);
        t.row(vec!["interval".into(), "mesh, torus".into()]);
        assert_eq!(
            t.to_csv(),
            "scheme,topologies\nfull,any\ninterval,mesh; torus\n"
        );
    }

    #[test]
    fn chart_renders_markers_and_legend() {
        let c = report().to_chart(8);
        assert!(c.contains('*'));
        assert!(c.contains('o'));
        assert!(c.contains("adaptive"));
        assert!(c.lines().count() > 8);
    }

    #[test]
    fn empty_report_is_harmless() {
        let rep = SweepReport::new();
        assert_eq!(rep.to_chart(4), "(no data)\n");
        assert_eq!(rep.series().len(), 0);
    }

    #[test]
    #[should_panic(expected = "two rows")]
    fn tiny_chart_rejected() {
        let _ = report().to_chart(1);
    }
}
