//! The `repro` plan: every experiment listed once, and a run is one
//! campaign.
//!
//! Each entry of [`EXPERIMENTS`] names an experiment, its campaign cells
//! (scale-free configurations) and a render that turns the cells'
//! results, in `cells` order, into the experiment's tables. Experiments
//! that are not cell sweeps (`table1`, `budget`, `threec`, `warmup`)
//! have no cells and compute inside their render.
//!
//! [`run`] concatenates the selected experiments' cells into **one**
//! [`run_standard_cells`] batch, so a geometry that recurs across
//! figures (the baseline alone recurs in seven) runs one functional pass
//! for all of them, then renders each experiment in selection order.

use gaas_sim::config::SimConfig;
use gaas_sim::SimResult;

use crate::campaign::CellResult;
use crate::fig78::Side;
use crate::runner::run_standard_cells;
use crate::{
    ablations, budget, fig10, fig2, fig3, fig4, fig5, fig6, fig78, fig9, fig_cmp, interrupt,
    perbench, sec5, sec8, table1, threec, warmup,
};

/// One experiment of the reproduction.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Name on the `repro` command line.
    pub name: &'static str,
    /// The experiment's campaign cells; empty when it computes inside
    /// `render`.
    pub cells: fn() -> Vec<SimConfig>,
    /// Renders the experiment's tables at a workload scale from its
    /// cells' results, in `cells` order.
    pub render: fn(f64, &[CellResult]) -> String,
}

impl Experiment {
    /// Runs the experiment's cells as their own batch and renders them.
    pub fn run(&self, scale: f64) -> String {
        (self.render)(scale, &run_standard_cells(&(self.cells)(), scale))
    }
}

const fn experiment(
    name: &'static str,
    cells: fn() -> Vec<SimConfig>,
    render: fn(f64, &[CellResult]) -> String,
) -> Experiment {
    Experiment {
        name,
        cells,
        render,
    }
}

/// Every experiment, in `repro all` order.
pub const EXPERIMENTS: [Experiment; 18] = [
    experiment("table1", Vec::new, table1::render),
    experiment("fig2", fig2::cells, fig2::render),
    experiment("fig3", fig3::cells, fig3::render),
    experiment("fig4", fig4::cells, fig4::render),
    experiment("fig5", fig5::cells, fig5::render),
    experiment("fig6", fig6::cells, fig6::render),
    experiment(
        "fig7",
        || fig78::cells(Side::Instruction),
        |scale, results| fig78::render(Side::Instruction, scale, results),
    ),
    experiment(
        "fig8",
        || fig78::cells(Side::Data),
        |scale, results| fig78::render(Side::Data, scale, results),
    ),
    experiment("fig9", fig9::cells, fig9::render),
    experiment("fig10", fig10::cells, fig10::render),
    experiment("sec5", sec5::cells, sec5::render),
    experiment("sec8", sec8::cells, sec8::render),
    experiment("perbench", perbench::cells, perbench::render),
    experiment("ablations", ablations::cells, ablations::render),
    experiment("budget", Vec::new, budget::render),
    experiment("threec", Vec::new, threec::render),
    experiment("warmup", Vec::new, warmup::render),
    experiment("fig_cmp", fig_cmp::cells, fig_cmp::render),
];

/// The experiment called `name`, if there is one.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The selected experiments' cells concatenated as one batch, with the
/// number of cells each experiment contributes — the batch [`run`]
/// submits and `repro --list-cells` previews.
pub fn batch(selected: &[&Experiment]) -> (Vec<SimConfig>, Vec<usize>) {
    let per: Vec<Vec<SimConfig>> = selected.iter().map(|e| (e.cells)()).collect();
    let counts = per.iter().map(Vec::len).collect();
    (per.concat(), counts)
}

/// A plan run stopped by SIGINT/SIGTERM ([`interrupt`]): cells not yet
/// started were skipped and nothing was rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupted;

/// Runs the selected experiments' cells as one campaign and returns
/// each experiment's render, in selection order. Each failed cell is
/// reported once to stderr and renders as a gap.
///
/// # Errors
///
/// Returns [`Interrupted`] instead of rendering when an interrupt was
/// raised before the campaign or a render finished.
pub fn run(selected: &[&Experiment], scale: f64) -> Result<Vec<String>, Interrupted> {
    let (cfgs, counts) = batch(selected);
    let results = run_standard_cells(&cfgs, scale);
    let mut rest = results.as_slice();
    let mut rendered = Vec::with_capacity(selected.len());
    for (e, n) in selected.iter().zip(counts) {
        if interrupt::interrupted() {
            return Err(Interrupted);
        }
        let (mine, tail) = rest.split_at(n);
        rest = tail;
        for (i, res) in mine.iter().enumerate() {
            if let CellResult::Failed { error, attempts } = res {
                eprintln!(
                    "{}: cell {i} failed after {attempts} attempt(s): {error}",
                    e.name
                );
            }
        }
        rendered.push((e.render)(scale, mine));
    }
    if interrupt::interrupted() {
        return Err(Interrupted);
    }
    Ok(rendered)
}

/// The completed cells of a batch paired with their sweep points, in
/// order; failed cells are skipped, so tables render them as gaps.
pub(crate) fn completed<'a, P: 'a>(
    points: impl IntoIterator<Item = P> + 'a,
    results: &'a [CellResult],
) -> impl Iterator<Item = (P, &'a SimResult)> + 'a {
    points
        .into_iter()
        .zip(results)
        .filter_map(|(p, res)| match res {
            CellResult::Done(r) => Some((p, &**r)),
            CellResult::Failed { .. } => None,
        })
}
