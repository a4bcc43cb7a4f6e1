//! Hierarchical workload: cluster–solve–flatten on seeded large
//! instances under the budgeted scaling profile.
//!
//! The top stage solves `min(300, n/2)` clusters with neighbour
//! sparsification forced on; every leaf is solved under the same
//! budget; the flat refine pass is off. This is a fixed-budget run:
//! its verdict reads `budget_exhausted` and its wall time is never a
//! time to a certificate. There is no legalization: the output is a
//! centre placement, verified and scored by recomputed HPWL.

use std::time::Instant;

use gfp_core::hierarchical::{HierarchicalFloorplanner, HierarchicalSettings};
use gfp_core::iterate::Backend;
use gfp_core::{FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions, SparsifyMode};
use gfp_netlist::{bookshelf, hpwl, Netlist};

use crate::host::Probe;
use crate::inputs::BookshelfInstance;
use crate::report::{Pass, Row};
use crate::verify;

/// One captured instance.
pub struct Case {
    label: String,
    netlist: Netlist,
    problem: GlobalFloorplanProblem,
}

/// The budgeted per-stage profile: the paper's large-α start, two
/// α rounds of two convex iterations, ADMM to 1e-4 within 600
/// iterations.
pub fn budgeted() -> FloorplannerSettings {
    let mut s = FloorplannerSettings::fast();
    s.alpha0 = 1024.0;
    s.max_alpha_rounds = 2;
    s.max_iter = 2;
    if let Backend::Admm(ref mut a) = s.backend {
        a.eps = 1e-4;
        a.max_iter = 600;
    }
    s
}

/// The hierarchical settings for an `n`-module instance.
pub fn settings(n: usize) -> HierarchicalSettings {
    let mut top = budgeted();
    top.sparsify.mode = SparsifyMode::On;
    HierarchicalSettings {
        max_clusters: 300.min(n / 2).max(2),
        top,
        leaf: budgeted(),
        refine: None,
        ..HierarchicalSettings::default()
    }
}

/// Parses and captures every instance; see [`crate::flat::setup`].
///
/// # Panics
///
/// Panics if generated text fails to parse or capture.
pub fn setup(instances: &[BookshelfInstance]) -> (Vec<Case>, f64, f64) {
    let t0 = Instant::now();
    let netlists: Vec<Netlist> = instances
        .iter()
        .map(|i| bookshelf::parse(&i.files).expect("generated bookshelf text parses"))
        .collect();
    let parse_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let cases = instances
        .iter()
        .zip(netlists)
        .map(|(inst, netlist)| {
            let problem =
                GlobalFloorplanProblem::from_netlist(&netlist, &ProblemOptions::default())
                    .expect("generated netlist captures");
            Case {
                label: inst.label.clone(),
                netlist,
                problem,
            }
        })
        .collect();
    (cases, parse_s, t1.elapsed().as_secs_f64())
}

/// Solves and verifies every case in order, with a host-speed sample
/// before each case and after the last.
pub fn pass(cases: &[Case], probe: &mut Probe) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut before = probe.sample();
    for case in cases {
        let t0 = Instant::now();
        let solved = HierarchicalFloorplanner::new(settings(case.problem.n)).solve(&case.problem);
        let t1 = Instant::now();
        let mut row = Row {
            label: case.label.clone(),
            quality: String::new(),
            latency_s: (t1 - t0).as_secs_f64(),
            wall_s: 0.0,
            probe_s: 0.0,
            hpwl: 0.0,
            rank_gap: 0.0,
            error: None,
            failures: Vec::new(),
            distance: None,
        };
        match solved {
            Ok(fp) => {
                row.quality = fp.quality.as_str().to_string();
                row.failures = verify::centres(&case.netlist, &fp.positions);
                if row.failures.is_empty() {
                    row.hpwl = hpwl::hpwl(&case.netlist, &fp.positions);
                }
                let stage_s = |stage: &str| -> f64 {
                    fp.rounds
                        .iter()
                        .filter(|r| r.stage == stage)
                        .map(|r| r.seconds)
                        .sum()
                };
                pass.layers.hier_top_s += stage_s("top");
                pass.layers.hier_leaf_s += stage_s("leaf");
                row.rank_gap = fp
                    .rounds
                    .iter()
                    .rev()
                    .find(|r| r.stage == "top")
                    .map_or(0.0, |r| r.rel_gap);
                if row.certified() && row.failures.is_empty() {
                    row.distance = verify::distance_feasibility(&case.problem, &fp.positions);
                }
            }
            Err(e) => row.error = Some(format!("hierarchical solve: {e}")),
        }
        let t2 = Instant::now();
        pass.layers.sdp_s += (t1 - t0).as_secs_f64();
        pass.layers.verify_s += (t2 - t1).as_secs_f64();
        row.wall_s = (t2 - t0).as_secs_f64();
        let after = probe.sample();
        row.probe_s = (before + after) / 2.0;
        before = after;
        pass.rows.push(row);
    }
    pass.batch_s = start.elapsed().as_secs_f64();
    pass
}
