//! Flat workload: the paper's protocol on seeded instances.
//!
//! Each instance sits on a 1:1 outline with its pads on the outline
//! and aspect limit 3. It is solved by `FloorplannerSettings::fast()`
//! under `SolveSupervisor`, legalized, and the legal floorplan goes
//! through the verifier.

use std::time::Instant;

use gfp_core::{FloorplannerSettings, GlobalFloorplanProblem, ProblemOptions, SolveSupervisor};
use gfp_legalize::{legalize, LegalizeSettings};
use gfp_netlist::{bookshelf, Netlist, Outline};

use crate::host::Probe;
use crate::inputs::{BookshelfInstance, ASPECT_LIMIT};
use crate::report::{Pass, Row};
use crate::verify;

/// One captured instance.
pub struct Case {
    label: String,
    netlist: Netlist,
    outline: Outline,
    problem: GlobalFloorplanProblem,
}

/// The solver settings of the flat protocol.
pub fn settings() -> FloorplannerSettings {
    FloorplannerSettings::fast()
}

/// Parses the bookshelf text of every instance (first timing) and
/// captures its problem (second timing).
///
/// # Panics
///
/// Panics if generated text fails to parse or capture, which would be
/// a defect of the generator or the parser.
pub fn setup(instances: &[BookshelfInstance]) -> (Vec<Case>, f64, f64) {
    let t0 = Instant::now();
    let netlists: Vec<Netlist> = instances
        .iter()
        .map(|i| bookshelf::parse(&i.files).expect("generated bookshelf text parses"))
        .collect();
    let parse_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let cases: Vec<Case> = instances
        .iter()
        .zip(netlists)
        .map(|(inst, netlist)| {
            let outline = inst.outline.expect("flat instances carry an outline");
            let problem =
                GlobalFloorplanProblem::from_netlist(&netlist, &ProblemOptions::paper(outline))
                    .expect("generated netlist captures");
            Case {
                label: inst.label.clone(),
                netlist,
                outline,
                problem,
            }
        })
        .collect();
    (cases, parse_s, t1.elapsed().as_secs_f64())
}

/// Solves, legalizes and verifies every case in order, with a
/// host-speed sample before each case and after the last.
pub fn pass(cases: &[Case], probe: &mut Probe) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut before = probe.sample();
    for case in cases {
        let t0 = Instant::now();
        let result = SolveSupervisor::new(settings()).solve(&case.problem);
        let t1 = Instant::now();
        let legal = legalize(
            &case.netlist,
            &case.problem,
            &case.outline,
            &result.floorplan.positions,
            &LegalizeSettings::default(),
        );
        let t2 = Instant::now();
        let mut row = Row {
            label: case.label.clone(),
            quality: result.quality.as_str().to_string(),
            latency_s: (t2 - t0).as_secs_f64(),
            wall_s: 0.0,
            probe_s: 0.0,
            hpwl: 0.0,
            rank_gap: result.floorplan.rank_gap,
            error: None,
            failures: Vec::new(),
            distance: None,
        };
        match legal {
            Ok(fp) => {
                row.hpwl = fp.hpwl;
                row.failures = verify::legal_floorplan(
                    &case.netlist,
                    &case.outline,
                    ASPECT_LIMIT,
                    &fp.rects,
                    fp.hpwl,
                );
            }
            Err(e) => {
                row.error = Some(format!("legalize: {e}"));
                pass.layers.legalize_fail += 1;
            }
        }
        if row.certified() {
            row.distance = verify::distance_feasibility(&case.problem, &result.floorplan.positions);
        }
        let t3 = Instant::now();
        pass.layers.sdp_s += (t1 - t0).as_secs_f64();
        pass.layers.legalize_s += (t2 - t1).as_secs_f64();
        pass.layers.verify_s += (t3 - t2).as_secs_f64();
        row.wall_s = (t3 - t0).as_secs_f64();
        let after = probe.sample();
        row.probe_s = (before + after) / 2.0;
        before = after;
        pass.rows.push(row);
    }
    pass.batch_s = start.elapsed().as_secs_f64();
    pass
}
