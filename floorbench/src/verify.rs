//! Independent output verifier.
//!
//! Re-checks every output the benchmark receives from the program
//! against the netlist it was given, without trusting the program's
//! own validation. Like Per-RMAP's feasibility reports, a failed
//! check says *which* condition failed and by how much, not just
//! that something did.

use gfp_core::diagnostics::check_distance_feasibility;
use gfp_core::GlobalFloorplanProblem;
use gfp_netlist::geometry::Rect;
use gfp_netlist::{hpwl, Netlist, Outline};

/// Relative tolerance on `w·h = area` and on the aspect-ratio bounds.
/// The legalizer solves its shape SOCP to an ADMM tolerance of 1e-6
/// and validates at 5e-3; outputs of a correct solve land within a few
/// 1e-6, so 1e-4 leaves headroom for solver error and still rejects
/// anything visible.
pub const SHAPE_TOL: f64 = 1e-4;
/// Tolerance on overlap depth and outline escape, as a share of the
/// larger outline side (same reasoning as [`SHAPE_TOL`]).
pub const GEOM_TOL: f64 = 1e-4;
/// Relative tolerance on the reported HPWL against the recomputed one.
pub const HPWL_TOL: f64 = 1e-9;
/// Relative slack on the squared-distance bounds when the distance
/// feasibility of a certified placement is reported.
pub const DISTANCE_TOL: f64 = 1e-3;

/// One failed check: its name, the worst offender and the size of
/// the violation (a relative error, or a length for geometry).
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// Check name: `count`, `finite`, `area`, `aspect`, `outline`,
    /// `overlap`, `hpwl`, `cache_twin` or `report`.
    pub check: &'static str,
    /// Worst offender (module index or pair) in words.
    pub at: String,
    /// Size of the worst violation.
    pub size: f64,
}

impl Failure {
    /// Whether the failure breaks the run's integrity rather than one
    /// output's legality: a malformed output (`count`, `finite`), a
    /// reported HPWL that disagrees with the netlist (`hpwl`), a cache
    /// hit that differs from its twin (`cache_twin`), or a served job
    /// without a readable solve report (`report`). These make
    /// a run incorrect; legality failures (`area`, `aspect`,
    /// `outline`, `overlap`) mark the output as failed.
    pub fn integrity(&self) -> bool {
        matches!(
            self.check,
            "count" | "finite" | "hpwl" | "cache_twin" | "report"
        )
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]={:.3e}", self.check, self.at, self.size)
    }
}

/// Keeps the worst violation of one check.
#[derive(Default)]
struct Worst(Option<(String, f64)>);

impl Worst {
    fn note(&mut self, at: impl FnOnce() -> String, size: f64) {
        if self.0.as_ref().is_none_or(|(_, s)| size > *s) {
            self.0 = Some((at(), size));
        }
    }

    fn into_failure(self, check: &'static str, out: &mut Vec<Failure>) {
        if let Some((at, size)) = self.0 {
            out.push(Failure { check, at, size });
        }
    }
}

/// Checks a legalized floorplan: one finite rectangle per module,
/// `w·h = area`, aspect ratio within the module's bounds (or
/// `[1/limit, limit]`), inside the outline, no pairwise overlap, and
/// `reported_hpwl` equal to the HPWL recomputed from the netlist.
pub fn legal_floorplan(
    netlist: &Netlist,
    outline: &Outline,
    aspect_limit: f64,
    rects: &[Rect],
    reported_hpwl: f64,
) -> Vec<Failure> {
    let n = netlist.num_modules();
    if rects.len() != n {
        return vec![Failure {
            check: "count",
            at: format!("{} of {n}", rects.len()),
            size: (rects.len() as f64 - n as f64).abs(),
        }];
    }
    if let Some(i) = rects.iter().position(|r| {
        ![r.x, r.y, r.w, r.h].iter().all(|v| v.is_finite()) || r.w <= 0.0 || r.h <= 0.0
    }) {
        return vec![Failure {
            check: "finite",
            at: format!("module {i}"),
            size: f64::INFINITY,
        }];
    }
    let geom = GEOM_TOL * outline.width.max(outline.height);
    let (mut area, mut aspect, mut inside, mut overlap) = (
        Worst::default(),
        Worst::default(),
        Worst::default(),
        Worst::default(),
    );
    for (i, (r, m)) in rects.iter().zip(netlist.modules()).enumerate() {
        let rel = (r.w * r.h - m.area).abs() / m.area;
        if rel > SHAPE_TOL {
            area.note(|| format!("module {i}"), rel);
        }
        let (lo, hi) = m
            .aspect_bounds
            .unwrap_or((1.0 / aspect_limit, aspect_limit));
        let ratio = r.h / r.w;
        let excess = (lo / ratio - 1.0).max(ratio / hi - 1.0);
        if excess > SHAPE_TOL {
            aspect.note(|| format!("module {i}"), excess);
        }
        let escape = (-r.x)
            .max(-r.y)
            .max(r.x + r.w - outline.width)
            .max(r.y + r.h - outline.height);
        if escape > geom {
            inside.note(|| format!("module {i}"), escape);
        }
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (&rects[i], &rects[j]);
            let dx = (a.x + a.w).min(b.x + b.w) - a.x.max(b.x);
            let dy = (a.y + a.h).min(b.y + b.h) - a.y.max(b.y);
            let depth = dx.min(dy);
            if depth > geom {
                overlap.note(|| format!("modules {i},{j}"), depth);
            }
        }
    }
    let mut out = Vec::new();
    area.into_failure("area", &mut out);
    aspect.into_failure("aspect", &mut out);
    inside.into_failure("outline", &mut out);
    overlap.into_failure("overlap", &mut out);
    let centers: Vec<(f64, f64)> = rects.iter().map(Rect::center).collect();
    hpwl_matches(netlist, &centers, reported_hpwl, &mut out);
    out
}

fn hpwl_matches(netlist: &Netlist, centers: &[(f64, f64)], reported: f64, out: &mut Vec<Failure>) {
    let recomputed = hpwl::hpwl(netlist, centers);
    let rel = (recomputed - reported).abs() / recomputed.abs().max(f64::MIN_POSITIVE);
    // A NaN HPWL on either side fails too.
    if rel.is_nan() || rel > HPWL_TOL {
        out.push(Failure {
            check: "hpwl",
            at: format!("reported {reported} recomputed {recomputed}"),
            size: rel,
        });
    }
}

/// Checks a centre-only placement: one finite centre per module.
pub fn centres(netlist: &Netlist, positions: &[(f64, f64)]) -> Vec<Failure> {
    let n = netlist.num_modules();
    if positions.len() != n {
        return vec![Failure {
            check: "count",
            at: format!("{} of {n}", positions.len()),
            size: (positions.len() as f64 - n as f64).abs(),
        }];
    }
    match positions
        .iter()
        .position(|&(x, y)| !(x.is_finite() && y.is_finite()))
    {
        Some(i) => vec![Failure {
            check: "finite",
            at: format!("module {i}"),
            size: f64::INFINITY,
        }],
        None => Vec::new(),
    }
}

/// A cache-served result must carry exactly its twin's bits.
pub fn cache_twin(served: &[(u64, u64)], twin: &[(u64, u64)]) -> Vec<Failure> {
    let differing =
        served.iter().zip(twin).filter(|(a, b)| a != b).count() + served.len().abs_diff(twin.len());
    if differing == 0 {
        Vec::new()
    } else {
        vec![Failure {
            check: "cache_twin",
            at: "positions".into(),
            size: differing as f64,
        }]
    }
}

/// Distance feasibility of a certified placement: pairs whose
/// squared distance falls short of the problem's distance bound by
/// more than [`DISTANCE_TOL`], and the worst relative shortfall.
/// Reported alongside the verdict; not a failed check.
///
/// Only at aspect limit 1 (`None` otherwise). There the bounds follow
/// from the module areas alone; above 1 they depend on the adjacency
/// in effect, which a solve with enhancements reweights between
/// iterations, so bounds built from the problem's base adjacency are
/// not the ones the placement was solved under.
pub fn distance_feasibility(
    problem: &GlobalFloorplanProblem,
    positions: &[(f64, f64)],
) -> Option<(usize, f64)> {
    if problem.aspect_limit != 1.0 {
        return None;
    }
    let r = check_distance_feasibility(problem, positions, DISTANCE_TOL);
    Some((r.violations, r.max_relative_violation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfp_netlist::{Module, Net, PinRef};

    fn two_modules() -> (Netlist, Outline) {
        let nl = Netlist::new(
            vec![Module::new("a", 4.0), Module::new("b", 4.0)],
            vec![],
            vec![Net::new("n", vec![PinRef::Module(0), PinRef::Module(1)])],
        )
        .unwrap();
        (nl, Outline::new(4.0, 4.0))
    }

    #[test]
    fn legal_layout_passes() {
        let (nl, outline) = two_modules();
        let rects = [Rect::new(0.0, 0.0, 2.0, 2.0), Rect::new(2.0, 0.0, 2.0, 2.0)];
        assert!(legal_floorplan(&nl, &outline, 3.0, &rects, 2.0).is_empty());
    }

    #[test]
    fn each_broken_condition_is_named_and_sized() {
        let (nl, outline) = two_modules();
        let overlapped = [Rect::new(0.0, 0.0, 2.0, 2.0), Rect::new(1.5, 0.0, 2.0, 2.0)];
        let f = legal_floorplan(&nl, &outline, 3.0, &overlapped, 1.5);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].check, "overlap");
        assert!((f[0].size - 0.5).abs() < 1e-12);

        let shrunk = [Rect::new(0.0, 0.0, 2.0, 1.0), Rect::new(2.0, 0.0, 2.0, 2.0)];
        let f = legal_floorplan(&nl, &outline, 3.0, &shrunk, 2.5);
        assert!(
            f.iter()
                .any(|x| x.check == "area" && (x.size - 0.5).abs() < 1e-12),
            "{f:?}"
        );

        let thin = [Rect::new(0.0, 0.0, 0.5, 8.0), Rect::new(2.0, 0.0, 2.0, 2.0)];
        let f = legal_floorplan(&nl, &outline, 3.0, &thin, 2.75);
        assert!(f.iter().any(|x| x.check == "aspect"), "{f:?}");
        assert!(
            f.iter()
                .any(|x| x.check == "outline" && (x.size - 4.0).abs() < 1e-12),
            "{f:?}"
        );

        let ok = [Rect::new(0.0, 0.0, 2.0, 2.0), Rect::new(2.0, 0.0, 2.0, 2.0)];
        let f = legal_floorplan(&nl, &outline, 3.0, &ok, 2.1);
        assert_eq!(f.iter().map(|x| x.check).collect::<Vec<_>>(), ["hpwl"]);
    }

    #[test]
    fn centre_and_twin_checks() {
        let (nl, _) = two_modules();
        assert!(centres(&nl, &[(0.0, 0.0), (1.0, 1.0)]).is_empty());
        assert_eq!(centres(&nl, &[(0.0, 0.0)])[0].check, "count");
        assert_eq!(
            centres(&nl, &[(0.0, f64::NAN), (1.0, 1.0)])[0].check,
            "finite"
        );
        assert!(cache_twin(&[(1, 2)], &[(1, 2)]).is_empty());
        assert_eq!(cache_twin(&[(1, 2)], &[(1, 3)])[0].size, 1.0);
    }
}
