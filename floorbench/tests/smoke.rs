//! Smoke mode: every workload of `BENCHMARK.json` on a tiny
//! seed-derived batch, untraced and traced, must emit every listed
//! metric with its unit and verify clean; and the verifier must reject
//! a deliberately overlapped layout. Run with
//! `cargo test --release --manifest-path floorbench/Cargo.toml`.

use floorbench::{inputs, result_json, run, verify, workload, Options};
use gfp_core::{GlobalFloorplanProblem, ProblemOptions, SolveSupervisor};
use gfp_legalize::{legalize, LegalizeSettings};
use gfp_netlist::bookshelf;
use gfp_telemetry::json::{self, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to floorbench/"))
        .expect("BENCHMARK.json parses")
}

fn listed(bench: &Json, key: &str) -> Vec<(String, String)> {
    bench
        .get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Tiny batch per workload: one n10 flat instance, one hierarchical
/// n30 instance, four served n10 jobs (one a cache hit).
fn tiny(name: &str, trace: bool) -> Options {
    let (class, count) = match name {
        "hier_n300" => ("n30", 1),
        "served_n10" => ("n10", 4),
        _ => ("n10", 1),
    };
    Options {
        seed: 11,
        seconds: 1.0,
        trace,
        count: Some(count),
        class: Some(class),
        state_base: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("floorbench-smoke"),
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let bench = benchmark_json();
    let workloads = bench
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads");
    assert!(workloads.len() >= 2);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        let w = workload(name)
            .unwrap_or_else(|| panic!("BENCHMARK.json names unknown workload {name}"));
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run(w, &tiny(w.name, trace));
            assert!(outcome.correct, "{name} trace={trace}: {:?}", outcome.notes);
            assert_eq!(outcome.failed, 0, "{name}: {:?}", outcome.notes);
            let line = json::parse(&result_json(&outcome)).expect("result line is JSON");
            let metrics = line
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics object");
            let want = listed(&bench, key);
            assert_eq!(metrics.len(), want.len(), "{name} {key}");
            for (metric, unit) in want {
                let m = line
                    .get("metrics")
                    .and_then(|ms| ms.get(&metric))
                    .unwrap_or_else(|| panic!("{name} misses {metric}"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name} {metric}"
                );
                let v = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                assert!(v.is_finite(), "{name} {metric} = {v}");
                if !trace {
                    assert!(v > 0.0, "{name} end-to-end {metric} = {v}");
                }
            }
        }
    }
}

#[test]
fn verifier_rejects_an_overlapped_layout() {
    let inst = inputs::flat_instance("smoke", "n10", 5, 0);
    let netlist = bookshelf::parse(&inst.files).expect("parses");
    let outline = inst.outline.expect("flat outline");
    let problem = GlobalFloorplanProblem::from_netlist(&netlist, &ProblemOptions::paper(outline))
        .expect("captures");
    let solved = SolveSupervisor::new(floorbench::flat::settings()).solve(&problem);
    let legal = legalize(
        &netlist,
        &problem,
        &outline,
        &solved.floorplan.positions,
        &LegalizeSettings::default(),
    )
    .expect("smoke instance legalizes");
    let check = |rects: &[gfp_netlist::geometry::Rect], hpwl: f64| {
        verify::legal_floorplan(&netlist, &outline, inputs::ASPECT_LIMIT, rects, hpwl)
    };
    assert_eq!(
        check(&legal.rects, legal.hpwl),
        vec![],
        "the legalizer's own output verifies"
    );

    let mut rects = legal.rects.clone();
    rects[1].x = rects[0].x;
    rects[1].y = rects[0].y;
    let centers: Vec<(f64, f64)> = rects.iter().map(|r| r.center()).collect();
    let failures = check(&rects, gfp_netlist::hpwl::hpwl(&netlist, &centers));
    let overlap = failures
        .iter()
        .find(|f| f.check == "overlap")
        .expect("overlap is reported");
    assert!(
        overlap.size >= rects[0].w.min(rects[1].w).min(rects[0].h.min(rects[1].h)) - 1e-9,
        "{overlap}"
    );
    assert!(
        failures.iter().all(|f| f.check == "overlap"),
        "{failures:?}"
    );
}
