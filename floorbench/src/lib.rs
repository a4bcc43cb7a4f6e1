//! `floorbench`: one benchmark from seeded netlists to verified
//! floorplans, end to end and layer by layer.
//!
//! A run generates its workload's netlists from the seed, writes them
//! as text, then sets up (parse, problem capture, daemon start) several
//! times and reports the median. It then makes one untraced pass over
//! the batch, timing its own calls into each layer and verifying every
//! output. End-to-end times are reported at a fixed reference speed of
//! the host, which the [`host`] module measures alongside the work. A
//! traced run does the same on the first half of the batch, then
//! repeats the pass with telemetry on and reads
//! the registry's existing `kernel.*`, `admm.*`, `sparsify.*` and
//! `store.*` counters and histograms for the per-layer table; it also
//! checks that tracing left HPWL, rank gap and certified share
//! bit-identical.

pub mod flat;
pub mod hier;
pub mod host;
pub mod inputs;
pub mod report;
pub mod served;
pub mod verify;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gfp_core::iterate::Backend;
use gfp_core::FloorplannerSettings;
use gfp_telemetry::{self as telemetry, Record, RecordKind, Sink};

use report::{interquartile_mean, median, quantile, ratio, Pass, END_TO_END, PER_LAYER};

/// Set-up repetitions per run, half before the measured pass and half
/// after it, each scaled by a host-speed sample taken just before it;
/// `setup_s` is their median.
pub const SETUP_REPEATS: usize = 24;

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paper protocol: supervised `fast()` solve, legalize, verify.
    Flat,
    /// Hierarchical fixed-budget solve, verify.
    Hier,
    /// Closed loop of jobs against an in-process daemon, verify.
    Served,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
    /// Stock suite spec its instances are generated from.
    pub class: &'static str,
    /// Batch units (instances or jobs) per second of `--seconds`. At
    /// `--seconds 36` a run measures 22 flat instances, 3 hierarchical
    /// ones or 32 jobs. On a 2-vCPU host an n10 instance takes 1.5–2 s
    /// on average, an n300 one 6–7 s and a served job 1.1–1.3 s (two
    /// in flight), so a whole run takes 32–60 s, 15–21 s or 34–46 s:
    /// 36 s on average over the three.
    pub units_per_s: f64,
    /// Why it is in the benchmark.
    pub why: &'static str,
}

/// Every workload. The paper's protocol at n = 30 is not among them:
/// one instance takes 20–40 s and instances differ by that much, so a
/// run cannot average enough of them to be steady; n10 instances
/// exercise the same dense projection and legalization paths.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "flat_n10",
        kind: Kind::Flat,
        class: "n10",
        units_per_s: 22.0 / 36.0,
        why: "paper protocol (fast() solve, legalize, verify) on 22 seeded n10 instances: dense projection and all legalization work",
    },
    Workload {
        name: "hier_n300",
        kind: Kind::Hier,
        class: "n300",
        units_per_s: 3.0 / 36.0,
        why: "fixed-budget hierarchical solve of 3 seeded n300 instances: sparsified assembly and partial-spectrum projection",
    },
    Workload {
        name: "served_n10",
        kind: Kind::Served,
        class: "n10",
        units_per_s: 32.0 / 36.0,
        why: "closed loop of 32 seeded n10 jobs, a quarter of them repeats, on a 1-worker daemon: protocol, queue wait, result cache, checkpoint writes",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Run parameters.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Nominal measured seconds; sizes the batch.
    pub seconds: f64,
    /// Traced run: report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Overrides the batch size (instances or jobs).
    pub count: Option<usize>,
    /// Overrides the instance class (e.g. a tiny one for smoke tests).
    pub class: Option<&'static str>,
    /// Directory for daemon state roots.
    pub state_base: PathBuf,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No output failed an integrity check (see
    /// [`verify::Failure::integrity`]) and a traced run left the
    /// deterministic results bit-identical. Outputs that fail a
    /// legality check count in `failed`.
    pub correct: bool,
    /// Outputs attempted over all passes.
    pub attempted: usize,
    /// Outputs not produced or rejected, over all passes.
    pub failed: usize,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable context: settings, one line per output.
    pub notes: Vec<String>,
}

/// Batch size of `w` for a run of `opts`. A traced run passes over its
/// batch twice (untraced, then traced), so it takes the first half of
/// the untraced run's batch and costs about as much.
pub fn batch_size(w: &Workload, opts: &Options) -> usize {
    let full = opts
        .count
        .unwrap_or((opts.seconds * w.units_per_s).round().max(1.0) as usize);
    if opts.trace {
        full.div_ceil(2)
    } else {
        full
    }
}

/// A workload's inputs, as text.
enum Inputs {
    Flat(Vec<inputs::BookshelfInstance>),
    Hier(Vec<inputs::BookshelfInstance>),
    /// Unique YAL netlists and the job schedule over them.
    Served(Vec<String>, Vec<usize>),
}

enum Prepared {
    Flat(Vec<flat::Case>),
    Hier(Vec<hier::Case>),
    Served(served::Batch),
}

fn make_inputs(w: &Workload, opts: &Options, count: usize) -> Inputs {
    let seed = opts.seed;
    let class = opts.class.unwrap_or(w.class);
    match w.kind {
        Kind::Flat => Inputs::Flat(
            (0..count)
                .map(|i| inputs::flat_instance(w.name, class, seed, i))
                .collect(),
        ),
        Kind::Hier => Inputs::Hier(
            (0..count)
                .map(|i| inputs::free_instance(w.name, class, seed, i))
                .collect(),
        ),
        Kind::Served => {
            let schedule = served::schedule(seed, count);
            let texts = (0..served::unique_count(&schedule))
                .map(|i| {
                    inputs::to_yal(
                        &inputs::generate(class, inputs::instance_seed(w.name, seed, i)).netlist,
                    )
                })
                .collect();
            Inputs::Served(texts, schedule)
        }
    }
}

/// One set-up: the prepared batch and its parse, capture and
/// daemon-start seconds.
fn setup(inputs: &Inputs, opts: &Options) -> (Prepared, [f64; 3]) {
    match inputs {
        Inputs::Flat(b) => {
            let (cases, p, c) = flat::setup(b);
            (Prepared::Flat(cases), [p, c, 0.0])
        }
        Inputs::Hier(b) => {
            let (cases, p, c) = hier::setup(b);
            (Prepared::Hier(cases), [p, c, 0.0])
        }
        Inputs::Served(texts, schedule) => {
            let (batch, p, c, s) = served::setup(texts, schedule.clone(), &opts.state_base);
            (Prepared::Served(batch), [p, c, s])
        }
    }
}

/// One pass over the batch; `probe` samples the host's speed around
/// every output.
fn pass(prepared: &Prepared, probe: &mut host::Probe) -> Pass {
    match prepared {
        Prepared::Flat(cases) => flat::pass(cases, probe),
        Prepared::Hier(cases) => hier::pass(cases, probe),
        Prepared::Served(batch) => served::pass(batch, probe),
    }
}

/// The run's rank gap: the maximum over jobs on the served workload
/// (every job must certify, so the worst one is the certificate), the
/// median over instances elsewhere.
fn rank_gap(w: &Workload, p: &Pass) -> f64 {
    let gaps: Vec<f64> = p.rows.iter().map(|r| r.rank_gap).collect();
    match w.kind {
        Kind::Served => gaps.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        _ => median(&gaps),
    }
}

/// Counts `admm.done` events and those that ended short of the
/// requested tolerance (`Inaccurate` or `MaxIterations`).
#[derive(Default)]
struct AdmmTally {
    solves: AtomicU64,
    capped: AtomicU64,
}

impl Sink for AdmmTally {
    fn record(&self, record: &Record<'_>) {
        if record.kind != RecordKind::Event || record.name != "admm.done" {
            return;
        }
        self.solves.fetch_add(1, Ordering::Relaxed);
        let optimal = record
            .fields
            .iter()
            .any(|(k, v)| *k == "status" && v.to_string() == "Optimal");
        if !optimal {
            self.capped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The solve budget in words, for result rows.
fn budget(s: &FloorplannerSettings) -> String {
    let admm = match &s.backend {
        Backend::Admm(a) => format!("admm eps={:e} max_iter={}", a.eps, a.max_iter),
        Backend::Ipm(_) => "ipm".into(),
    };
    format!(
        "alpha_rounds<={} iters/round<={} eps_rank={:e} {admm}",
        s.max_alpha_rounds, s.max_iter, s.eps_rank
    )
}

/// The workload's solve budget and the rest of its settings, in words.
fn settings_note(w: &Workload, opts: &Options) -> (String, String) {
    match w.kind {
        Kind::Flat => (
            format!("fast() {}", budget(&flat::settings())),
            "outline 1:1, aspect<=3, pads on outline; legalize: default SOCP".into(),
        ),
        Kind::Hier => {
            let h = hier::settings(inputs::stock_spec(opts.class.unwrap_or(w.class)).modules);
            (
                format!("fixed per stage: {}", budget(&h.top)),
                format!(
                    "hierarchical; clusters<={}, top sparsify=on, refine=off; no legalization",
                    h.max_clusters
                ),
            )
        }
        Kind::Served => (
            format!("fast() {}", budget(&FloorplannerSettings::fast())),
            format!(
                "daemon: workers=1 checkpoint_keep={}; closed loop, {} outstanding, poll {} ms, every {}th job a repeat",
                served::daemon_config(std::path::Path::new("."), 0).checkpoint_keep,
                served::OUTSTANDING,
                served::POLL.as_millis(),
                served::REPEAT_EVERY
            ),
        ),
    }
}

/// Runs `w` once.
pub fn run(w: &Workload, opts: &Options) -> Outcome {
    let count = batch_size(w, opts);
    let inputs = make_inputs(w, opts, count);
    let (budget, settings) = settings_note(w, opts);
    let mut notes = vec![
        format!(
            "workload={} seed={} seconds={} trace={} batch={count} host_cpus={} GFP_THREADS={}",
            w.name,
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            gfp_parallel::host_cpus(),
            gfp_parallel::env_num_threads()
        ),
        format!("budget: {budget}; {settings}"),
    ];
    if w.kind == Kind::Served {
        std::fs::create_dir_all(&opts.state_base).expect("create the state base");
        notes.push(format!(
            "state_root_fs={}",
            served::fs_type(&opts.state_base)
        ));
    }

    // Every set-up is preceded by a host-speed sample that scales it.
    let mut probe = host::Probe::default();
    let mut times: Vec<[f64; 3]> = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_scaled: Vec<f64> = Vec::with_capacity(SETUP_REPEATS);
    let mut set_up = |probe: &mut host::Probe| {
        let scale = host::scale(probe.sample());
        let (p, t) = setup(&inputs, opts);
        setup_scaled.push(t.iter().sum::<f64>() * scale);
        times.push(t);
        p
    };
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS / 2 {
        prepared = Some(set_up(&mut probe));
    }
    let prepared = prepared.expect("at least one set-up");

    let plain = pass(&prepared, &mut probe);
    let peak_rss = report::peak_rss_mb();
    for _ in SETUP_REPEATS / 2..SETUP_REPEATS {
        set_up(&mut probe);
    }
    let col = |i: usize| median(&times.iter().map(|t| t[i]).collect::<Vec<_>>());
    let setup_raw_s = median(&times.iter().map(|t| t.iter().sum()).collect::<Vec<_>>());
    for r in &plain.rows {
        notes.push(format!(
            "row {} quality={} budget=[{budget}]{} latency_s={:.4} wall_s={:.4} host_sample_ms={:.3} hpwl={} rank_gap={:e} distance_violations={} verdict={}",
            r.label,
            r.quality,
            if r.certified() { "" } else { " (not a time to a certificate)" },
            r.latency_s,
            r.wall_s,
            r.probe_s * 1e3,
            r.hpwl,
            r.rank_gap,
            r.distance.map_or_else(|| "n/a".into(), |(v, m)| format!("{v} (max rel {m:.2e})")),
            match (&r.error, r.failures.is_empty()) {
                (Some(e), _) => format!("FAILED: {e}"),
                (None, true) => "pass".into(),
                (None, false) => format!(
                    "REJECTED: {}",
                    r.failures.iter().map(ToString::to_string).collect::<Vec<_>>().join(" ")
                ),
            }
        ));
    }
    notes.push(format!(
        "certified_frac={} fail_frac={} outputs={}",
        plain.certified_frac(),
        ratio(plain.failed() as f64, plain.rows.len() as f64),
        plain.rows.len()
    ));

    let plain_gap = rank_gap(w, &plain);
    let walls: Vec<f64> = plain.rows.iter().map(|r| r.wall_s).collect();
    let walls_scaled: Vec<f64> = plain
        .rows
        .iter()
        .map(|r| r.wall_s * host::scale(r.probe_s))
        .collect();
    let (setup_s, wall_s) = (median(&setup_scaled), interquartile_mean(&walls_scaled));
    notes.push(format!(
        "host speed: median sample {:.6} s against {} s at the reference speed; setup_s={setup_s:.6} wall_s={wall_s:.4} at the reference speed, {setup_raw_s:.6} and {:.4} as measured",
        median(&probe.samples),
        host::REF_SAMPLE_S,
        interquartile_mean(&walls)
    ));
    let lat: Vec<f64> = plain.rows.iter().map(|r| r.latency_s).collect();
    let mut outcome = Outcome {
        correct: plain.incorrect() == 0 && plain_gap.is_finite(),
        attempted: plain.rows.len(),
        failed: plain.failed(),
        metrics: Vec::new(),
        notes,
    };
    if !opts.trace {
        let values = [setup_s, wall_s, plain.hpwl(), peak_rss];
        assert_eq!(values.len(), END_TO_END.len());
        outcome.metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect();
        return outcome;
    }

    telemetry::reset_aggregates();
    let tally = Arc::new(AdmmTally::default());
    telemetry::install_sink(tally.clone());
    telemetry::set_enabled(true);
    let traced_from = probe.samples.len();
    let traced = pass(&prepared, &mut probe);
    telemetry::set_enabled(false);
    telemetry::install_sink(Arc::new(telemetry::NullSink));

    let same = plain.deterministic(plain_gap) == traced.deterministic(rank_gap(w, &traced));
    if !same {
        outcome
            .notes
            .push("tracing changed hpwl, rank_gap or certified_frac".into());
    }
    outcome.correct &= traced.incorrect() == 0 && same;
    outcome.attempted += traced.rows.len();
    outcome.failed += traced.failed();

    let counters = telemetry::counters_snapshot();
    let histograms = telemetry::histograms_snapshot();
    let c = |name: &str| {
        counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let h = |name: &str| histograms.iter().find(|s| s.name == name);
    let h_sum_s = |name: &str| h(name).map_or(0.0, |s| s.sum as f64 / 1e6);
    let l = &traced.layers;

    let sdp = match w.kind {
        Kind::Served => h_sum_s("round.wall_micros"),
        _ => l.sdp_s,
    };
    let psd_s = c("kernel.project_psd.micros") / 1e6;
    let assembly_s = h_sum_s("kernel.assembly");
    let lanczos_s = c("kernel.lanczos.micros") / 1e6;
    let psd_calls = c("kernel.project_psd.calls");
    let kept = c("sparsify.kept");
    let partial_hits = c("kernel.eigh_partial.hit");
    let (solves, capped) = (
        tally.solves.load(Ordering::Relaxed),
        tally.capped.load(Ordering::Relaxed),
    );
    let values = [
        ratio(plain.rows.len() as f64, plain.batch_s),
        median(&lat),
        quantile(&lat, 0.75),
        plain_gap,
        col(0),
        col(1),
        sdp,
        c("convex.iterations"),
        c("supervisor.rounds"),
        c("supervisor.recoveries"),
        assembly_s,
        kept,
        ratio(kept, kept + c("sparsify.pruned")),
        c("admm.iterations"),
        h("admm.cg_iterations").map_or(0.0, |s| s.mean),
        h("admm.solve_iterations").map_or(0.0, |s| s.p90),
        ratio(capped as f64, solves as f64),
        c("admm.warm_reuse"),
        sdp - psd_s - assembly_s - lanczos_s,
        psd_s,
        psd_calls,
        ratio(c("kernel.project_psd.micros"), psd_calls),
        c("kernel.eigh.micros") / 1e6,
        c("kernel.eigh.calls"),
        c("kernel.spectral_side.micros") / 1e6,
        c("kernel.spectral_side.calls"),
        ratio(
            partial_hits,
            partial_hits + c("kernel.eigh_partial.fallback"),
        ),
        ratio(c("kernel.project_psd.gershgorin_hits"), psd_calls),
        lanczos_s,
        c("kernel.lanczos.calls"),
        c("kernel.spectral_accumulate.micros") / 1e6,
        l.hier_top_s,
        l.hier_leaf_s,
        c("hier.stage"),
        l.legalize_s,
        l.legalize_fail as f64,
        l.verify_s,
        traced
            .rows
            .iter()
            .filter(|r| !r.failures.is_empty())
            .count() as f64,
        traced
            .rows
            .iter()
            .filter_map(|r| r.distance)
            .map(|(v, _)| v)
            .sum::<usize>() as f64,
        traced.batch_s - sdp - l.legalize_s - l.verify_s,
        c("store.snapshot_write"),
        c("store.snapshot_bytes"),
        quantile(&l.queue_wait_s, 0.5),
        quantile(&l.queue_wait_s, 0.75),
        median(&l.run_s),
        median(&l.rtt_s) * 1e3,
        ratio(l.cache_hits as f64, traced.rows.len() as f64),
        l.rejected as f64,
        l.retries as f64,
        traced.certified_frac(),
        ratio(traced.failed() as f64, traced.rows.len() as f64),
        traced.batch_s / plain.batch_s - 1.0,
        median(&probe.samples[traced_from..]) * 1e3,
    ];
    assert_eq!(values.len(), PER_LAYER.len());
    outcome.metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect();
    outcome
}

/// The run's result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct && o.metrics.iter().all(|m| m.1.is_finite()),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}
