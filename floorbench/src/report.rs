//! Result rows, per-layer tallies and the metric tables the run prints.

use crate::verify::Failure;

/// Metric name and unit, as listed in `BENCHMARK.json`.
pub type MetricSpec = (&'static str, &'static str);

/// End-to-end metrics, reported on every untraced run.
pub const END_TO_END: &[MetricSpec] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("hpwl", "length"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported on every traced run.
pub const PER_LAYER: &[MetricSpec] = &[
    ("jobs_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p75_s", "s"),
    ("rank_gap", "ratio"),
    ("netlist.parse_s", "s"),
    ("problem.capture_s", "s"),
    ("sdp.busy_s", "s"),
    ("convex.iterations", "count"),
    ("supervisor.rounds", "count"),
    ("supervisor.recoveries", "count"),
    ("assembly.busy_s", "s"),
    ("sparsify.kept", "count"),
    ("sparsify.kept_frac", "ratio"),
    ("admm.iterations", "count"),
    ("admm.cg_per_iter", "count"),
    ("admm.solve_iter_p90", "count"),
    ("admm.cap_frac", "ratio"),
    ("admm.warm_reuse", "count"),
    ("admm.rest_s", "s"),
    ("project_psd.busy_s", "s"),
    ("project_psd.calls", "count"),
    ("project_psd.mean_us", "us"),
    ("eigh.busy_s", "s"),
    ("eigh.calls", "count"),
    ("spectral_side.busy_s", "s"),
    ("spectral_side.calls", "count"),
    ("eigh_partial.hit_frac", "ratio"),
    ("gershgorin.hit_frac", "ratio"),
    ("lanczos.busy_s", "s"),
    ("lanczos.calls", "count"),
    ("spectral_accumulate.busy_s", "s"),
    ("hier.top_s", "s"),
    ("hier.leaf_s", "s"),
    ("hier.stages", "count"),
    ("legalize.busy_s", "s"),
    ("legalize.fail", "count"),
    ("verify.busy_s", "s"),
    ("verify.fail", "count"),
    ("verify.dist_violations", "count"),
    ("layers.remainder_s", "s"),
    ("store.snapshot_writes", "count"),
    ("store.snapshot_bytes", "B"),
    ("queue.wait_p50_s", "s"),
    ("queue.wait_p75_s", "s"),
    ("service.run_p50_s", "s"),
    ("service.rtt_p50_ms", "ms"),
    ("cache.hit_frac", "ratio"),
    ("service.rejected", "count"),
    ("service.retries", "count"),
    ("certified_frac", "ratio"),
    ("fail_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("host.sample_ms", "ms"),
];

/// One output of a run: a legalized floorplan, a hierarchical
/// placement or a served job.
#[derive(Debug, Clone)]
pub struct Row {
    /// Instance label (`n10#3`, `job 7`, ...).
    pub label: String,
    /// Solve quality verdict (`SolveQuality::as_str`).
    pub quality: String,
    /// Seconds from the captured problem (or the submit) until the
    /// program returned the output.
    pub latency_s: f64,
    /// Seconds from the captured problem (or the submit) to the
    /// verified output.
    pub wall_s: f64,
    /// Mean seconds of the host-speed samples taken right before and
    /// right after the output (see [`crate::host`]).
    pub probe_s: f64,
    /// Legalized or recomputed HPWL of the output.
    pub hpwl: f64,
    /// Final relative rank gap `<W,Z>/tr Z`.
    pub rank_gap: f64,
    /// The program failed to produce the output (e.g. legalization
    /// infeasible); the error text.
    pub error: Option<String>,
    /// Verifier checks the output failed.
    pub failures: Vec<Failure>,
    /// Certified placements at aspect limit 1 only (see
    /// [`crate::verify::distance_feasibility`]): distance-constraint
    /// violations beyond the verifier's tolerance, and the worst
    /// relative one.
    pub distance: Option<(usize, f64)>,
}

impl Row {
    /// Whether the output counts as failed: not produced, or rejected
    /// by the verifier.
    pub fn failed(&self) -> bool {
        self.error.is_some() || !self.failures.is_empty()
    }

    /// Whether the verdict is a rank certificate.
    pub fn certified(&self) -> bool {
        matches!(self.quality.as_str(), "certified" | "recovered")
    }
}

/// Busy times and counts the benchmark measures around its own calls
/// into each layer (everything else comes from the telemetry registry).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Supervised / hierarchical solve calls, summed.
    pub sdp_s: f64,
    /// `legalize` calls, summed.
    pub legalize_s: f64,
    /// Legalization failures.
    pub legalize_fail: u64,
    /// Verifier time, summed.
    pub verify_s: f64,
    /// Hierarchical top-stage round seconds.
    pub hier_top_s: f64,
    /// Hierarchical leaf-stage round seconds.
    pub hier_leaf_s: f64,
    /// Served jobs: submit acknowledgement to first `Running` seen.
    pub queue_wait_s: Vec<f64>,
    /// Served jobs: first `Running` seen to `Done` seen.
    pub run_s: Vec<f64>,
    /// Served jobs: submit round trip.
    pub rtt_s: Vec<f64>,
    /// Served jobs answered from the result cache.
    pub cache_hits: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Solve attempts beyond the first, summed over served jobs.
    pub retries: u64,
}

/// Everything one pass over a workload's batch produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// One row per output, in batch order.
    pub rows: Vec<Row>,
    /// Seconds from the first captured problem (or submit) to the
    /// last verified output.
    pub batch_s: f64,
    /// Bench-side layer timings.
    pub layers: Layers,
}

impl Pass {
    /// Outputs that failed, and the share of attempted ones.
    pub fn failed(&self) -> usize {
        self.rows.iter().filter(|r| r.failed()).count()
    }

    /// Outputs that failed an integrity check.
    pub fn incorrect(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.failures.iter().any(Failure::integrity))
            .count()
    }

    /// Mean HPWL per produced output (0 when none was produced).
    pub fn hpwl(&self) -> f64 {
        let produced: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.error.is_none())
            .map(|r| r.hpwl)
            .collect();
        ratio(produced.iter().sum(), produced.len() as f64)
    }

    /// Share of outputs with a rank certificate.
    pub fn certified_frac(&self) -> f64 {
        ratio(
            self.rows.iter().filter(|r| r.certified()).count() as f64,
            self.rows.len() as f64,
        )
    }

    /// The values that must repeat bit for bit across runs and between
    /// traced and untraced passes: mean HPWL, rank gap, certified share.
    pub fn deterministic(&self, rank_gap: f64) -> [u64; 3] {
        [
            self.hpwl().to_bits(),
            rank_gap.to_bits(),
            self.certified_frac().to_bits(),
        ]
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Quantile `q` of `values` with linear interpolation (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        len => {
            let pos = q * (len - 1) as f64;
            let (lo, frac) = (pos.floor() as usize, pos.fract());
            if lo + 1 < len {
                v[lo] + frac * (v[lo + 1] - v[lo])
            } else {
                v[lo]
            }
        }
    }
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile mean: the mean of `values` without their lowest and
/// highest quarter (`len / 4` values each), 0 when empty. As robust to
/// a few outliers as the median, and steadier over a small batch.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = v.len() / 4;
    let mid = &v[k..v.len() - k];
    ratio(mid.iter().sum(), mid.len() as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 0.0]), 2.5);
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
    }
}
