//! Served workload: a closed loop against an in-process `gfpd`
//! daemon.
//!
//! One daemon worker solves seeded n10-class netlists submitted as
//! inline YAL text; checkpoint rings and per-job reports go to disk
//! under the state root. One generator thread keeps [`OUTSTANDING`]
//! jobs in flight and polls each with `Client::status` every
//! [`POLL`], stamping the submit acknowledgement, the first `Running`
//! seen and `Done`, so queue wait and run time are measured apart.
//! Every fourth job repeats the netlist of a job that has already
//! finished, so it is a deterministic cache hit. The generator takes a
//! host-speed sample when the loop starts and after each job is done;
//! a job is scaled by the samples before its submission and after it
//! was done.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gfp_core::{GlobalFloorplanProblem, ProblemOptions};
use gfp_netlist::{hpwl, yal, Netlist};
use gfp_service::{
    job, Client, Daemon, DaemonConfig, JobPhase, JobResult, JobSource, SubmitRequest,
};
use gfp_telemetry::SolveReport;

use crate::host::Probe;
use crate::report::{Pass, Row};
use crate::verify;

/// Jobs kept in flight by the generator.
pub const OUTSTANDING: usize = 2;
/// Status poll period.
pub const POLL: Duration = Duration::from_millis(5);
/// Every `REPEAT_EVERY`-th job repeats an earlier, finished netlist.
pub const REPEAT_EVERY: usize = 4;

/// A unique netlist of the batch, captured for verification.
pub struct Netl {
    yal: String,
    netlist: Netlist,
    problem: GlobalFloorplanProblem,
}

/// The captured batch: unique netlists and the job schedule.
pub struct Batch {
    nets: Vec<Netl>,
    /// Per job slot, the index into `nets`.
    schedule: Vec<usize>,
    /// Directory under which each pass creates a fresh state root.
    state_base: PathBuf,
}

/// The job schedule: `jobs` slots over `unique` netlists, every
/// [`REPEAT_EVERY`]-th slot a repeat of a netlist first submitted at
/// least [`OUTSTANDING`] + 1 slots earlier (so, in a closed loop, one
/// whose job has finished). Returns the netlist index per slot.
pub fn schedule(seed: u64, jobs: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(jobs);
    let mut next_unique = 0;
    for slot in 0..jobs {
        let eligible = out[..slot.saturating_sub(OUTSTANDING)]
            .iter()
            .copied()
            .max()
            .map(|m: usize| m + 1)
            .unwrap_or(0);
        if slot % REPEAT_EVERY == REPEAT_EVERY - 1 && eligible > 0 {
            out.push((crate::inputs::mix(seed ^ slot as u64) % eligible as u64) as usize);
        } else {
            out.push(next_unique);
            next_unique += 1;
        }
    }
    out
}

/// Number of unique netlists [`schedule`] draws on.
pub fn unique_count(schedule: &[usize]) -> usize {
    schedule.iter().max().map_or(0, |m| m + 1)
}

/// Daemon settings of the workload: one worker, a 3-deep checkpoint
/// ring, and every done-job directory kept for the run.
pub fn daemon_config(root: &Path, jobs: usize) -> DaemonConfig {
    DaemonConfig {
        root: root.to_path_buf(),
        workers: 1,
        keep_done: jobs + 1,
        ..DaemonConfig::default()
    }
}

/// Parses and captures every unique netlist, then starts and stops a
/// daemon on a fresh state root under `state_base`. Returns the
/// batch and the parse, capture and daemon-start seconds.
///
/// # Panics
///
/// Panics if generated text fails to parse or capture, or the daemon
/// cannot start.
pub fn setup(yals: &[String], schedule: Vec<usize>, state_base: &Path) -> (Batch, f64, f64, f64) {
    let t0 = Instant::now();
    let netlists: Vec<Netlist> = yals
        .iter()
        .map(|t| yal::parse(t, &yal::YalOptions::default()).expect("generated YAL parses"))
        .collect();
    let parse_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let nets: Vec<Netl> = yals
        .iter()
        .zip(netlists)
        .map(|(yal, netlist)| {
            // The daemon captures YAL jobs with the default options.
            let problem =
                GlobalFloorplanProblem::from_netlist(&netlist, &ProblemOptions::default())
                    .expect("generated netlist captures");
            Netl {
                yal: yal.clone(),
                netlist,
                problem,
            }
        })
        .collect();
    let capture_s = t1.elapsed().as_secs_f64();
    let root = fresh_root(state_base);
    let t2 = Instant::now();
    let mut daemon = Daemon::start(daemon_config(&root, schedule.len())).expect("daemon starts");
    let start_s = t2.elapsed().as_secs_f64();
    daemon.stop();
    let _ = std::fs::remove_dir_all(&root);
    let batch = Batch {
        nets,
        schedule,
        state_base: state_base.to_path_buf(),
    };
    (batch, parse_s, capture_s, start_s)
}

fn fresh_root(base: &Path) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    base.join(format!(
        "gfpd-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ))
}

/// A job in flight.
struct InFlight {
    slot: usize,
    id: u64,
    submitted: Instant,
    acked: Instant,
    running: Option<Instant>,
    /// The latest host-speed sample when the job was submitted.
    probe_s: f64,
}

/// Runs the closed loop over the whole schedule against a fresh
/// daemon and verifies every result.
///
/// # Panics
///
/// Panics if the daemon cannot start or the loopback protocol fails.
pub fn pass(batch: &Batch, probe: &mut Probe) -> Pass {
    let root = fresh_root(&batch.state_base);
    let mut daemon =
        Daemon::start(daemon_config(&root, batch.schedule.len())).expect("daemon starts");
    let client = Client::new(daemon.addr());
    let mut pass = Pass::default();
    let mut rows: Vec<Option<Row>> = vec![None; batch.schedule.len()];
    // Per unique netlist: the first finished result and its rank gap.
    let mut twins: Vec<Option<(JobResult, f64)>> = vec![None; batch.nets.len()];
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut next = 0;
    let mut last = probe.sample();
    let start = Instant::now();
    while next < batch.schedule.len() || !in_flight.is_empty() {
        while in_flight.len() < OUTSTANDING && next < batch.schedule.len() {
            in_flight.push(submit(&client, batch, next, last, &mut pass));
            next += 1;
        }
        let mut finished = false;
        let mut k = 0;
        while k < in_flight.len() {
            let status = client.status(in_flight[k].id).expect("status poll");
            let now = Instant::now();
            match status.phase {
                JobPhase::Running if in_flight[k].running.is_none() => {
                    in_flight[k].running = Some(now)
                }
                JobPhase::Done | JobPhase::Cancelled => {
                    let job = in_flight.swap_remove(k);
                    let mut row = finish(&client, batch, &root, &job, now, &mut twins, &mut pass);
                    last = probe.sample();
                    row.probe_s = (job.probe_s + last) / 2.0;
                    rows[job.slot] = Some(row);
                    finished = true;
                    continue;
                }
                _ => {}
            }
            k += 1;
        }
        if !finished {
            std::thread::sleep(POLL);
        }
    }
    pass.batch_s = start.elapsed().as_secs_f64();
    daemon.stop();
    let _ = std::fs::remove_dir_all(&root);
    pass.rows = rows
        .into_iter()
        .map(|r| r.expect("every slot finished"))
        .collect();
    pass
}

fn submit(client: &Client, batch: &Batch, slot: usize, probe_s: f64, pass: &mut Pass) -> InFlight {
    let req = SubmitRequest {
        source: JobSource::Yal(batch.nets[batch.schedule[slot]].yal.clone()),
        deadline_ms: 0,
        max_iter: 0,
        max_rounds: 0,
    };
    let submitted = Instant::now();
    loop {
        match client.submit(req.clone()) {
            Ok((id, _)) => {
                let acked = Instant::now();
                pass.layers.rtt_s.push((acked - submitted).as_secs_f64());
                return InFlight {
                    slot,
                    id,
                    submitted,
                    acked,
                    running: None,
                    probe_s,
                };
            }
            Err(gfp_service::ClientError::Daemon { code, .. }) if code == "rejected" => {
                pass.layers.rejected += 1;
                std::thread::sleep(POLL);
            }
            Err(e) => panic!("submit failed: {e}"),
        }
    }
}

fn finish(
    client: &Client,
    batch: &Batch,
    root: &Path,
    job: &InFlight,
    done: Instant,
    twins: &mut [Option<(JobResult, f64)>],
    pass: &mut Pass,
) -> Row {
    let latency_s = (done - job.submitted).as_secs_f64();
    let t0 = Instant::now();
    let idx = batch.schedule[job.slot];
    let net = &batch.nets[idx];
    let result = client.fetch(job.id).expect("fetch a done job");
    let positions: Vec<(f64, f64)> = result
        .positions_bits
        .iter()
        .map(|&(x, y)| (f64::from_bits(x), f64::from_bits(y)))
        .collect();
    let mut failures = verify::centres(&net.netlist, &positions);
    let placed = failures.is_empty();
    let rank_gap = if result.cache_hit {
        pass.layers.cache_hits += 1;
        match &twins[idx] {
            Some((twin, gap)) => {
                failures.extend(verify::cache_twin(
                    &result.positions_bits,
                    &twin.positions_bits,
                ));
                *gap
            }
            None => {
                failures.push(verify::Failure {
                    check: "cache_twin",
                    at: "no finished twin".into(),
                    size: 1.0,
                });
                f64::NAN
            }
        }
    } else {
        let running = job.running.unwrap_or(done);
        pass.layers
            .queue_wait_s
            .push((running - job.acked).as_secs_f64());
        pass.layers.run_s.push((done - running).as_secs_f64());
        pass.layers.retries += u64::from(result.attempts.saturating_sub(1));
        let report = job::job_dir(root, job.id).join(job::REPORT_FILE);
        let gap = SolveReport::read_from(&report)
            .ok()
            .and_then(|r| match r.meta_field("rank_gap") {
                Some(gfp_telemetry::Value::F64(g)) => Some(*g),
                _ => None,
            })
            .unwrap_or(f64::NAN);
        if gap.is_nan() {
            failures.push(verify::Failure {
                check: "report",
                at: report.display().to_string(),
                size: 1.0,
            });
        }
        if twins[idx].is_none() {
            twins[idx] = Some((result.clone(), gap));
        }
        gap
    };
    let mut row = Row {
        label: format!(
            "job {} ({})",
            job.id,
            if result.cache_hit {
                "cache hit"
            } else {
                "solved"
            }
        ),
        quality: result.quality.clone(),
        latency_s,
        wall_s: 0.0,
        probe_s: 0.0,
        hpwl: 0.0,
        rank_gap,
        error: None,
        failures,
        distance: None,
    };
    if placed {
        row.hpwl = hpwl::hpwl(&net.netlist, &positions);
        if row.certified() {
            row.distance = verify::distance_feasibility(&net.problem, &positions);
        }
    }
    pass.layers.verify_s += t0.elapsed().as_secs_f64();
    row.wall_s = (Instant::now() - job.submitted).as_secs_f64();
    row
}

/// The filesystem type of the mount holding `path`, from
/// `/proc/self/mounts` (`unknown` where that is unavailable).
pub fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_only_point_at_finished_slots() {
        let s = schedule(42, 40);
        assert_eq!(s.len(), 40);
        assert_eq!(unique_count(&s), 30);
        let first: Vec<usize> = (0..unique_count(&s))
            .map(|u| s.iter().position(|&x| x == u).unwrap())
            .collect();
        for (slot, &u) in s.iter().enumerate() {
            if slot % REPEAT_EVERY == REPEAT_EVERY - 1 {
                assert!(
                    first[u] + OUTSTANDING < slot,
                    "slot {slot} repeats a job that may be in flight"
                );
            }
        }
        assert_eq!(s, schedule(42, 40));
    }
}
