//! `gfpd` — the crash-tolerant floorplan solve daemon, plus a small
//! CLI client for scripting against it.
//!
//! ```text
//! gfpd serve    --root DIR [--addr HOST:PORT] [--workers N]
//!               [--queue-cap N] [--max-attempts N] [--keep-done N]
//! gfpd submit   --addr ADDR (--suite NAME | --yal FILE)
//!               [--deadline-ms N] [--max-iter N] [--max-rounds N] [--wait]
//! gfpd status   --addr ADDR --job ID
//! gfpd fetch    --addr ADDR --job ID
//! gfpd cancel   --addr ADDR --job ID
//! gfpd stats    --addr ADDR
//! gfpd shutdown --addr ADDR
//! ```
//!
//! * `serve` binds (port `0` picks a free port), prints
//!   `gfpd listening on <addr>` and also writes the bound address to
//!   `<root>/gfpd.addr` so harnesses using an ephemeral port can find
//!   it, then blocks until a `shutdown` request arrives. Restarting
//!   over the same `--root` resumes in-flight jobs and rebuilds the
//!   result cache (see `gfp-service`).
//! * `fetch` prints the result in a stable line format with bit-exact
//!   hex positions; `attempts=`/`cache_hit=` live on their own lines
//!   so crash-resume comparisons can filter them out (a resumed job
//!   legitimately records more attempts than an uninterrupted one).
//!
//! Exit codes: 0 success, 1 daemon/transport error, 2 bad usage.

use std::io::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use gfp_service::{Client, Daemon, DaemonConfig, JobResult, JobSource, SubmitRequest};

fn usage() -> ! {
    eprintln!(
        "usage: gfpd serve --root DIR [--addr HOST:PORT] [--workers N] [--queue-cap N] \
         [--max-attempts N] [--keep-done N]\n\
         \x20      gfpd submit --addr ADDR (--suite NAME | --yal FILE) [--deadline-ms N] \
         [--max-iter N] [--max-rounds N] [--wait]\n\
         \x20      gfpd status|fetch|cancel --addr ADDR --job ID\n\
         \x20      gfpd stats|shutdown --addr ADDR"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("gfpd: {msg}");
    std::process::exit(1);
}

fn parse_addr(s: &str) -> SocketAddr {
    s.parse().unwrap_or_else(|_| fail(format!("bad address {s:?}")))
}

/// Submissions wait long enough for a debug-build n200 under load.
const WAIT: Duration = Duration::from_secs(1800);

fn main() {
    gfp_telemetry::init_from_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "serve" => serve(&args),
        "submit" => submit(&args),
        "status" => job_query(&args, |c, id| c.status(id).map(print_status)),
        "fetch" => job_query(&args, |c, id| c.fetch(id).map(|r| print_result(&r))),
        "cancel" => job_query(&args, |c, id| c.cancel(id).map(print_status)),
        "stats" => {
            let client = Client::new(addr_arg(&args));
            match client.stats() {
                Ok(s) => println!(
                    "queued={} running={} completed={} rejected={} cache_hits={} \
                     workers={} queue_cap={}",
                    s.queued, s.running, s.completed, s.rejected, s.cache_hits, s.workers,
                    s.queue_cap
                ),
                Err(e) => fail(e),
            }
        }
        "shutdown" => {
            let client = Client::new(addr_arg(&args));
            if let Err(e) = client.shutdown() {
                fail(e);
            }
            println!("shutdown acknowledged");
        }
        _ => usage(),
    }
}

fn addr_arg(args: &[String]) -> SocketAddr {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--addr" {
            return parse_addr(it.next().unwrap_or_else(|| usage()));
        }
    }
    usage()
}

fn serve(args: &[String]) {
    let mut cfg = DaemonConfig::default();
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--root" => root = Some(PathBuf::from(next())),
            "--addr" => cfg.addr = next(),
            "--workers" => cfg.workers = next().parse().unwrap_or_else(|_| usage()),
            "--queue-cap" => cfg.queue_cap = next().parse().unwrap_or_else(|_| usage()),
            "--max-attempts" => cfg.max_attempts = next().parse().unwrap_or_else(|_| usage()),
            "--keep-done" => cfg.keep_done = next().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let Some(root) = root else { usage() };
    cfg.root = root.clone();

    let mut daemon = match Daemon::start(cfg) {
        Ok(d) => d,
        Err(e) => fail(format!("failed to start: {e}")),
    };
    let addr = daemon.addr();
    // The addr file makes ephemeral ports (--addr 127.0.0.1:0)
    // discoverable by harnesses that only know the root directory;
    // written atomically, so a harness that sees it can read it whole.
    let addr_file = root.join("gfpd.addr");
    if let Err(e) = gfp_store::write_atomic(&addr_file, format!("{addr}\n").as_bytes()) {
        fail(format!("cannot write addr file: {e}"));
    }
    println!("gfpd listening on {addr}");
    let _ = std::io::stdout().flush();
    daemon.wait();
    println!("gfpd stopped");
}

fn submit(args: &[String]) {
    let mut addr: Option<SocketAddr> = None;
    let mut source: Option<JobSource> = None;
    let mut req = SubmitRequest {
        source: JobSource::Suite(String::new()),
        deadline_ms: 0,
        max_iter: 0,
        max_rounds: 0,
    };
    let mut wait = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--addr" => addr = Some(parse_addr(&next())),
            "--suite" => source = Some(JobSource::Suite(next())),
            "--yal" => {
                let path = next();
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
                source = Some(JobSource::Yal(text));
            }
            "--deadline-ms" => req.deadline_ms = next().parse().unwrap_or_else(|_| usage()),
            "--max-iter" => req.max_iter = next().parse().unwrap_or_else(|_| usage()),
            "--max-rounds" => req.max_rounds = next().parse().unwrap_or_else(|_| usage()),
            "--wait" => wait = true,
            _ => usage(),
        }
    }
    let (Some(addr), Some(source)) = (addr, source) else { usage() };
    req.source = source;

    let client = Client::new(addr);
    let (job, cache_hit) = match client.submit_with_retry(req, 100) {
        Ok(r) => r,
        Err(e) => fail(e),
    };
    println!("job={job} cache_hit={cache_hit}");
    if wait {
        match client.wait_done(job, WAIT).and_then(|_| client.fetch(job)) {
            Ok(result) => print_result(&result),
            Err(e) => fail(e),
        }
    }
}

fn job_query(args: &[String], call: impl Fn(&Client, u64) -> Result<(), gfp_service::ClientError>) {
    let mut addr: Option<SocketAddr> = None;
    let mut job: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--addr" => addr = Some(parse_addr(&next())),
            "--job" => job = Some(next().parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    let (Some(addr), Some(job)) = (addr, job) else { usage() };
    if let Err(e) = call(&Client::new(addr), job) {
        fail(e);
    }
}

fn print_status(s: gfp_service::JobStatus) {
    println!(
        "job={} phase={} attempts={} quality={} cache_hit={}",
        s.job,
        s.phase.as_str(),
        s.attempts,
        s.quality.as_deref().unwrap_or("-"),
        s.cache_hit
    );
}

/// Stable, bit-exact result record. `attempts=`/`cache_hit=` are kept
/// on dedicated lines: crash-resume harnesses diff everything else.
fn print_result(r: &JobResult) {
    println!("quality={} degraded={}", r.quality, r.degraded);
    println!("attempts={}", r.attempts);
    println!("cache_hit={}", r.cache_hit);
    println!(
        "objective={:016x} iterations={} rounds={}",
        r.objective_bits, r.iterations, r.rounds
    );
    for (x, y) in &r.positions_bits {
        println!("pos {x:016x} {y:016x}");
    }
}
