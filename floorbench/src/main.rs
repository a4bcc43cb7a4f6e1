//! Command-line entry point.
//!
//! ```text
//! floorbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints context lines (settings, one line per output) and, last, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`, the
//! end-to-end metrics on an untraced run and the per-layer metrics on
//! a traced one. Exit codes: 0 after a run, 2 on bad usage.

use std::path::PathBuf;

use floorbench::{result_json, run, workload, Options, WORKLOADS};

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "floorbench: {msg}\nusage: floorbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        names.join("|")
    );
    std::process::exit(2);
}

fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a valid value")))
}

fn main() {
    // The solver pool runs single-threaded; the served workload adds
    // one generator thread, so a run keeps at most two threads busy.
    // Set before anything touches the pool, while this is the only
    // thread.
    std::env::set_var("GFP_THREADS", "1");

    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => name = Some(value::<String>(&mut args, "--workload")),
            "--seed" => seed = Some(value::<u64>(&mut args, "--seed")),
            "--seconds" => seconds = Some(value::<f64>(&mut args, "--seconds")),
            "--trace" => trace = Some(value::<u8>(&mut args, "--trace")),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let name = name.unwrap_or_else(|| usage("--workload is required"));
    let w = workload(&name).unwrap_or_else(|| usage(&format!("unknown workload {name}")));
    let opts = Options {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds
            .filter(|s| *s > 0.0)
            .unwrap_or_else(|| usage("--seconds must be positive")),
        trace: match trace {
            Some(0) => false,
            Some(1) => true,
            _ => usage("--trace must be 0 or 1"),
        },
        count: None,
        class: None,
        state_base: PathBuf::from(".floorbench_state"),
    };

    let outcome = run(w, &opts);
    let _ = std::fs::remove_dir(&opts.state_base);
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", result_json(&outcome));
}
