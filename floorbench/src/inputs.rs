//! Seeded workload inputs, written out as netlist text.
//!
//! Every instance comes from `gfp_netlist::suite::generate` with a
//! stock spec's module, net, pad and area statistics and a seed
//! derived from the run seed. The benchmark hands the program text
//! (bookshelf for the in-process workloads, YAL for the daemon), so
//! parsing is part of what set-up measures.

use gfp_netlist::suite::{self, SuiteSpec};
use gfp_netlist::{bookshelf, Netlist, Outline, PinRef};

/// Aspect-ratio limit of the paper's main experiments.
pub const ASPECT_LIMIT: f64 = 3.0;

/// The stock spec named `class` (`n10`, `n30`, `n300`, ...).
///
/// # Panics
///
/// Panics on a name the suite does not know; workload names are
/// fixed in this crate.
pub fn stock_spec(class: &str) -> SuiteSpec {
    suite::specs()
        .into_iter()
        .find(|s| s.name == class)
        .unwrap_or_else(|| panic!("no stock spec {class}"))
}

/// splitmix64: decorrelates the per-instance seeds of one run.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generator seed of instance `index` of a run: a function of the
/// workload, the run seed and the index only.
pub fn instance_seed(workload: &str, seed: u64, index: usize) -> u64 {
    let tag = workload.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    mix(mix(tag ^ seed).wrapping_add(index as u64))
}

/// The netlist of `class` generated with `seed` in place of the stock
/// seed.
pub fn generate(class: &str, seed: u64) -> suite::Benchmark {
    let mut spec = stock_spec(class);
    spec.seed = seed;
    suite::generate(&spec)
}

/// An instance for the in-process workloads: bookshelf text plus the
/// fixed outline it is solved in (`None`: unconstrained).
#[derive(Debug, Clone)]
pub struct BookshelfInstance {
    /// Human-readable label with the generator seed, e.g.
    /// `n10#3 (generator seed 123)`.
    pub label: String,
    /// The three bookshelf files.
    pub files: bookshelf::BookshelfFiles,
    /// Fixed outline, when the workload uses one.
    pub outline: Option<Outline>,
}

/// A seeded instance with its pads snapped onto a 1:1 outline, as
/// the paper's flat protocol prescribes.
pub fn flat_instance(workload: &str, class: &str, seed: u64, index: usize) -> BookshelfInstance {
    let s = instance_seed(workload, seed, index);
    let (netlist, outline) = generate(class, s).with_pads_on_outline(1.0);
    BookshelfInstance {
        label: format!("{class}#{index} (generator seed {s})"),
        files: bookshelf::write(&netlist, 1.0 / ASPECT_LIMIT, ASPECT_LIMIT),
        outline: Some(outline),
    }
}

/// A seeded instance with the generator's own pad ring and no outline.
pub fn free_instance(workload: &str, class: &str, seed: u64, index: usize) -> BookshelfInstance {
    let s = instance_seed(workload, seed, index);
    let netlist = generate(class, s).netlist;
    BookshelfInstance {
        label: format!("{class}#{index} (generator seed {s})"),
        files: bookshelf::write(&netlist, 1.0 / ASPECT_LIMIT, ASPECT_LIMIT),
        outline: None,
    }
}

/// Writes `netlist` as MCNC YAL text that `gfp_netlist::yal::parse`
/// reads back with the same areas, pad locations and connectivity.
///
/// Each module becomes its own `TYPE GENERAL` cell of size `area × 1`,
/// so the parsed area is bit-identical. YAL ties a pad to exactly one
/// signal by name, so every net that touches a pad gets its own pad,
/// named after the net, at that pad's location.
pub fn to_yal(netlist: &Netlist) -> String {
    let n = netlist.num_modules();
    let mut signals: Vec<Vec<String>> = vec![Vec::new(); n];
    let mut pads = Vec::new();
    for (k, net) in netlist.nets().iter().enumerate() {
        let name = format!("N{k:05}");
        for pin in &net.pins {
            match *pin {
                PinRef::Module(i) => signals[i].push(name.clone()),
                PinRef::Pad(p) => {
                    let pad = &netlist.pads()[p];
                    pads.push(format!("  {name} B {} {};\n", pad.x, pad.y));
                }
            }
        }
    }
    let mut out = String::from("/* written by floorbench */\n");
    for (i, m) in netlist.modules().iter().enumerate() {
        out.push_str(&format!(
            "MODULE t{i};\nTYPE GENERAL;\nDIMENSIONS 0 0 0 1 {a} 1 {a} 0;\nIOLIST;\n",
            a = m.area
        ));
        for p in 0..signals[i].len() {
            out.push_str(&format!("  P{} B 0 0 METAL1;\n", p + 1));
        }
        out.push_str("ENDIOLIST;\nENDMODULE;\n");
    }
    out.push_str("MODULE chip;\nTYPE PARENT;\nIOLIST;\n");
    for pad in &pads {
        out.push_str(pad);
    }
    out.push_str("ENDIOLIST;\nNETWORK;\n");
    for (i, sigs) in signals.iter().enumerate() {
        out.push_str(&format!(
            "  {} t{i} {};\n",
            netlist.modules()[i].name,
            sigs.join(" ")
        ));
    }
    out.push_str("ENDNETWORK;\nENDMODULE;\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfp_netlist::yal;

    #[test]
    fn yal_round_trip_keeps_areas_and_wirelength() {
        let netlist = generate("n10", 7).netlist;
        let back = yal::parse(&to_yal(&netlist), &yal::YalOptions::default()).unwrap();
        assert_eq!(back.num_modules(), netlist.num_modules());
        for (a, b) in netlist.modules().iter().zip(back.modules()) {
            assert_eq!(a.area.to_bits(), b.area.to_bits());
        }
        assert_eq!(back.nets().len(), netlist.nets().len());
        let pos: Vec<(f64, f64)> = (0..10).map(|i| (i as f64 * 37.0, (i * i) as f64)).collect();
        let (h0, h1) = (
            gfp_netlist::hpwl::hpwl(&netlist, &pos),
            gfp_netlist::hpwl::hpwl(&back, &pos),
        );
        assert!((h0 - h1).abs() <= 1e-9 * h0, "{h0} vs {h1}");
    }

    #[test]
    fn instance_seeds_are_distinct_and_repeatable() {
        let a = instance_seed("flat_n10", 1, 0);
        assert_eq!(a, instance_seed("flat_n10", 1, 0));
        assert_ne!(a, instance_seed("flat_n10", 1, 1));
        assert_ne!(a, instance_seed("flat_n10", 2, 0));
        assert_ne!(a, instance_seed("hier_n300", 1, 0));
    }
}
