//! `scale_sweep` — run the PR-10 100×-scale simulator sweep.
//!
//! ```text
//! scale_sweep [--smoke] [--out PATH] [--check]
//! ```
//!
//! Prints the summary table, and writes the JSON report only when `--out
//! PATH` is given (`--out BENCH_pr10_scale.json` regenerates the committed
//! artifact). `--smoke` runs the 1,000-node CI configuration instead of the
//! full 10,000-node sweep. `--check` additionally enforces the PR-10
//! acceptance gates — tiered storage traffic below flat, active peer fetch,
//! the boots/sec floor, and the wall-clock budget — and exits non-zero if
//! any fail.

use vmi_bench::scale_sweep::{run_scale_sweep_with, SweepConfig};

fn main() {
    let mut out = None;
    let mut check = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(v) => out = Some(v),
                None => {
                    eprintln!("--out needs a value");
                    std::process::exit(2);
                }
            },
            "--check" => check = true,
            "--smoke" => smoke = true,
            "-h" | "--help" => {
                eprintln!("usage: scale_sweep [--smoke] [--out PATH] [--check]");
                return;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let (cfg, mode) = if smoke {
        (SweepConfig::smoke(), "smoke")
    } else {
        (SweepConfig::full(), "full")
    };
    let rep = run_scale_sweep_with(&cfg, mode);
    print!("{}", rep.render());
    if let Some(out) = out {
        if let Err(e) = std::fs::write(&out, rep.to_json()) {
            eprintln!("scale_sweep: write {out}: {e}");
            std::process::exit(1);
        }
        println!("wrote {out}");
    }
    if check {
        let fails = rep.check(&cfg);
        if !fails.is_empty() {
            for f in &fails {
                eprintln!("scale_sweep: FAIL — {f}");
            }
            std::process::exit(1);
        }
        println!(
            "scale_sweep: OK — {:.0} boots/s ≥ {:.0}, {:.1}s wall",
            rep.agg_boots_per_sec, rep.min_boots_per_sec, rep.wall_s
        );
    }
}
