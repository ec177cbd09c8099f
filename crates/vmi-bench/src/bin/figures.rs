//! `figures` — regenerate the paper's tables and figures.
//!
//! ```text
//! figures --all                 # everything, paper scale
//! figures fig2 fig12 table1    # selected artifacts
//! figures --smoke --all        # reduced scale (seconds, for CI)
//! figures --out results/       # output directory
//! ```
//!
//! Paper-scale runs write to `results/` unless `--out` says otherwise;
//! `--smoke` runs write files only when `--out` is given, so they never
//! overwrite the committed paper-scale artifacts.

use std::path::PathBuf;
use std::time::Instant;

use vmi_bench::figures as f;
use vmi_bench::Scale;

const ALL: &[&str] = &[
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig14",
    "sec6",
    "ablations",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut out_dir = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut iter = args.into_iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--smoke" => scale = Scale::Smoke,
            "--all" => wanted.extend(ALL.iter().map(|s| s.to_string())),
            "--out" => {
                out_dir = Some(PathBuf::from(iter.next().unwrap_or_else(|| {
                    eprintln!("--out needs a directory");
                    std::process::exit(2);
                })))
            }
            "--help" | "-h" => {
                eprintln!("usage: figures [--smoke] [--out DIR] (--all | ARTIFACT...)");
                eprintln!("artifacts: {}", ALL.join(" "));
                return;
            }
            other if ALL.contains(&other) => wanted.push(other.to_string()),
            other => {
                eprintln!("unknown artifact {other:?}; known: {}", ALL.join(" "));
                std::process::exit(2);
            }
        }
    }
    if wanted.is_empty() {
        eprintln!(
            "nothing to do; pass --all or artifact names ({})",
            ALL.join(" ")
        );
        std::process::exit(2);
    }
    // Run each artifact once, in the order first named.
    let mut seen = std::collections::HashSet::new();
    wanted.retain(|name| seen.insert(name.clone()));
    if scale == Scale::Paper {
        out_dir.get_or_insert_with(|| PathBuf::from("results"));
    }

    for name in &wanted {
        #[expect(clippy::disallowed_methods, reason = "the harness times real runs")]
        let t0 = Instant::now();
        let result = run_one(name, scale, out_dir.as_deref());
        match result {
            Ok(rendered) => {
                println!("{rendered}");
                println!("[{name}: {:.1}s]\n", t0.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("{name} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(dir) = &out_dir {
        println!("results written to {}", dir.display());
    }
}

fn run_one(
    name: &str,
    scale: Scale,
    out: Option<&std::path::Path>,
) -> Result<String, Box<dyn std::error::Error>> {
    let save_table = |t: &vmi_bench::TableData| match out {
        Some(dir) => t.save(dir),
        None => Ok(()),
    };
    let mut rendered = String::new();
    let mut fig = |fg: vmi_bench::Figure| -> Result<(), Box<dyn std::error::Error>> {
        if let Some(dir) = out {
            fg.save(dir)?;
        }
        rendered.push_str(&fg.render());
        Ok(())
    };
    match name {
        "table1" => {
            let t = f::table1(scale);
            save_table(&t)?;
            return Ok(t.render());
        }
        "table2" => {
            let t = f::table2(scale)?;
            save_table(&t)?;
            return Ok(t.render());
        }
        "sec6" => {
            let t = f::sec6(scale)?;
            save_table(&t)?;
            return Ok(t.render());
        }
        "ablations" => {
            let mut all = String::new();
            for t in vmi_bench::ablations::all(scale)? {
                save_table(&t)?;
                all.push_str(&t.render());
                all.push('\n');
            }
            return Ok(all);
        }
        "fig2" => fig(f::fig2(scale)?)?,
        "fig3" => fig(f::fig3(scale)?)?,
        "fig8" => fig(f::fig8(scale)?)?,
        "fig9" => fig(f::fig9(scale)?)?,
        "fig10" => {
            let (a, b) = f::fig10(scale)?;
            fig(a)?;
            fig(b)?;
        }
        "fig11" => fig(f::fig11(scale)?)?,
        "fig12" => {
            let (a, b) = f::fig12(scale)?;
            fig(a)?;
            fig(b)?;
        }
        "fig14" => {
            let (a, b) = f::fig14(scale)?;
            fig(a)?;
            fig(b)?;
        }
        _ => unreachable!("validated in main"),
    }
    Ok(rendered)
}
