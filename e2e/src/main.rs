//! `e2e`: the repo's one benchmark. Real bytes through
//! `vmi-cluster::deploy` → `vmi-qcow` → `vmi-nbd` → `FileDev`, five named
//! workloads, per-layer attribution. See README.md beside this package.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1   one run, one JSON line
//! e2e --all [--seed N] [--seconds S] [--out FILE]        every workload, both ways
//! e2e --smoke                                            every path, tiny, in-process
//! ```

#![forbid(unsafe_code)]

mod boot;
mod fixture;
mod probes;
mod run;
mod rw;
mod serve;
mod spandev;
mod stats;
#[cfg(test)]
mod tests;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

use run::{Cfg, Report};
use workload::Kind;

/// A run that takes longer is killed and reported.
const WATCHDOG: Duration = Duration::from_secs(150);

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    traced: bool,
    all: bool,
    smoke: bool,
    /// Set by this program when it starts itself pinned to one CPU.
    child: bool,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        traced: false,
        all: false,
        smoke: false,
        child: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.traced = value()? == "1",
            "--out" => args.out = Some(value()?),
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("e2e: {msg}");
            return ExitCode::from(2);
        }
    };
    let ok = if args.smoke {
        smoke(args.seed)
    } else if args.all {
        all(&args)
    } else if let Some(kind) = args.workload {
        if args.child {
            one(&Cfg::full(kind, args.seed, args.seconds, args.traced))
        } else {
            match spawn_pinned(kind, &args, args.traced) {
                Ok(line) => {
                    println!("{line}");
                    line.contains("\"correct\":true")
                }
                Err(msg) => {
                    eprintln!("e2e: {msg}");
                    false
                }
            }
        }
    } else {
        eprintln!("e2e: give --workload NAME, --all or --smoke");
        return ExitCode::from(2);
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in this process and print its result line.
fn one(cfg: &Cfg) -> bool {
    match run::run(cfg) {
        Ok(report) => {
            for problem in &report.problems {
                eprintln!("e2e: {}: {problem}", cfg.kind.name());
            }
            eprintln!(
                "e2e: {} seed={} traced={} units={} latency_samples={} store=unsynced-file",
                cfg.kind.name(),
                cfg.seed,
                cfg.traced as u8,
                report.units,
                report.samples
            );
            println!("{}", result_line(&report));
            report.correct
        }
        Err(e) => {
            eprintln!("e2e: {}: {e}", cfg.kind.name());
            false
        }
    }
}

fn result_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            let entry = Value::Object(vec![
                ("value".into(), Value::F64(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(report.correct)),
        ("attempted".into(), Value::U64(report.attempted)),
        ("failed".into(), Value::U64(report.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a value tree always serializes")
}

/// The last CPU this process may run on: one CPU for the whole run keeps the
/// client and server threads of a loopback round trip from landing on the
/// same or on different cores by chance, which makes its latency bimodal.
/// `None` where `taskset` is missing or may not pin: the run then goes
/// unpinned rather than not at all.
fn cpu_to_pin_to() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let last = list.trim().rsplit([',', '-']).next()?;
    let cpu = last.parse::<u32>().ok()?.to_string();
    let works = Command::new("taskset")
        .args(["-c", &cpu, "true"])
        .status()
        .is_ok_and(|s| s.success());
    works.then_some(cpu)
}

/// Start this program again as a child, through `taskset` when there is
/// one, and return the child's result line.
fn spawn_pinned(kind: Kind, args: &Args, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let run_args = [
        "--child".to_string(),
        "--workload".into(),
        kind.name().into(),
        "--seed".into(),
        args.seed.to_string(),
        "--seconds".into(),
        args.seconds.to_string(),
        "--trace".into(),
        (traced as u8).to_string(),
    ];
    let cpu = cpu_to_pin_to();
    let mut cmd = match &cpu {
        Some(cpu) => {
            let mut cmd = Command::new("taskset");
            cmd.args(["-c", cpu]).arg(&exe);
            cmd
        }
        None => Command::new(&exe),
    };
    let mut child = cmd
        .args(&run_args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| e.to_string())?;
    eprintln!("e2e: {} pinned={}", kind.name(), cpu.is_some() as u8);
    let started = Instant::now();
    loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(_) => break,
            None if started.elapsed() > WATCHDOG => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{} ran past the watchdog, killed", kind.name()));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let out = child.wait_with_output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .last()
        .map(str::to_string)
        .ok_or(format!("{} printed no result", kind.name()))
}

/// Every workload, untraced then traced, each in its own pinned child; one
/// document on stdout (and in `--out`), a table for people on stderr.
fn all(args: &Args) -> bool {
    let mut ok = true;
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        let mut sections = Vec::new();
        for (section, traced) in [("end_to_end", false), ("per_layer", true)] {
            let parsed = spawn_pinned(kind, args, traced)
                .and_then(|line| serde_json::from_str::<Value>(&line).map_err(|e| e.to_string()));
            match parsed {
                Ok(result) => {
                    ok &= result.get("correct").and_then(Value::as_bool) == Some(true);
                    print_table(kind, section, &result);
                    sections.push((section.to_string(), result));
                }
                Err(msg) => {
                    eprintln!("e2e: {}: {msg}", kind.name());
                    ok = false;
                }
            }
        }
        workloads.push((kind.name().to_string(), Value::Object(sections)));
    }
    let doc = Value::Object(vec![
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("store".into(), Value::Str("unsynced-file".into())),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("a value tree always serializes");
    println!("{text}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("e2e: {path}: {e}");
            ok = false;
        }
    }
    ok
}

fn print_table(kind: Kind, section: &str, result: &Value) {
    eprintln!("\n{} · {section}", kind.name());
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        return;
    };
    for (name, entry) in metrics {
        let value = entry.get("value").and_then(Value::as_f64).unwrap_or(0.0);
        let unit = entry.get("unit").and_then(Value::as_str).unwrap_or("");
        eprintln!("  {name:<34} {value:>16.4} {unit}");
    }
}

/// Every workload's paths at `tiny_test` size, in this process.
fn smoke(seed: u64) -> bool {
    Kind::ALL.into_iter().all(|kind| {
        [false, true]
            .into_iter()
            .all(|traced| one(&Cfg::smoke(kind, seed, traced)))
    })
}
