//! The canonical tdb-server benchmark. One invocation runs one workload in
//! one mode:
//!
//! ```text
//! tdb-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! `--trace 0` is the end-to-end run against the real server binary;
//! `--trace 1` is the traced run that yields the per-layer metrics. Every
//! metric is printed by name with its unit, and the last line of standard
//! output is the JSON result object `BENCHMARK.json`'s contract asks for.
//! `benchmark/run.sh` builds everything and is the command to use.

mod drive;
mod e2e;
mod gen;
mod layers;
mod local;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What one run (either mode) hands back for printing.
#[derive(Debug)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks and failures; empty when the run is correct.
    pub problems: Vec<String>,
    /// Human-readable context printed with the metrics.
    pub notes: Vec<String>,
}

struct Args {
    workload: &'static gen::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = gen::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: tdb-benchmark --workload {} [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut out = PathBuf::from("benchmark/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    gen::workload(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`\n{}", usage()))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            "--out" => out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed,
        seconds,
        trace,
        out,
    })
}

// ---- host facts -------------------------------------------------------------

/// Filesystem type of the mount holding `dir`, from `/proc/self/mounts`.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` in an exported tree).
fn commit_hash() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| r.to_string(), |h| h.trim().to_string()),
        None if head.is_empty() => "unknown".to_string(),
        None => head.to_string(),
    }
}

// ---- output -----------------------------------------------------------------

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let server_bin = exe.with_file_name("tdb-server");
    if !server_bin.exists() {
        return Err(format!(
            "{} is missing: build it with `cargo build --release -p tdb-server` \
             (benchmark/run.sh does)",
            server_bin.display()
        ));
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let scratch = drive::Scratch::create(&args.out)?;
    let w = args.workload;
    println!(
        "workload {} seed {} seconds {} trace {} | {} tenants x depth {} | nproc {} | data dir on {} | commit {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        gen::TENANTS,
        w.depth,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        fs_type(scratch.path()),
        commit_hash(),
    );
    println!("why: {}", w.why);

    let Report {
        metrics,
        attempted,
        failed,
        mut problems,
        notes,
    } = if args.trace {
        layers::run(w, args.seed, args.seconds, &server_bin, &scratch, &args.out)?
    } else {
        e2e::run(w, args.seed, args.seconds, &server_bin, &scratch)?
    };
    for m in &metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
        if !m.value.is_finite() {
            problems.push(format!("{} is not a finite number", m.name));
        }
    }
    let failed_share = failed as f64 / attempted.max(1) as f64;
    println!("{:<34} {:>16.6} share", "failed_share", failed_share);
    for n in &notes {
        println!("note: {n}");
    }
    for p in &problems {
        println!("FAILED: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tdb-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the workloads
    /// and metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_code() {
        let spec = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let start = spec.find(&format!("\"{key}\": [")).expect(key);
            &spec[start..start + spec[start..].find("\n  ]").expect(key)]
        };
        let entries = |key: &str| section(key).matches("{\"name\": ").count();

        assert_eq!(entries("workloads"), gen::WORKLOADS.len());
        for w in &gen::WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why is too long", w.name);
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(section("workloads").contains(&entry), "{}", w.name);
        }
        assert_eq!(entries("end_to_end"), e2e::END_TO_END.len());
        for (name, unit) in e2e::END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(section("end_to_end").contains(&entry), "{name}");
        }
        assert_eq!(entries("per_layer"), layers::PER_LAYER.len());
        for (name, unit) in layers::PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(section("per_layer").contains(&entry), "{name}");
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let line = result_line(true, 10, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
