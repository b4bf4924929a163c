//! The tdb-server daemon.
//!
//! ```text
//! tdb-server [--addr HOST:PORT] [--workers N] [--data-dir DIR]
//!            [--lint allow|warn|deny] [--max-delay TICKS] [--quiet]
//! ```
//!
//! Prints `listening on <addr>` (the resolved address — port 0 works) once
//! the listener is up and every durable tenant under `--data-dir` has been
//! recovered, then serves until a client sends `Shutdown` (durable tenants
//! are checkpointed on the way out).

use std::process::ExitCode;

use tdb_analysis::LintLevel;
use tdb_server::{Server, ServerConfig};

const USAGE: &str = "usage: tdb-server [--addr HOST:PORT] [--workers N] [--data-dir DIR] \
                     [--lint allow|warn|deny] [--max-delay TICKS] [--quiet]";

/// Exits 2 with `problem` above the usage line.
fn fail(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{arg} needs a {what}")))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("host:port"),
            "--workers" => match value("count").parse() {
                Ok(n) if n > 0 => cfg.workers = n,
                _ => fail("--workers needs a positive count"),
            },
            "--data-dir" => cfg.data_dir = Some(value("directory").into()),
            "--lint" => {
                cfg.lint = match value("level").as_str() {
                    "allow" => LintLevel::Allow,
                    "warn" => LintLevel::Warn,
                    "deny" => LintLevel::Deny,
                    _ => fail("--lint needs one of allow|warn|deny"),
                }
            }
            // Default disorder bound Δ for valid-time tenants created
            // without an explicit one (watermark W = now − Δ).
            "--max-delay" => match value("ticks").parse() {
                Ok(d) if d >= 0 => cfg.max_delay = d,
                _ => fail("--max-delay needs a non-negative tick count"),
            },
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => fail(&format!("unknown option: {arg}")),
        }
    }

    tdb_obs::set_enabled(true);
    let handle = match Server::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("tdb-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The smoke script and the crash-recovery test parse this line.
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if !quiet {
        eprintln!("tdb-server: ready (send Shutdown to stop)");
    }
    handle.wait();
    handle.stop();
    ExitCode::SUCCESS
}
