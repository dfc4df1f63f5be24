//! `icesd` — the coordinate service daemon.
//!
//! Binds a UDP socket, prints the bound address (parseable by scripts
//! that picked port 0), and serves the `ices_core::wire` protocol until
//! a valid `Shutdown` datagram arrives.
//!
//! ```text
//! icesd --token T [--addr HOST:PORT] [--dims N] [--journal PATH]
//! ```
//!
//! `--token` is the nonzero shared secret a `Shutdown` datagram must
//! carry; without it the daemon refuses to start (exit 2).

use ices_obs::Journal;
use ices_svc::{Daemon, ServiceConfig};
use std::process::ExitCode;

struct Args {
    addr: String,
    dims: usize,
    token: u64,
    journal: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        dims: 2,
        token: 0,
        journal: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--dims" => {
                args.dims = value("--dims")?
                    .parse()
                    .map_err(|e| format!("--dims: {e}"))?;
            }
            "--token" => {
                args.token = value("--token")?
                    .parse()
                    .map_err(|e| format!("--token: {e}"))?;
            }
            "--journal" => args.journal = Some(value("--journal")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.dims == 0 || args.dims > 16 {
        return Err(format!("--dims must be 1..=16, got {}", args.dims));
    }
    if args.token == 0 {
        return Err("--token must be a nonzero shutdown secret".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("icesd: {e}");
            return ExitCode::from(2);
        }
    };
    let config = ServiceConfig {
        dims: args.dims,
        shutdown_token: args.token,
        ..ServiceConfig::default()
    };
    let mut daemon = match Daemon::bind(&args.addr, config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("icesd: bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.journal {
        match Journal::to_file(path) {
            Ok(j) => daemon = daemon.with_journal(j),
            Err(e) => {
                eprintln!("icesd: journal {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match daemon.local_addr() {
        Ok(addr) => println!("icesd listening on {addr}"),
        Err(e) => {
            eprintln!("icesd: local_addr: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = daemon.run() {
        eprintln!("icesd: serve: {e}");
        return ExitCode::FAILURE;
    }
    let counters = daemon.core().counters();
    for (name, v) in counters {
        println!("{name} {v}");
    }
    ExitCode::SUCCESS
}
