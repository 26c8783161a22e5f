//! The backend worker: hosts one engine connection in its own process and
//! speaks the `squality_backend::protocol` frame format on stdin/stdout.
//! The connection carries the provisioned files and extensions, and the
//! engine's coverage, across `RESET`s exactly as it does in-process.
//!
//! Invocation: `squality-backend-worker <dialect> <client> <fault-bits>
//! <strategy> <plan-cache>`, the arguments [`WorkerArgs`] encodes. With
//! `cached`, the worker owns a statement-plan cache shared by every file
//! it runs. Any other argument list exits with status 2 before the
//! handshake, which the harness reports as a connect failure.
//!
//! Fault-injection hooks for crash-containment tests (the `EXEC` counter
//! resets on every `RESET` frame — the parent resets once per suite file,
//! so the schedule is *per file* and therefore independent of how files
//! are sharded across workers; a restarted worker also starts afresh):
//!
//! * `SQUALITY_CRASH_AFTER=N` — abort the process (exit 101) when the
//!   N-th `EXEC` arrives, before answering.
//! * `SQUALITY_HANG_AFTER=N` — stop answering forever on the N-th
//!   `EXEC` (the parent's deadline must fire).

use squality_backend::protocol::{
    encode_coverage, encode_error, encode_result, parse_ext_request, parse_file_request,
    read_frame, write_frame, WorkerArgs, PROTO_VERSION,
};
use squality_engine::PlanCache;
use squality_runner::{Connector, EngineConnector};
use std::io::Write;

fn hook(var: &str) -> Option<u64> {
    std::env::var(var).ok()?.parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(config) = WorkerArgs::parse(&args) else {
        eprintln!(
            "usage: squality-backend-worker <dialect> <client> <fault-bits> <strategy> <plan-cache>"
        );
        std::process::exit(2);
    };

    let crash_after = hook("SQUALITY_CRASH_AFTER");
    let hang_after = hook("SQUALITY_HANG_AFTER");
    let mut execs: u64 = 0;

    let stdin = std::io::stdin();
    let mut reader = stdin.lock();
    let stdout = std::io::stdout();
    let mut writer = stdout.lock();

    let mut conn = EngineConnector::with_faults(config.dialect, config.client, config.faults);
    conn.set_exec_strategy(config.exec_strategy);
    if config.plan_cache {
        conn.set_plan_cache(PlanCache::shared());
    }

    loop {
        let request = match read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            // Clean EOF: the parent closed stdin (dropped the connector).
            Ok(None) => return,
            Err(_) => std::process::exit(3),
        };
        let response: Vec<u8> = if request == b"HELLO" {
            format!("HELLO {PROTO_VERSION} {}", std::process::id()).into_bytes()
        } else if let Some(sql) = request.strip_prefix(b"EXEC ") {
            execs += 1;
            if crash_after == Some(execs) {
                std::process::exit(101);
            }
            if hang_after == Some(execs) {
                loop {
                    std::thread::sleep(std::time::Duration::from_secs(3600));
                }
            }
            match std::str::from_utf8(sql) {
                // Engine errors — including simulated Fatal/Hang faults —
                // are ordinary ERR responses: the parent applies the same
                // expectation matching as an in-process run. The raw engine
                // answers: the client simulation stays parent-side.
                Ok(sql) => match conn.engine_mut().execute(sql) {
                    Ok(result) => encode_result(&result),
                    Err(error) => encode_error(&error),
                },
                Err(_) => std::process::exit(3),
            }
        } else if request == b"RESET" {
            // Per-file fault schedules: the parent sends RESET before each
            // suite file, so restarting the EXEC count here makes
            // crash/hang injection deterministic at any worker count.
            execs = 0;
            conn.reset();
            b"OK".to_vec()
        } else if let Some(rest) = request.strip_prefix(b"FILE ") {
            match parse_file_request(rest) {
                Ok((path, lines)) => {
                    conn.provide_file(&path, lines);
                    b"OK".to_vec()
                }
                Err(_) => std::process::exit(3),
            }
        } else if let Some(rest) = request.strip_prefix(b"EXT ") {
            match parse_ext_request(rest) {
                Ok(name) => {
                    conn.provide_extension(&name);
                    b"OK".to_vec()
                }
                Err(_) => std::process::exit(3),
            }
        } else if request == b"COV" {
            encode_coverage(conn.engine().coverage())
        } else {
            std::process::exit(3)
        };
        if write_frame(&mut writer, &response).is_err() {
            // Parent is gone; nothing left to serve.
            return;
        }
        let _ = writer.flush();
    }
}
