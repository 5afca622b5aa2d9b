//! Tier-1 integration tests for the `snoc-serve` sweep service:
//! concurrent clients with overlapping grids dedup against one cache,
//! a panicking cell leaves the server serving, and every result that
//! comes back over the wire is byte-identical to the same spec run
//! through [`SweepRunner`] directly — with caching on and off.

use snoc_core::cellcache;
use snoc_core::serve::json::Json;
use snoc_core::serve::protocol::{CellRequest, JobRequest};
use snoc_core::serve::{jobs, ServeOptions, Server, MAX_LINE_BYTES};
use snoc_core::sweep::SweepRunner;
use snoc_noc::NocEnv;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

fn sock(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("snoc-serve-{}-{tag}.sock", std::process::id()))
}

/// Hermetic server options: the test process environment must never
/// leak into a job, whatever other tests set.
fn hermetic(tag: &str) -> ServeOptions {
    let mut opts = ServeOptions::new(sock(tag));
    opts.env = NocEnv::default();
    opts
}

/// One-shot client: send a line, half-close, collect the parsed
/// response lines until the server closes the stream.
fn request(socket: &Path, line: &str) -> Vec<Json> {
    let mut stream = UnixStream::connect(socket).expect("connect");
    writeln!(stream, "{line}").expect("send");
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream)
        .lines()
        .map(|l| {
            let l = l.expect("read line");
            Json::parse(&l).unwrap_or_else(|e| panic!("bad response {l:?}: {e}"))
        })
        .collect()
}

fn str_of<'j>(v: &'j Json, key: &str) -> &'j str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no '{key}' in {v:?}"))
}

fn num_of(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no '{key}' in {v:?}"))
}

fn cell_line(label: &str, scenario: &str, app: &str) -> String {
    format!(
        "{{\"label\":\"{label}\",\"scenario\":\"{scenario}\",\"app\":\"{app}\",\
         \"warmup\":100,\"measure\":400}}"
    )
}

fn submit_line(cells: &[String], wait: bool) -> String {
    format!(
        "{{\"op\":\"submit\",\"wait\":{wait},\"cells\":[{}]}}",
        cells.join(",")
    )
}

fn cell_req(label: &str, scenario: &str, app: &str) -> CellRequest {
    CellRequest {
        label: Some(label.to_string()),
        scenario: scenario.to_string(),
        app: app.to_string(),
        warmup: Some(100),
        measure: Some(400),
        regions: None,
    }
}

#[test]
fn concurrent_clients_dedup_jobs_and_share_the_cell_cache() {
    let server = Server::start(hermetic("concurrent")).expect("start");
    let socket = server.socket().to_path_buf();

    // Three distinct cells; five clients submit overlapping pairs, and
    // two of the clients submit the *same* grid.
    let a = || cell_line("a", "SRAM-64TSB", "sap");
    let b = || cell_line("b", "MRAM-64TSB", "tpcc");
    let c = || cell_line("c", "MRAM-4TSB-WB", "sap");
    let grids = [
        vec![a(), b()],
        vec![a(), b()], // identical to client 0's — must dedup
        vec![b(), c()],
        vec![c(), a()],
        vec![a(), b()], // identical again
    ];

    let outcomes: Vec<(String, bool, Json)> = std::thread::scope(|scope| {
        let handles: Vec<_> = grids
            .iter()
            .map(|cells| {
                let socket = socket.clone();
                scope.spawn(move || {
                    let lines = request(&socket, &submit_line(cells, true));
                    let ack = &lines[0];
                    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "ack: {ack:?}");
                    let done = lines.last().expect("stream ends with done").clone();
                    assert_eq!(str_of(&done, "event"), "done");
                    assert_eq!(str_of(&done, "state"), "done");
                    assert_eq!(num_of(&done, "failed"), 0);
                    (
                        str_of(ack, "job").to_string(),
                        ack.get("deduped") == Some(&Json::Bool(true)),
                        done,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    // The three identical submissions share one job key, interned once.
    assert_eq!(outcomes[0].0, outcomes[1].0);
    assert_eq!(outcomes[0].0, outcomes[4].0);
    assert_ne!(outcomes[0].0, outcomes[2].0);
    let fresh = [&outcomes[0], &outcomes[1], &outcomes[4]]
        .iter()
        .filter(|(_, deduped, _)| !deduped)
        .count();
    assert_eq!(fresh, 1, "identical grids intern exactly one job");

    // Across the three *distinct* jobs (6 cells, 3 distinct), the
    // shared cache means exactly 3 simulations and 3 hits.
    let per_job: HashMap<&str, u64> = outcomes
        .iter()
        .map(|(key, _, done)| (key.as_str(), num_of(done, "cache_hits")))
        .collect();
    assert_eq!(per_job.len(), 3);
    assert_eq!(per_job.values().sum::<u64>(), 3, "hits: {per_job:?}");

    // Late resubmission of a finished grid: acknowledged as deduped
    // and already done, with the full event history replayed — one
    // event per cell and the terminator, never a truncated stream.
    let lines = request(&socket, &submit_line(&grids[2], true));
    assert_eq!(lines[0].get("deduped"), Some(&Json::Bool(true)));
    assert_eq!(str_of(&lines[0], "state"), "done");
    let replayed: Vec<&str> = lines[1..].iter().map(|v| str_of(v, "event")).collect();
    assert_eq!(replayed, ["cell", "cell", "done"], "replayed: {lines:?}");

    // `status` agrees.
    let status = request(
        &socket,
        &format!("{{\"op\":\"status\",\"job\":\"{}\"}}", outcomes[0].0),
    );
    assert_eq!(str_of(&status[0], "state"), "done");
    assert_eq!(num_of(&status[0], "cells"), 2);
    assert_eq!(num_of(&status[0], "done"), 2);

    server.shutdown();
    assert!(!socket.exists(), "socket file removed on shutdown");
}

#[test]
fn a_panicking_cell_fails_alone_and_the_server_keeps_serving() {
    let server = Server::start(hermetic("panic")).expect("start");
    let socket = server.socket();

    // `regions:3` cannot tile the 8x8 mesh; the System constructor
    // panics on the worker thread, inside the runner's per-cell guard.
    let bad = "{\"label\":\"bad\",\"scenario\":\"SRAM-64TSB\",\"app\":\"sap\",\
               \"warmup\":100,\"measure\":400,\"regions\":3}"
        .to_string();
    let cells = [
        cell_line("good-1", "SRAM-64TSB", "sap"),
        bad,
        cell_line("good-2", "MRAM-4TSB-WB", "tpcc"),
    ];
    let lines = request(socket, &submit_line(&cells, true));
    let done = lines.last().expect("done event");
    assert_eq!(
        str_of(done, "state"),
        "done",
        "job completes despite the panic"
    );
    assert_eq!(num_of(done, "failed"), 1);
    let job = str_of(&lines[0], "job").to_string();

    // Results: the panicked cell carries an error, its neighbours
    // decode cleanly.
    let results = request(socket, &format!("{{\"op\":\"results\",\"job\":\"{job}\"}}"));
    let cells_back: Vec<&Json> = results
        .iter()
        .filter(|v| v.get("event").and_then(Json::as_str) == Some("result"))
        .collect();
    assert_eq!(cells_back.len(), 3);
    for v in &cells_back {
        let ok = v.get("ok").and_then(Json::as_bool).unwrap();
        match str_of(v, "label") {
            "bad" => {
                assert!(!ok);
                assert!(!str_of(v, "error").is_empty());
            }
            _ => {
                assert!(ok);
                let key = snoc_common::fingerprint::Fingerprint::from_hex(str_of(v, "metrics_key"))
                    .expect("hex key");
                cellcache::decode_metrics(str_of(v, "metrics"), key).expect("decodes");
            }
        }
    }

    // The server is still alive and still runs jobs.
    let pong = request(socket, "{\"op\":\"ping\"}");
    assert_eq!(pong[0].get("pong"), Some(&Json::Bool(true)));
    let again = request(
        socket,
        &submit_line(&[cell_line("after", "SRAM-64TSB", "mcf")], true),
    );
    let done = again.last().unwrap();
    assert_eq!(str_of(done, "state"), "done");
    assert_eq!(num_of(done, "failed"), 0);
}

#[test]
fn served_results_are_byte_identical_to_a_direct_sweep() {
    for cache in [true, false] {
        let tag = if cache {
            "bytes-cached"
        } else {
            "bytes-uncached"
        };
        let mut opts = hermetic(tag);
        opts.cache = cache;
        let server = Server::start(opts).expect("start");

        let wire_cells = [
            cell_line("x", "MRAM-4TSB-WB", "sap"),
            cell_line("y", "SRAM-64TSB", "vips"),
        ];
        let ack = &request(server.socket(), &submit_line(&wire_cells, false))[0];
        let job = str_of(ack, "job").to_string();
        let results = request(
            server.socket(),
            &format!("{{\"op\":\"results\",\"job\":\"{job}\"}}"),
        );

        // The same grid, straight through the sweep runner (hermetic
        // env, no cache — the reference path).
        let req = JobRequest::Cells(vec![
            cell_req("x", "MRAM-4TSB-WB", "sap"),
            cell_req("y", "SRAM-64TSB", "vips"),
        ]);
        let (_, grid) = jobs::build_grid(&req).expect("grid");
        let grid: Vec<_> = grid
            .into_iter()
            .map(|s| s.resolve_env(&NocEnv::default()))
            .collect();
        assert_eq!(jobs::job_key(&grid).to_hex(), job, "wire job key matches");
        let direct = SweepRunner::new()
            .noc_env(NocEnv::default())
            .cache(false)
            .run_grid("serve-reference", grid);

        let mut compared = 0;
        for v in &results {
            if v.get("event").and_then(Json::as_str) != Some("result") {
                continue;
            }
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
            let index = num_of(v, "index") as usize;
            let key = snoc_common::fingerprint::Fingerprint::from_hex(str_of(v, "metrics_key"))
                .expect("hex key");
            let reference = cellcache::encode_metrics(
                direct[index].outcome.as_ref().expect("direct run succeeds"),
                key,
            );
            assert_eq!(
                str_of(v, "metrics"),
                reference,
                "cell {index} (cache={cache}) must be byte-identical"
            );
            compared += 1;
        }
        assert_eq!(compared, 2);
        server.shutdown();
    }
}

#[test]
fn shutdown_aborts_queued_jobs_and_unblocks_waiting_clients() {
    let server = Server::start(hermetic("abort")).expect("start");
    let socket = server.socket().to_path_buf();

    // Keep the executor busy, then queue a second job behind it and
    // shut down: the waiter must get a terminal event, not a hang.
    let busy: Vec<String> = (0..4)
        .map(|i| cell_line(&format!("busy-{i}"), "MRAM-4TSB-WB", "sap"))
        .collect();
    let queued = [cell_line("stuck", "SRAM-64TSB", "tpcc")];
    // The queued job's key, computed the same way the server does, so
    // the main thread can poll for the submission having landed before
    // it pulls the rug.
    let (_, grid) = jobs::build_grid(&JobRequest::Cells(vec![cell_req(
        "stuck",
        "SRAM-64TSB",
        "tpcc",
    )]))
    .expect("grid");
    let grid: Vec<_> = grid
        .into_iter()
        .map(|s| s.resolve_env(&NocEnv::default()))
        .collect();
    let stuck_key = jobs::job_key(&grid).to_hex();

    let waiter = std::thread::spawn({
        let socket = socket.clone();
        move || {
            let first = request(&socket, &submit_line(&busy, false));
            assert_eq!(first[0].get("ok"), Some(&Json::Bool(true)));
            request(&socket, &submit_line(&queued, true))
        }
    });
    // Wait until the server has accepted the queued job, then stop the
    // server under it.
    loop {
        let st = request(
            &socket,
            &format!("{{\"op\":\"status\",\"job\":\"{stuck_key}\"}}"),
        );
        if st[0].get("ok") == Some(&Json::Bool(true)) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let bye = request(&socket, "{\"op\":\"shutdown\"}");
    assert_eq!(bye[0].get("shutting_down"), Some(&Json::Bool(true)));
    server.wait();

    let lines = waiter.join().expect("waiter");
    let done = lines.last().expect("terminal event");
    assert_eq!(str_of(done, "event"), "done");
    // Depending on timing the queued job either ran to completion
    // (executor got to it first) or was aborted — both are terminal;
    // a hang or a dropped connection is the bug.
    assert!(matches!(str_of(done, "state"), "done" | "aborted"));
}

#[test]
fn hostile_lines_get_errors_and_the_connection_keeps_serving() {
    let server = Server::start(hermetic("hostile")).expect("start");
    let mut stream = UnixStream::connect(server.socket()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ask = |line: &str| {
        stream.write_all(line.as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        Json::parse(&reply).unwrap_or_else(|e| panic!("bad response {reply:?}: {e}"))
    };

    // Deep enough to overflow a recursive parser's stack.
    let deep = ask(&"[".repeat(200_000));
    assert_eq!(deep.get("ok"), Some(&Json::Bool(false)), "{deep:?}");
    assert!(str_of(&deep, "error").contains("nesting"), "{deep:?}");

    // One byte over the line cap, and well-formed otherwise.
    let pad = "x".repeat(MAX_LINE_BYTES);
    let long = ask(&format!("{{\"op\":\"ping\",\"pad\":\"{pad}\"}}"));
    assert_eq!(long.get("ok"), Some(&Json::Bool(false)), "{long:?}");
    assert!(str_of(&long, "error").contains("longer than"), "{long:?}");

    let pong = ask("{\"op\":\"ping\"}");
    assert_eq!(pong.get("pong"), Some(&Json::Bool(true)), "{pong:?}");
    let bye = request(server.socket(), "{\"op\":\"shutdown\"}");
    assert_eq!(bye[0].get("shutting_down"), Some(&Json::Bool(true)));
    server.wait();
}
