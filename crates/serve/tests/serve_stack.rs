//! End-to-end battery for the daemon: protocol conformance over real
//! TCP, racing-client dedup with exactly-once lowering, cross-request
//! schedule-cache reuse, worker-budget ceilings under threaded load,
//! overload and shutdown behavior, and bit-identical equivalence with a
//! direct in-process `Compiled::run_on` baseline.
//!
//! Every test spawns its own in-process server on a `:0` port, so the
//! battery runs under the normal test harness with no fixed-port
//! collisions. Sources are parameterized per test (distinct N) so the
//! process-wide program/schedule caches shared between tests cannot
//! cross-talk assertions.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};

use f90d_core::{compile, Backend};
use f90d_machine::{budget, Machine, MachineSpec};
use f90d_serve::{Client, RunRequest, ServeConfig, Server};
use serde::json::Json;

/// Jacobi relaxation, parameterized so each test owns a unique job key.
fn jacobi(n: i64, iters: i64) -> String {
    format!(
        "
PROGRAM JACOBI
INTEGER, PARAMETER :: N = {n}
REAL A(N, N), B(N, N)
INTEGER IT
C$ TEMPLATE T(N, N)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
C$ DISTRIBUTE T(BLOCK, BLOCK)
FORALL (I=1:N, J=1:N) B(I,J) = REAL(I+J)
FORALL (I=1:N, J=1:N) A(I,J) = 0.0
DO IT = 1, {iters}
  FORALL (I=2:N-1, J=2:N-1)&
&   A(I,J) = 0.25*(B(I-1,J)+B(I+1,J)+B(I,J-1)+B(I,J+1))
  FORALL (I=2:N-1, J=2:N-1) B(I,J) = A(I,J)
END DO
END
"
    )
}

/// Irregular kernel (gather + scatter): the workload whose inspector
/// schedules land in the cross-run schedule cache.
fn irregular(n: i64) -> String {
    format!(
        "
PROGRAM IRREG
INTEGER, PARAMETER :: N = {n}
REAL A(N), B(N), C(N)
INTEGER U(N), V(N)
INTEGER IT
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N) C(I) = REAL(N - I)
FORALL (I=1:N) U(I) = MOD(I*7, N) + 1
FORALL (I=1:N) V(I) = MOD(I*11, N) + 1
DO IT = 1, 4
  FORALL (I=1:N) A(U(I)) = B(V(I)) + C(I)
END DO
END
"
    )
}

fn run_req(source: String, grid: Vec<i64>) -> RunRequest {
    RunRequest {
        source,
        grid,
        machine: "ipsc860".to_string(),
        backend: Backend::Vm,
        sched_cache: true,
        threaded: false,
        overlap: false,
    }
}

fn get<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    let mut cur = doc;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing {key} in {}", doc.render()));
    }
    cur
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    get(doc, path)
        .as_f64()
        .unwrap_or_else(|| panic!("{path:?} not a number in {}", doc.render()))
}

fn boolean(doc: &Json, path: &[&str]) -> bool {
    match get(doc, path) {
        Json::Bool(b) => *b,
        other => panic!("{path:?} not a bool: {other:?}"),
    }
}

fn assert_ok(doc: &Json) {
    assert!(
        boolean(doc, &["ok"]),
        "expected success, got {}",
        doc.render()
    );
}

#[test]
fn protocol_end_to_end_over_tcp() {
    let handle = Server::spawn(ServeConfig {
        max_request_bytes: 64 * 1024,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(handle.addr).unwrap();

    let pong = c.ping().unwrap();
    assert_ok(&pong);
    assert!(boolean(&pong, &["pong"]));
    assert_eq!(
        get(&pong, &["schema"]),
        &Json::Str("f90d-serve/v1".to_string())
    );

    // A real run: deterministic virtual metrics + full telemetry block.
    let resp = c.run(&run_req(jacobi(12, 2), vec![2, 2])).unwrap();
    assert_ok(&resp);
    assert!(num(&resp, &["result", "elapsed_virt_s"]) > 0.0);
    assert!(num(&resp, &["result", "messages"]) > 0.0);
    for key in ["queue_wait_ms", "lease_wait_ms", "exec_ms"] {
        assert!(num(&resp, &["telemetry", key]) >= 0.0, "{key}");
    }
    assert!(!boolean(&resp, &["telemetry", "joined"]));

    // Malformed JSON → structured 400, connection stays usable.
    let bad = c.request_raw("this is not json").unwrap();
    assert!(!boolean(&bad, &["ok"]));
    assert_eq!(num(&bad, &["code"]), 400.0);

    // Unknown op and compile errors are structured too.
    let unk = c.request_raw(r#"{"op":"frobnicate"}"#).unwrap();
    assert_eq!(num(&unk, &["code"]), 400.0);
    // Syntax errors, non-LOGICAL conditions and non-positive template
    // extents are all rejected before execution.
    for src in [
        "PROGRAM BAD\nTHIS IS NOT FORTRAN(\nEND\n",
        "PROGRAM BAD\nREAL A(4)\nIF (1) THEN\nA(1) = 0.0\nEND IF\nEND\n",
        "PROGRAM BAD\nREAL A(4)\nWHERE (A) A = 1.0\nEND\n",
        "PROGRAM BAD\nREAL A(4)\nC$ TEMPLATE T(4-5)\nC$ ALIGN A(I) WITH T(I)\n\
         C$ DISTRIBUTE T(BLOCK)\nEND\n",
    ] {
        let cerr = c.run(&run_req(src.into(), vec![2])).unwrap();
        assert!(!boolean(&cerr, &["ok"]), "{src}");
        assert_eq!(num(&cerr, &["code"]), 422.0, "{src}: {}", cerr.render());
    }

    // Raw invalid UTF-8 on the wire → 400, not a dead server.
    let mut raw = TcpStream::connect(handle.addr).unwrap();
    raw.write_all(b"{\"op\":\xff\xfe}\n").unwrap();
    let mut raw_client = Client::connect(handle.addr).unwrap();
    let stats = raw_client.stats().unwrap();
    assert_ok(&stats);

    // Stats aggregates every layer.
    for path in [
        vec!["stats", "server", "requests"],
        vec!["stats", "server", "runs"],
        vec!["stats", "admission", "max_running"],
        vec!["stats", "machine_pool", "created"],
        vec!["stats", "program_cache", "hits"],
        vec!["stats", "sched_cache", "misses"],
        vec!["stats", "worker_budget", "total"],
    ] {
        assert!(num(&stats, &path) >= 0.0, "{path:?}");
    }
    assert!(num(&stats, &["stats", "server", "requests"]) >= 4.0);
    assert!(num(&stats, &["stats", "server", "bad_requests"]) >= 2.0);
    assert!(num(&stats, &["stats", "server", "compile_errors"]) >= 4.0);

    handle.shutdown().unwrap();
}

#[test]
fn oversized_lines_get_413_and_resync() {
    let handle = Server::spawn(ServeConfig {
        max_request_bytes: 256,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    let huge = format!(r#"{{"op":"run","source":"{}"}}"#, "x".repeat(1024));
    let resp = c.request_raw(&huge).unwrap();
    assert!(!boolean(&resp, &["ok"]));
    assert_eq!(num(&resp, &["code"]), 413.0);
    // The same connection parses the next request cleanly.
    assert_ok(&c.ping().unwrap());
    assert_eq!(
        num(&c.stats().unwrap(), &["stats", "server", "oversized"]),
        1.0
    );
    handle.shutdown().unwrap();
}

/// N racing clients with the identical job: every response carries
/// bit-identical virtual metrics, the bytecode lowering happens at most
/// once across the group, and `runs + joined` accounts for every client
/// (joiners really did skip execution).
#[test]
fn racing_clients_dedup_and_lower_exactly_once() {
    const CLIENTS: usize = 8;
    let handle = Server::spawn(ServeConfig {
        max_running: 1,
        max_queued: CLIENTS,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr;
    // Unique job for this test: nothing else in the process lowers it.
    let req = run_req(jacobi(40, 4), vec![2, 2]);
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let req = req.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                barrier.wait();
                c.run(&req).unwrap()
            })
        })
        .collect();
    let responses: Vec<Json> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    let metrics: Vec<(String, String, String)> = responses
        .iter()
        .map(|r| {
            assert_ok(r);
            (
                get(r, &["result", "elapsed_virt_s"]).render(),
                get(r, &["result", "messages"]).render(),
                get(r, &["result", "bytes"]).render(),
            )
        })
        .collect();
    assert!(
        metrics.windows(2).all(|w| w[0] == w[1]),
        "all racing clients must see identical virtual metrics: {metrics:?}"
    );
    // Joiners inherit the leader's telemetry verbatim, so only count the
    // responses that performed their own execution: at most one of those
    // may have done the bytecode lowering.
    let cold_lowerings = responses
        .iter()
        .filter(|r| {
            !boolean(r, &["telemetry", "joined"])
                && get(r, &["telemetry", "program_cache_hit"]) == &Json::Bool(false)
        })
        .count();
    assert!(
        cold_lowerings <= 1,
        "the same job must be lowered at most once across {CLIENTS} racing clients"
    );

    let stats = Client::connect(addr).unwrap().stats().unwrap();
    // The server-side compiled cache proves exactly-once compilation:
    // this server saw exactly one distinct job.
    assert_eq!(
        num(&stats, &["stats", "server", "compile_cache_misses"]),
        1.0,
        "identical racing jobs must compile exactly once"
    );
    let runs = num(&stats, &["stats", "server", "runs"]);
    let joined = num(&stats, &["stats", "server", "joined"]);
    assert_eq!(
        runs + joined,
        CLIENTS as f64,
        "every client either executed or joined"
    );
    // With one run slot, machine use never overlaps: the pool built at
    // most one machine however many clients raced.
    assert_eq!(num(&stats, &["stats", "machine_pool", "created"]), 1.0);
    handle.shutdown().unwrap();
}

/// Two sequential requests for the same irregular job: the second rides
/// every warm path — compiled cache, program cache, schedule cache,
/// machine pool — and its telemetry proves it.
#[test]
fn second_request_rides_every_warm_path() {
    let handle = Server::spawn(ServeConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    let req = run_req(irregular(509), vec![4]);

    let cold = c.run(&req).unwrap();
    assert_ok(&cold);
    assert_eq!(
        get(&cold, &["telemetry", "program_cache_hit"]),
        &Json::Bool(false)
    );
    assert!(!boolean(&cold, &["telemetry", "compile_cache_hit"]));
    assert!(!boolean(&cold, &["telemetry", "machine_reused"]));
    assert!(
        num(&cold, &["telemetry", "sched_misses"]) > 0.0,
        "cold run builds inspector schedules"
    );

    let warm = c.run(&req).unwrap();
    assert_ok(&warm);
    assert_eq!(
        get(&warm, &["telemetry", "program_cache_hit"]),
        &Json::Bool(true)
    );
    assert!(boolean(&warm, &["telemetry", "compile_cache_hit"]));
    assert!(boolean(&warm, &["telemetry", "machine_reused"]));
    assert_eq!(
        num(&warm, &["telemetry", "sched_misses"]),
        0.0,
        "warm run reuses every schedule across requests"
    );
    assert!(num(&warm, &["telemetry", "sched_hits"]) > 0.0);

    // Bit-identical virtual metrics cold vs warm.
    assert_eq!(
        get(&cold, &["result"]).render(),
        get(&warm, &["result"]).render()
    );
    handle.shutdown().unwrap();
}

/// Threaded jobs lease pool workers from the process-wide budget; no
/// response may ever report more workers than the budget holds, and
/// concurrent in-use never exceeds the total.
#[test]
fn threaded_jobs_respect_the_worker_budget() {
    budget::global().ensure_total_at_least(6);
    let total = budget::global().total();
    let handle = Server::spawn(ServeConfig {
        max_running: 3,
        max_queued: 16,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr;
    let threads: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut req = run_req(jacobi(16 + i, 2), vec![2, 2]);
                req.threaded = true;
                c.run(&req).unwrap()
            })
        })
        .collect();
    for t in threads {
        let resp = t.join().unwrap();
        assert_ok(&resp);
        let workers = num(&resp, &["telemetry", "workers"]);
        assert!(
            workers <= total as f64,
            "granted {workers} workers with a budget of {total}"
        );
    }
    let stats = Client::connect(addr).unwrap().stats().unwrap();
    assert!(
        num(&stats, &["stats", "worker_budget", "in_use"])
            <= num(&stats, &["stats", "worker_budget", "total"])
    );
    handle.shutdown().unwrap();
}

/// The daemon's answer must be the same bits a direct in-process
/// `Compiled::run_on` produces: same modelled time (f64-exact through
/// the JSON round trip), same message/byte counts, same PRINT output.
#[test]
fn server_run_is_bit_identical_to_direct_run() {
    let source = jacobi(24, 3);
    let grid = vec![2, 2];

    let req = run_req(source.clone(), grid.clone());
    let compiled = compile(&source, &req.compile_options()).unwrap();
    let mut machine = Machine::new(MachineSpec::ipsc860(), f90d_distrib::ProcGrid::new(&grid));
    let direct = compiled.run_on(&mut machine).unwrap();

    let handle = Server::spawn(ServeConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    let resp = c.run(&req).unwrap();
    assert_ok(&resp);
    assert_eq!(
        num(&resp, &["result", "elapsed_virt_s"]).to_bits(),
        direct.elapsed.to_bits(),
        "modelled time must round-trip bit-exactly"
    );
    assert_eq!(num(&resp, &["result", "messages"]), direct.messages as f64);
    assert_eq!(num(&resp, &["result", "bytes"]), direct.bytes as f64);
    let printed: Vec<String> = match get(&resp, &["result", "printed"]) {
        Json::Arr(items) => items
            .iter()
            .map(|i| i.as_str().unwrap().to_string())
            .collect(),
        other => panic!("printed not an array: {other:?}"),
    };
    assert_eq!(printed, direct.printed);
    handle.shutdown().unwrap();
}

/// With one run slot and a zero-length queue, a job is refused with a
/// structured 429 while the slot is held. The test holds the slot itself
/// through an admission ticket, so the refusal does not depend on how
/// long some other job happens to run.
#[test]
fn overload_gets_a_structured_429() {
    let handle = Server::spawn(ServeConfig {
        max_running: 1,
        max_queued: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let state = Arc::clone(handle.state());

    let ticket = state
        .admission()
        .admit()
        .expect("the only run slot is free");
    let mut c = Client::connect(handle.addr).unwrap();
    let refused = c.run(&run_req(jacobi(20, 1), vec![2, 2])).unwrap();
    assert!(!boolean(&refused, &["ok"]));
    assert_eq!(num(&refused, &["code"]), 429.0);
    assert!(get(&refused, &["error"])
        .as_str()
        .unwrap()
        .contains("overloaded"));

    drop(ticket);
    // Slot free again: the same job now runs.
    let retry = c.run(&run_req(jacobi(20, 1), vec![2, 2])).unwrap();
    assert_ok(&retry);

    assert!(
        num(
            &c.stats().unwrap(),
            &["stats", "server", "rejected_overload"]
        ) >= 1.0
    );
    handle.shutdown().unwrap();
}

/// Shutdown drains: in-flight work answers, new runs get 503, pings
/// still answer, and the accept loop exits cleanly.
#[test]
fn shutdown_refuses_new_runs_with_503() {
    let handle = Server::spawn(ServeConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    assert_ok(&c.run(&run_req(jacobi(10, 1), vec![2, 2])).unwrap());

    let ack = c.shutdown().unwrap();
    assert_ok(&ack);
    assert!(boolean(&ack, &["draining"]));

    let refused = c.run(&run_req(jacobi(11, 1), vec![2, 2])).unwrap();
    assert!(!boolean(&refused, &["ok"]));
    assert_eq!(num(&refused, &["code"]), 503.0);
    assert_ok(&c.ping().unwrap());
    handle.shutdown().unwrap();
}
