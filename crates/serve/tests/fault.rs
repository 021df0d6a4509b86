//! Fault-injection tests: a worker that panics mid-batch must not lose
//! admitted requests. Innocent lanes are retried solo and served with
//! bitwise-correct outputs; the poisoned lane resolves to an explicit
//! [`RequestError`]; and [`Server::shutdown`] still drains and joins
//! cleanly — no hang, no poisoned-lock abort.

use std::time::Duration;
use wino_core::{ConvShape, Workload};
use wino_exec::{ExecConfig, Schedule};
use wino_serve::{BatchConfig, ModelRegistry, Priority, ResponseHandle, ServeConfig, Server};

fn toy_registry(max_batch: usize) -> ModelRegistry {
    let mut wl = Workload::new("toy", max_batch);
    wl.push("a", "G", ConvShape::same_padded(6, 6, 1, 2, 3));
    wl.push("b", "G", ConvShape { h: 6, w: 6, c: 2, k: 2, r: 3, stride: 2, pad: 1 });
    let schedule = Schedule::homogeneous(&wl, 2).unwrap();
    let mut registry = ModelRegistry::new();
    registry.register("toy", wl, schedule, ExecConfig::with_threads(1), 3).unwrap();
    registry
}

/// [`toy_registry`] plus a `slow` model: one `slow` request keeps a
/// worker busy for milliseconds, so `toy` requests queue behind it.
fn registry_with_blocker(max_batch: usize) -> ModelRegistry {
    let mut registry = toy_registry(max_batch);
    let mut wl = Workload::new("slow", 1);
    wl.push("a", "G", ConvShape::same_padded(32, 32, 24, 24, 3));
    let schedule = Schedule::homogeneous(&wl, 2).unwrap();
    registry.register("slow", wl, schedule, ExecConfig::with_threads(1), 3).unwrap();
    registry
}

/// Submits one `slow` request and returns once a worker has taken it:
/// until that request finishes, a one-worker server releases nothing
/// else, so the requests submitted meanwhile leave as one batch.
fn occupy_the_worker(server: &Server) -> ResponseHandle {
    let handle = server.submit(&"slow".into(), Priority::Normal, 0).expect("admitted");
    while server.queued() > 0 {
        std::thread::yield_now();
    }
    handle
}

const POISON: u64 = 666;

/// Every admitted request resolves after a mid-batch panic: innocents
/// get solo-retried, bitwise-correct outputs; only the poisoned seed
/// fails, and it fails *explicitly*.
#[test]
fn mid_batch_panic_resolves_every_admitted_request() {
    let registry = toy_registry(8);
    let entry = registry.entry(0);
    let seeds: Vec<u64> = vec![1, 2, POISON, 3, 4, 5];
    let direct: Vec<_> = seeds.iter().map(|&s| entry.infer_one(s)).collect();
    let server = Server::start(
        registry,
        ServeConfig {
            shards: 2,
            workers: 2,
            inject_panic_seed: Some(POISON),
            batch: BatchConfig {
                max_batch: 4,
                max_wait: Duration::from_millis(2),
                queue_capacity: 64,
            },
            ..ServeConfig::default()
        },
    );
    let priorities = [Priority::High, Priority::Normal, Priority::Low];
    let handles: Vec<_> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| server.submit(&"toy".into(), priorities[i % 3], seed).expect("admitted"))
        .collect();
    let mut failed = 0;
    for ((&seed, handle), solo) in seeds.iter().zip(&handles).zip(&direct) {
        match handle.wait() {
            Ok(result) => {
                assert_ne!(seed, POISON, "poisoned seed must not be served");
                assert_eq!(result.seed, seed);
                assert_eq!(&result.output, solo, "retried lane diverged from solo run");
            }
            Err(err) => {
                assert_eq!(seed, POISON, "innocent seed {seed} failed: {err}");
                assert_eq!(err.seed, POISON);
                assert_eq!(err.model, "toy".into());
                assert!(err.to_string().contains("fault"), "{err}");
                failed += 1;
            }
        }
    }
    assert_eq!(failed, 1, "exactly the poisoned request fails");
    let snap = server.shutdown();
    assert_eq!(snap.total_completed(), (seeds.len() - 1) as u64);
    assert_eq!(snap.total_failed(), 1);
}

/// Shutdown with a poisoned request still queued: the drain executes
/// the leftover batch, the panic is caught, every handle resolves, and
/// `shutdown()` returns (joins) instead of hanging or aborting on a
/// poisoned lock.
#[test]
fn shutdown_drains_and_joins_cleanly_after_a_fault() {
    let server = Server::start(
        registry_with_blocker(8),
        ServeConfig {
            workers: 1,
            inject_panic_seed: Some(POISON),
            batch: BatchConfig {
                max_batch: 64,
                max_wait: Duration::from_secs(3600),
                queue_capacity: 64,
            },
            ..ServeConfig::default()
        },
    );
    // The one worker is busy: nothing else releases until shutdown's
    // drain, so the fault fires on the drain path itself.
    let _blocker = occupy_the_worker(&server);
    let handles: Vec<_> = [7u64, POISON, 9]
        .iter()
        .map(|&seed| server.submit(&"toy".into(), Priority::Normal, seed).expect("admitted"))
        .collect();
    let snap = server.shutdown(); // must return: drain + join, no hang
    assert_eq!(snap.total_completed() + snap.total_failed(), 4);
    assert_eq!(snap.total_failed(), 1);
    let resolved: Vec<_> = handles.iter().map(|h| h.try_take().expect("resolved")).collect();
    assert!(resolved[0].is_ok() && resolved[2].is_ok());
    assert!(resolved[1].is_err(), "poisoned seed resolves to an explicit error");
}

/// The fault path leaves a black box behind: the always-on flight
/// recorder captures the panic-retry and failure events, the worker
/// dumps `flight_fault.json` into the configured directory, and
/// shutdown leaves `flight_drain.json` — both valid JSON.
#[test]
fn fault_leaves_a_black_box_dump_behind() {
    let dir = std::env::temp_dir().join(format!("wino_flight_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dump dir");
    let server = Server::start(
        toy_registry(8),
        ServeConfig {
            workers: 1,
            inject_panic_seed: Some(POISON),
            batch: BatchConfig {
                max_batch: 2,
                max_wait: Duration::from_millis(2),
                queue_capacity: 64,
            },
            flight_dump_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
    );
    let poisoned = server.submit(&"toy".into(), Priority::Normal, POISON).expect("admitted");
    let innocent = server.submit(&"toy".into(), Priority::Normal, 7).expect("admitted");
    assert!(poisoned.wait().is_err(), "poison must fail");
    innocent.wait().expect("innocent served");
    // The in-memory black box is readable on a live server, dump
    // directory or not.
    let live = server.flight_json("inspect");
    wino_obs::validate_json(&live).expect("live flight dump is valid JSON");
    assert!(live.contains("\"cause\": \"inspect\""), "{live}");
    server.shutdown();
    // Workers are joined: both the fault dump and the shutdown drain
    // dump are complete on disk.
    for (file, cause) in [("flight_fault.json", "fault"), ("flight_drain.json", "drain")] {
        let text = std::fs::read_to_string(dir.join(file))
            .unwrap_or_else(|e| panic!("missing black box {file}: {e}"));
        wino_obs::validate_json(&text).unwrap_or_else(|e| panic!("{file} invalid: {e}"));
        assert!(text.contains(&format!("\"cause\": \"{cause}\"")), "{file} lacks its cause");
        assert!(text.contains("\"panic-retry\""), "{file} lost the panic-retry event");
        assert!(text.contains("\"failed\""), "{file} lost the failure event");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The solo retries of a faulted batch are batches of one: every
/// innocent reports `batch_size == 1`, and the shard books one batch
/// per solo run (the faulted batch itself served nobody).
#[test]
fn solo_retries_are_answered_and_booked_as_batches_of_one() {
    let server = Server::start(
        registry_with_blocker(8),
        ServeConfig {
            workers: 1,
            inject_panic_seed: Some(POISON),
            batch: BatchConfig {
                max_batch: 4,
                max_wait: Duration::from_secs(3600),
                queue_capacity: 64,
            },
            ..ServeConfig::default()
        },
    );
    // The four queue behind the blocker and leave as one full batch.
    let blocker = occupy_the_worker(&server);
    let seeds = [1u64, POISON, 2, 3];
    let handles: Vec<_> = seeds
        .iter()
        .map(|&seed| server.submit(&"toy".into(), Priority::Normal, seed).expect("admitted"))
        .collect();
    for (&seed, handle) in seeds.iter().zip(&handles) {
        match handle.wait() {
            Ok(result) => assert_eq!(result.batch_size, 1, "seed {seed} was retried alone"),
            Err(err) => assert_eq!(err.seed, POISON),
        }
    }
    assert_eq!(blocker.wait().expect("served").batch_size, 1);
    let snap = server.shutdown();
    assert_eq!(snap.total_completed(), 3 + 1);
    assert_eq!(snap.total_failed(), 1);
    assert_eq!(snap.per_shard[0].batches, 3 + 1, "one batch per solo retry, plus the blocker");
    assert_eq!(snap.per_model[0].batches, 3);
    assert_eq!(snap.per_model[0].mean_batch, 1.0);
}

/// Repeated faults on a multi-shard server: whichever batch the poison
/// lands in, the accounting invariant holds — every submission is
/// resolved, failures are counted, and the server survives to serve
/// correct traffic afterwards.
#[test]
fn server_keeps_serving_correctly_after_repeated_faults() {
    let registry = toy_registry(4);
    let direct = registry.entry(0).infer_one(42);
    let server = Server::start(
        registry,
        ServeConfig {
            shards: 2,
            workers: 1,
            inject_panic_seed: Some(POISON),
            batch: BatchConfig {
                max_batch: 1,
                max_wait: Duration::from_micros(100),
                queue_capacity: 64,
            },
            ..ServeConfig::default()
        },
    );
    for round in 0..3 {
        let poisoned = server.submit(&"toy".into(), Priority::Normal, POISON).expect("admitted");
        let innocents: Vec<_> = (0..4u64)
            .map(|i| {
                server.submit(&"toy".into(), Priority::Normal, round * 10 + i).expect("admitted")
            })
            .collect();
        assert!(poisoned.wait().is_err(), "round {round}: poison must fail");
        for h in innocents {
            h.wait().unwrap_or_else(|e| panic!("round {round}: innocent failed: {e}"));
        }
    }
    // The pool is intact: fresh traffic is still served bitwise.
    let h = server.submit(&"toy".into(), Priority::High, 42).expect("admitted");
    assert_eq!(h.wait().expect("served").output, direct);
    let snap = server.shutdown();
    assert_eq!(snap.total_failed(), 3);
    assert_eq!(snap.total_completed(), 13);
}
