//! Facade-level integration: the serving subsystem end to end through
//! `winofpga::prelude` — standard registry (four models × two
//! precisions, kernel banks pre-transformed), a running server, mixed
//! priorities, and the two serving invariants (bitwise equality with
//! direct execution; every admitted request answered) — including the
//! sharded, work-stealing configuration.

use winofpga::prelude::*;

#[test]
fn standard_registry_serves_mixed_traffic_end_to_end() {
    let registry = ModelRegistry::standard(4, 1).expect("standard registry");
    assert_eq!(registry.len(), 8, "four models x {{f32, Q24.8}}");

    // Direct references computed before the server exists.
    let direct: Vec<_> = (0..registry.len())
        .map(|i| (registry.entry(i).id().clone(), registry.entry(i).infer_one(42 + i as u64)))
        .collect();

    let config = ServeConfig {
        workers: 2,
        exec_threads_per_worker: None,
        batch: BatchConfig {
            max_batch: 4,
            max_wait: std::time::Duration::from_micros(300),
            queue_capacity: 64,
        },
        slo: None,
        ..ServeConfig::default()
    };
    let server = Server::start(registry, config);

    // One request per variant, cycling priorities.
    let priorities = [Priority::High, Priority::Normal, Priority::Low];
    let handles: Vec<_> = direct
        .iter()
        .enumerate()
        .map(|(i, (id, _))| {
            server
                .submit(id, priorities[i % 3], 42 + i as u64)
                .expect("queue has room for one request per model")
        })
        .collect();

    for (handle, (id, reference)) in handles.iter().zip(&direct) {
        let result = handle.wait().expect("served");
        assert_eq!(&result.model, id);
        assert_eq!(&result.output, reference, "served '{id}' must be bitwise the direct run");
    }

    let snapshot = server.shutdown();
    assert_eq!(snapshot.total_completed(), 8, "every admitted request answered");
    assert_eq!(snapshot.total_rejected(), 0);
    assert!(snapshot.per_model.iter().all(|m| m.completed == 1));
}

#[test]
fn served_quantized_variant_differs_from_float_as_designed() {
    // The -q8 variants run a genuinely different (saturating Q24.8)
    // datapath: same seed, different bits. Serving preserves exactly
    // that distinction.
    let registry = ModelRegistry::standard(2, 1).expect("standard registry");
    let f32_out = registry.get(&"tinycnn-f32".into()).unwrap().infer_one(7);
    let q8_out = registry.get(&"tinycnn-q8".into()).unwrap().infer_one(7);
    assert_ne!(f32_out, q8_out);

    let server = Server::start(registry, ServeConfig::default());
    let a = server.submit(&"tinycnn-f32".into(), Priority::Normal, 7).unwrap();
    let b = server.submit(&"tinycnn-q8".into(), Priority::Normal, 7).unwrap();
    assert_eq!(a.wait().expect("served").output, f32_out);
    assert_eq!(b.wait().expect("served").output, q8_out);
    drop(server);
}

#[test]
fn sharded_server_stays_bitwise_under_bursty_traffic() {
    // The full sharded configuration through the facade: 3 shards of
    // 2 workers, stealing on, 8 models routed across shards by home
    // index, 96 rapid-fire mixed-priority requests. Every response
    // must equal its solo run bitwise and every admitted request must
    // be answered.
    let registry = ModelRegistry::standard(4, 1).expect("standard registry");
    let ids: Vec<_> = registry.entries().iter().map(|e| e.id().clone()).collect();
    let direct: Vec<_> = (0..96u64)
        .map(|i| {
            let model = (i % ids.len() as u64) as usize;
            (model, i, registry.entry(model).infer_one(i))
        })
        .collect();

    let server = Server::start(
        registry,
        ServeConfig {
            shards: 3,
            workers: 2,
            steal: true,
            exec_threads_per_worker: Some(1),
            batch: BatchConfig {
                max_batch: 4,
                max_wait: std::time::Duration::from_micros(200),
                queue_capacity: 128,
            },
            slo: None,
            inject_panic_seed: None,
            ..ServeConfig::default()
        },
    );
    assert_eq!(server.shard_count(), 3);

    let priorities = [Priority::High, Priority::Normal, Priority::Low];
    let handles: Vec<_> = direct
        .iter()
        .map(|&(model, seed, _)| {
            server
                .submit(&ids[model], priorities[seed as usize % 3], seed)
                .expect("queue sized for the burst")
        })
        .collect();
    for (handle, (model, seed, reference)) in handles.iter().zip(&direct) {
        let result = handle.wait().expect("served");
        assert_eq!(result.seed, *seed);
        assert_eq!(
            &result.output, reference,
            "'{}' seed {seed} must be bitwise the solo run",
            ids[*model]
        );
    }

    let snapshot = server.shutdown();
    assert_eq!(snapshot.total_completed(), 96, "every admitted request answered");
    assert_eq!(snapshot.total_rejected(), 0);
    assert_eq!(snapshot.total_failed(), 0);
    assert_eq!(snapshot.per_shard.len(), 3);
    assert_eq!(snapshot.per_shard.iter().map(|s| s.completed).sum::<u64>(), 96);
    // All three shards saw work: eight models spread across three
    // shards leaves no shard without a home model.
    assert!(
        snapshot.per_shard.iter().all(|s| s.batches > 0),
        "some shard sat idle: {:?}",
        snapshot.per_shard.iter().map(|s| s.batches).collect::<Vec<_>>()
    );
}
