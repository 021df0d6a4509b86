//! Behavioural tests for wino-obs: span stacks and self-time,
//! collection scopes, the two recorders, and both exposition renders.
//!
//! Tests that flip the *global* tracing flag serialise on a mutex —
//! the flag is process-wide and the test harness runs threads — and so
//! does every test that enters a `Span`: while another test has the
//! global recorder enabled, its spans would land in that recorder.

use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

use wino_obs::{
    collect, AggregatingProfiler, MetricFamily, MetricKind, MetricSample, ObsReport, Recorder,
    Span, SpanRecord, TraceRecorder,
};

fn global_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn spin(duration: Duration) {
    let start = std::time::Instant::now();
    while start.elapsed() < duration {
        std::hint::spin_loop();
    }
}

#[test]
fn disabled_spans_produce_nothing_and_collect_captures_nesting() {
    let _guard = global_lock();
    // With no sink active the guard is inert…
    {
        let _span = Span::enter("test", "ghost");
    }
    // …and a collect scope sees only what happens inside it.
    let (value, spans) = collect(|| {
        let _outer = Span::enter("test", "outer");
        {
            let _inner = Span::enter("test", "inner");
            spin(Duration::from_millis(2));
        }
        spin(Duration::from_millis(2));
        42
    });
    assert_eq!(value, 42);
    assert_eq!(spans.len(), 2, "ghost span must not appear");
    // Completion order: inner closes before outer.
    assert_eq!(spans[0].label, "inner");
    assert_eq!(spans[0].path, "outer/inner");
    assert_eq!(spans[1].label, "outer");
    assert_eq!(spans[1].path, "outer");
    // Self-time: outer excludes inner's time, totals nest.
    let inner = &spans[0];
    let outer = &spans[1];
    assert!(outer.duration >= inner.duration);
    assert!(outer.self_time <= outer.duration - inner.duration + Duration::from_millis(1));
    assert!(inner.self_time == inner.duration, "leaf self == total");
}

#[test]
fn collect_scopes_nest_and_partition() {
    let _guard = global_lock();
    let ((), outer_spans) = collect(|| {
        {
            let _before = Span::enter("test", "before");
        }
        let ((), inner_spans) = collect(|| {
            let _inside = Span::enter("test", "inside");
        });
        assert_eq!(inner_spans.len(), 1);
        assert_eq!(inner_spans[0].label, "inside");
    });
    // The inner collect took "inside"; the outer scope kept "before".
    assert_eq!(outer_spans.len(), 1);
    assert_eq!(outer_spans[0].label, "before");
}

#[test]
fn collect_only_sees_the_current_thread() {
    let _guard = global_lock();
    let ((), spans) = collect(|| {
        thread::scope(|scope| {
            scope.spawn(|| {
                let _elsewhere = Span::enter("test", "other-thread");
            });
        });
        let _here = Span::enter("test", "this-thread");
    });
    assert_eq!(spans.len(), 1);
    assert_eq!(spans[0].label, "this-thread");
}

#[test]
fn global_recorder_receives_spans_and_intervals() {
    let _guard = global_lock();
    let trace = Arc::new(TraceRecorder::new(16));
    wino_obs::set_recorder(trace.clone());
    wino_obs::enable();
    assert!(wino_obs::is_enabled());
    {
        let _span = Span::enter("test", "traced");
    }
    wino_obs::record_interval(
        "test",
        "interval",
        7,
        Duration::from_micros(100),
        Duration::from_micros(250),
    );
    wino_obs::disable();
    wino_obs::clear_recorder();
    assert!(!wino_obs::is_enabled());
    {
        let _span = Span::enter("test", "after-disable");
    }
    assert_eq!(trace.len(), 2);
    let json = trace.chrome_trace_json();
    assert!(json.contains("\"name\":\"traced\""));
    assert!(json.contains("\"name\":\"interval\""));
    assert!(!json.contains("after-disable"));
    assert!(json.contains("\"id\":7"));
    assert!(json.contains("\"dur\":250.000"));
    assert!(json.starts_with("{\"traceEvents\":["));
}

#[test]
fn trace_recorder_ring_buffer_is_bounded() {
    let trace = TraceRecorder::new(3);
    for i in 0..10u64 {
        trace.record(&SpanRecord {
            category: "test",
            label: format!("s{i}"),
            path: format!("s{i}"),
            id: i,
            thread: 1,
            start: Duration::ZERO,
            duration: Duration::from_micros(1),
            self_time: Duration::from_micros(1),
        });
    }
    assert_eq!(trace.len(), 3);
    assert_eq!(trace.dropped(), 7);
    let json = trace.chrome_trace_json();
    assert!(json.contains("s9") && json.contains("s7"), "keeps newest");
    assert!(!json.contains("\"name\":\"s0\""), "evicts oldest");
    assert!(json.contains("\"dropped\":7"));
}

#[test]
fn profiler_aggregates_by_path_with_self_time() {
    let _guard = global_lock();
    let profiler = Arc::new(AggregatingProfiler::new());
    wino_obs::set_recorder(profiler.clone());
    wino_obs::enable();
    for _ in 0..3 {
        let _layer = Span::enter("exec.layer", "conv");
        let _phase = Span::enter("exec.phase", "pack");
        spin(Duration::from_millis(1));
    }
    wino_obs::disable();
    wino_obs::clear_recorder();

    let snapshot = profiler.snapshot();
    assert_eq!(snapshot.entries.len(), 2);
    let layer = snapshot.get("conv").expect("layer node");
    let phase = snapshot.get("conv/pack").expect("phase node");
    assert_eq!(layer.count, 3);
    assert_eq!(phase.count, 3);
    assert!(layer.total >= phase.total);
    assert!(
        layer.self_time <= layer.total - phase.total + Duration::from_millis(1),
        "parent self-time excludes child time"
    );

    let tree = snapshot.render_tree();
    let conv_line = tree.lines().position(|l| l.trim_start().starts_with("conv ")).unwrap();
    let pack_line = tree.lines().position(|l| l.trim_start().starts_with("pack ")).unwrap();
    assert!(pack_line > conv_line, "children render under parents");
    assert!(tree.lines().nth(pack_line).unwrap().starts_with("  "), "children indent");

    profiler.reset();
    assert!(profiler.snapshot().entries.is_empty());
}

#[test]
fn obs_report_renders_prometheus_and_json() {
    let report = ObsReport {
        metrics: vec![
            MetricFamily::scalar("wino_up", "Liveness.", MetricKind::Gauge, 1.0),
            MetricFamily {
                name: "wino_requests_total".into(),
                help: "Completed requests.".into(),
                kind: MetricKind::Counter,
                samples: vec![
                    MetricSample { labels: vec![("model".into(), "vgg\"16".into())], value: 240.0 },
                    MetricSample { labels: vec![("model".into(), "tiny".into())], value: 1.5 },
                ],
            },
        ],
        profile: None,
    };
    let text = report.to_prometheus();
    assert!(text.contains("# HELP wino_up Liveness."));
    assert!(text.contains("# TYPE wino_up gauge"));
    assert!(text.contains("wino_up 1\n"));
    assert!(text.contains("# TYPE wino_requests_total counter"));
    assert!(text.contains("wino_requests_total{model=\"vgg\\\"16\"} 240"));
    assert!(text.contains("wino_requests_total{model=\"tiny\"} 1.5"));

    let json = report.to_json();
    assert!(json.contains("\"name\":\"wino_requests_total\""));
    assert!(json.contains("\"kind\":\"counter\""));
    assert!(json.contains("\"model\":\"vgg\\\"16\""));
    assert!(json.contains("\"value\":240"));
    assert!(!json.contains("\"profile\""), "absent profile is omitted");
}

#[test]
fn obs_report_embeds_profile_snapshot() {
    let profiler = AggregatingProfiler::new();
    profiler.record(&SpanRecord {
        category: "exec.phase",
        label: "pack".into(),
        path: "conv/pack".into(),
        id: 0,
        thread: 1,
        start: Duration::ZERO,
        duration: Duration::from_millis(4),
        self_time: Duration::from_millis(4),
    });
    let report = ObsReport { metrics: Vec::new(), profile: Some(profiler.snapshot()) };
    let json = report.to_json();
    assert!(json.contains("\"profile\":[{\"path\":\"conv/pack\""));
    assert!(json.contains("\"total_ms\":4.000000"));
}
