//! Phase attribution: a layer's reported pack / multiply / inverse
//! `phase_millis` must explain its wall-clock rather than sample it.
//!
//! The case is VGG16-D's conv3 geometry (56×56, 128 → 128 channels, 3×3
//! kernels) as a one-layer workload, run single-threaded through
//! `NetworkExecutor::run` at `F(2×2)` and `F(4×4)`. The phases nest
//! strictly inside the layer's timed region, so their sum can only fall
//! short of `LayerReport::millis` by untraced work; it must cover at
//! least 90 % of it.

use wino_core::{ConvShape, Workload};
use wino_exec::{ExecConfig, NetworkExecutor, Schedule};

/// Floor on the share of a layer's wall-clock that its reported phases
/// must explain.
const MIN_PHASE_COVERAGE: f64 = 0.90;

#[test]
fn winograd_phases_cover_the_layer_wall_clock() {
    let shape = ConvShape::same_padded(56, 56, 128, 128, 3);
    for m in [2usize, 4] {
        let mut wl = Workload::new("vgg16d-conv3", 1);
        wl.push("conv3", "G3", shape);
        let schedule = Schedule::homogeneous(&wl, m).expect("conv3 schedules");
        let exec =
            NetworkExecutor::new(wl, schedule, ExecConfig::with_threads(1)).expect("executor");
        let report = exec.run();
        let layer = &report.layers[0];
        let phase_sum: f64 = layer.phase_millis.iter().map(|(_, ms)| ms).sum();
        let coverage = phase_sum / layer.millis;
        assert!(
            coverage >= MIN_PHASE_COVERAGE,
            "{} phases {:?} explain only {:.1}% of the layer's {:.3} ms (floor {:.0}%)",
            layer.engine,
            layer.phase_millis,
            coverage * 100.0,
            layer.millis,
            MIN_PHASE_COVERAGE * 100.0
        );
    }
}
