//! The fixed-point accuracy study the paper skipped, emitted as
//! `BENCH_quant.json`.
//!
//! The paper runs its Winograd pipeline "without any quantization
//! scheme for the sake of simplicity" while its headline comparison
//! target (Qiu et al. \[12\]) runs 16-bit fixed point. This binary
//! measures what that simplification hides: for every model workload
//! (shrunk so the float oracle stays cheap), every output-tile size
//! `m ∈ {2, 3, 4}` and every fractional width `FRAC ∈ 6..=14`, it runs
//! every layer once in `f32` and once in saturating `Q(32−FRAC).FRAC`
//! arithmetic through the same `NetworkExecutor`, and records the
//! worst per-layer max-abs deviation. Layers execute on their declared
//! geometries with independent synthetic inputs (the executor's
//! semantics — workloads do not model the pooling between conv
//! layers), so the surface is *per-layer* quantization error; chained
//! activations would compound it further.
//!
//! The VGG16-D error surface is then fed into a `wino-search`
//! `ParetoArchive` as the fifth objective axis — modeled throughput
//! from the paper's DSE pipeline, measured quantization error from the
//! execution engine — so the retained front shows which `(m, FRAC)`
//! pairs are genuine trade-offs between tile size and arithmetic
//! precision.
//!
//! Acceptance (pinned at the end): `Q22.10` at `m = 2` keeps VGG16-D
//! conv-layer inference within 0.05 max-abs of the float oracle.

use std::path::Path;
use wino_exec::{quant_error_bound, ExecConfig, NetworkExecutor, QuantConfig, Schedule};
use wino_models::{alexnet, resnet18, shrink, tiny_cnn, vgg16d};
use wino_obs::write_atomic;
use wino_search::{ParetoArchive, SearchObjective, SearchSpace};
use wino_tensor::ErrorStats;

/// One cell of the FRAC × m error surface.
struct Cell {
    m: usize,
    frac: u32,
    max_abs_err: f64,
}

const FRAC_SWEEP: std::ops::RangeInclusive<u32> = 6..=14;
const MS: [usize; 3] = [2, 3, 4];
const SEED: u64 = 0x5EED_0001;

fn sweep_workload(wl: &wino_core::Workload, threads: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for m in MS {
        let schedule = Schedule::homogeneous(wl, m).expect("schedule lowers");
        let config = ExecConfig::with_threads(threads);
        let float = NetworkExecutor::with_seed(wl.clone(), schedule.clone(), config, SEED)
            .expect("float executor");
        // The float reference per layer does not depend on FRAC —
        // compute it once per m, not once per sweep cell.
        let references: Vec<_> = (0..wl.layers().len())
            .map(|i| {
                let input = float.layer_input(i);
                let output = float.execute_layer(i, &input).expect("float plan executes");
                (input, output)
            })
            .collect();
        for frac in FRAC_SWEEP {
            let quant = QuantConfig::uniform_fixed(schedule.len(), frac).expect("supported FRAC");
            let qsched = schedule.clone().with_quant(quant).expect("lengths match");
            let quantized = NetworkExecutor::with_seed(wl.clone(), qsched, config, SEED)
                .expect("quantized executor");
            let mut worst = 0.0f64;
            for (i, (input, reference)) in references.iter().enumerate() {
                let got = quantized.execute_layer(i, input).expect("quantized plan executes");
                worst =
                    worst.max(ErrorStats::between(got.as_slice(), reference.as_slice()).max_abs);
            }
            cells.push(Cell { m, frac, max_abs_err: worst });
        }
    }
    cells
}

fn main() {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8);
    let workloads = [
        shrink(&vgg16d(1), 16, 8),
        shrink(&alexnet(1), 16, 8),
        shrink(&resnet18(1), 16, 8),
        shrink(&tiny_cnn(1), 16, 8),
    ];

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"quant_study\",\n");
    json.push_str(&format!(
        "  \"frac_sweep\": [{}],\n",
        FRAC_SWEEP.map(|f| f.to_string()).collect::<Vec<_>>().join(", ")
    ));
    json.push_str("  \"ms\": [2, 3, 4],\n  \"workloads\": [\n");

    let mut vgg_cells = Vec::new();
    for (wi, wl) in workloads.iter().enumerate() {
        println!("=== {} ({} layers) ===", wl.name(), wl.layers().len());
        println!("{:<6} {:>6} {:>14} {:>14}", "m", "FRAC", "max|err|", "analytic bound");
        let cells = sweep_workload(wl, threads);
        let channels = wl.layers().iter().map(|l| l.shape.c).max().unwrap_or(1);
        json.push_str(&format!("    {{\"name\": \"{}\", \"surface\": [\n", wl.name()));
        for (ci, cell) in cells.iter().enumerate() {
            // The loose forward bound for the workload's widest layer —
            // printed next to the measurement so gross regressions in
            // either are obvious at a glance.
            let params = wino_core::WinogradParams::new(cell.m, 3).expect("valid");
            let bound = quant_error_bound(params, channels, cell.frac, 1.0, 1.0);
            println!(
                "{:<6} {:>6} {:>14.3e} {:>14.3e}",
                format!("F({0}x{0})", cell.m),
                cell.frac,
                cell.max_abs_err,
                bound
            );
            json.push_str(&format!(
                "      {{\"m\": {}, \"frac\": {}, \"max_abs_err\": {:.4e}, \"bound\": {:.4e}}}{}\n",
                cell.m,
                cell.frac,
                cell.max_abs_err,
                bound,
                if ci + 1 < cells.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!("    ]}}{}\n", if wi + 1 < workloads.len() { "," } else { "" }));
        if wi == 0 {
            vgg_cells = cells;
        }
        println!();
    }
    json.push_str("  ],\n");

    // Feed the VGG16-D error surface into the five-axis Pareto archive:
    // modeled throughput/power/latency/head-room from the paper's DSE
    // pipeline (full-size VGG16-D, Virtex-7 485T, 700 multipliers at
    // 200 MHz), measured max-abs-error from the execution engine.
    let evaluator = wino_dse::Evaluator::new(vgg16d(1), wino_fpga::virtex7_485t());
    let space = wino_search::HomogeneousSpace::new(&evaluator, MS.to_vec(), 3, 700, 200e6);
    let mut archive = ParetoArchive::new();
    for cell in &vgg_cells {
        let mi = MS.iter().position(|&m| m == cell.m).expect("m in sweep");
        let evaluation = space.evaluate(&[mi]).with_quant_error(cell.max_abs_err);
        archive.insert(vec![mi, cell.frac as usize], evaluation);
    }
    println!("=== five-axis Pareto front over (m, FRAC), VGG16-D ===");
    print!("{archive}");
    let best_acc = archive.best_by(SearchObjective::QuantError).expect("non-empty archive");
    let best_thr = archive.best_by(SearchObjective::Throughput).expect("non-empty archive");

    json.push_str(&format!(
        "  \"pareto\": {{\"device\": \"virtex7-485t\", \"retained\": {}, \"entries\": [\n",
        archive.len()
    ));
    for (ei, entry) in archive.entries().iter().enumerate() {
        json.push_str(&format!(
            "    {{\"m\": {}, \"frac\": {}, \"throughput_gops\": {:.1}, \"quant_error\": {:.4e}}}{}\n",
            MS[entry.genome[0]],
            entry.genome[1],
            entry.evaluation.throughput_gops,
            entry.evaluation.quant_error,
            if ei + 1 < archive.entries().len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");

    // Acceptance: Fixed<10> VGG16-D inference at m = 2 stays within
    // 0.05 of the float oracle on the shrunk workload.
    let acceptance =
        vgg_cells.iter().find(|c| c.m == 2 && c.frac == 10).expect("m=2, FRAC=10 is in the sweep");
    json.push_str(&format!(
        "  \"acceptance\": {{\"workload\": \"VGG16-D-small\", \"m\": 2, \"frac\": 10, \"max_abs_err\": {:.4e}, \"limit\": 0.05}}\n}}\n",
        acceptance.max_abs_err
    ));

    write_atomic(Path::new("BENCH_quant.json"), &json).expect("write BENCH_quant.json");
    println!(
        "\nwrote BENCH_quant.json: {cells} cells per workload, front keeps {kept} designs",
        cells = vgg_cells.len(),
        kept = archive.len(),
    );
    println!(
        "accuracy winner: F({m}x{m}) FRAC={frac}; throughput winner: F({tm}x{tm}) FRAC={tfrac} \
         at {gops:.1} GOPS",
        m = MS[best_acc.genome[0]],
        frac = best_acc.genome[1],
        tm = MS[best_thr.genome[0]],
        tfrac = best_thr.genome[1],
        gops = best_thr.evaluation.throughput_gops,
    );
    assert!(
        acceptance.max_abs_err < 0.05,
        "acceptance: Fixed<10> m=2 VGG16-D error must stay under 0.05, got {:.3e}",
        acceptance.max_abs_err
    );
}
