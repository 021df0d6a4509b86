//! Every paper-reproduction result as a [`Row`]: the one source of
//! `PAPER_results.json`, of the `paper` binary's tables and of
//! `tests/paper_claims.rs`.
//!
//! A row pairs this reproduction's value (`ours`) with the published
//! one (`None` for an extension row: roofline, engine simulation, fp32
//! error growth, derived β/γ/δ, Eq. 7 totals) and the closed interval
//! `accept` that `ours` must fall in. An interval expresses any
//! tolerance: absolute, relative, a band between two inconsistent
//! published values, a sign, or an exact equality such as Eq. 9 cycles.
//! DESIGN.md §8's known deviations are rows accepted at the tolerance
//! §8 states.

use wino_baselines::spatial_convolve;
use wino_core::{
    error_growth, implementation_overhead, overhead_ratio_per_pe, overhead_ratio_shared, pe_count,
    pe_count_continuous, transform_ops_for, CostModel, TileModel, TransformOps, WinogradParams,
    Workload,
};
use wino_dse::figures::paper;
use wino_dse::{
    ddr3_1600, ddr3_1600_x2, fig1, fig2, fig3, fig6, fmt_f, podili_asap17, podili_normalized,
    qiu_fpga16, roofline, table1, table2, transform_ops_series, BaselineRecord, DesignPoint,
    Evaluator, Metrics, Table2Column, TextTable,
};
use wino_engine::{pe_structure, structure_1d, EngineConfig, WinogradEngine};
use wino_fpga::{virtex7_485t, Architecture, FpgaDevice};
use wino_models::vgg16d;
use wino_obs::json_escape;
use wino_tensor::{ErrorStats, Shape4, SplitMix64, Tensor4};

/// One paper-reproduction result.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The paper artifact, e.g. `"table2"`.
    pub artifact: &'static str,
    /// The quantity, e.g. `"Ours 4,3 overall (ms)"`.
    pub row: String,
    /// The published value; `None` for an extension row.
    pub published: Option<f64>,
    /// This reproduction's value.
    pub ours: f64,
    /// Closed interval `(lo, hi)` that `ours` must fall in; `hi` may be
    /// infinite.
    pub accept: (f64, f64),
    /// Decimal places the ASCII table prints this row at.
    pub digits: usize,
}

impl Row {
    /// `(ours − published) / published` in percent; `None` for an
    /// extension row or a zero published value.
    pub fn deviation(&self) -> Option<f64> {
        self.published.filter(|&p| p != 0.0).map(|p| 100.0 * (self.ours - p) / p)
    }

    /// `true` when `ours` lies inside `accept`.
    pub fn passes(&self) -> bool {
        self.accept.0 <= self.ours && self.ours <= self.accept.1
    }
}

/// Collects rows one artifact at a time.
#[derive(Default)]
struct Sheet {
    rows: Vec<Row>,
    artifact: &'static str,
    digits: usize,
}

impl Sheet {
    /// Following rows belong to `artifact` and print at `digits`.
    fn start(&mut self, artifact: &'static str, digits: usize) {
        (self.artifact, self.digits) = (artifact, digits);
    }

    /// Adds a row; `published` is an `f64`, or `None` for an extension.
    fn row(
        &mut self,
        label: impl Into<String>,
        published: impl Into<Option<f64>>,
        ours: f64,
        accept: (f64, f64),
    ) -> &mut Row {
        let (artifact, digits, published) = (self.artifact, self.digits, published.into());
        self.rows.push(Row { artifact, row: label.into(), published, ours, accept, digits });
        self.rows.last_mut().expect("just pushed")
    }
}

fn within(center: f64, tol: f64) -> (f64, f64) {
    (center - tol, center + tol)
}

fn within_rel(center: f64, rel: f64) -> (f64, f64) {
    within(center, center.abs() * rel)
}

fn exact(value: f64) -> (f64, f64) {
    (value, value)
}

fn at_least(lo: f64) -> (f64, f64) {
    (lo, f64::INFINITY)
}

fn params(m: usize) -> WinogradParams {
    WinogradParams::new(m, 3).expect("valid")
}

fn design(m: usize, arch: Architecture, pe_count: usize) -> DesignPoint {
    DesignPoint { params: params(m), arch, pe_count, freq_hz: 200e6, pipeline_depth: 8 }
}

/// Every paper-reproduction result, in artifact order: `fig1`…`fig6`
/// (Sec. III-C's crossover under `fig3`, Sec. IV-A's PE ratios under
/// `fig5`), `table1`, `table2`, `claims` (the abstract's and
/// conclusion's headline ratios), `sec4c`, then the extensions
/// `roofline`, `engine`, `error_growth` and `transform_ops`. Pure model
/// output (the simulation and the error study are seeded), so two calls
/// return identical rows.
pub fn results() -> Vec<Row> {
    let wl = vgg16d(1);
    let device = virtex7_485t();
    let mut s = Sheet::default();
    figures(&mut s, &wl);
    table1_rows(&mut s, &device);
    table2_rows(&mut s, &Evaluator::new(wl.clone(), device));
    sec4c_rows(&mut s, &wl);
    extension_rows(&mut s, &wl);
    s.rows
}

fn figures(s: &mut Sheet, wl: &Workload) {
    s.start("fig1", 3);
    let fig = fig1(wl);
    for (si, (name, values)) in fig.series.iter().enumerate() {
        for (gi, &v) in values.iter().enumerate() {
            let p = paper::FIG1[si][gi];
            s.row(format!("{name} {}", fig.x_labels[gi]), p, v, within(p, 0.005));
        }
    }

    // Shift-free cost model. m = 2 anchors on Lavin's counts; m >= 3 runs
    // 10-34 % over the paper, whose beta/gamma/delta are unpublished (§8).
    s.start("fig2", 1);
    let fig = fig2(wl, CostModel::ShiftFree);
    for (i, (x, &v)) in fig.x_labels.iter().zip(&fig.series[0].1).enumerate() {
        let p = paper::FIG2_MFLOPS[i];
        let accept = if i == 0 { within_rel(p, 0.02) } else { (p, 1.35 * p) };
        s.row(format!("{x} (MFLOPs)"), p, v, accept);
    }

    s.start("fig3", 2);
    let fig = fig3(wl, CostModel::ShiftFree);
    let (dec, inc) = (&fig.series[0].1, &fig.series[1].1);
    for (i, x) in fig.x_labels.iter().enumerate() {
        // The printed m = 2 bar (56.25) contradicts the successive
        // formula behind every other bar, which gives 55.56 (§8).
        let p = paper::FIG3_MULT_DECREASE[i];
        let accept = within(if i == 0 { 55.56 } else { p }, 0.01);
        s.row(format!("mult decrease {x} (%)"), p, dec[i], accept);
    }
    for (i, x) in fig.x_labels.iter().enumerate() {
        // Magnitudes inherit Fig. 2's gap; the sign is the claim.
        let accept = if i == 0 { exact(0.0) } else { (0.0, 100.0) };
        let p = paper::FIG3_TRANSFORM_INCREASE[i];
        s.row(format!("transform increase {x} (%)"), p, inc[i], accept);
    }
    // Sec. III-C: the multiplication saving still beats the transform
    // increase at m = 4, and no longer does at m = 5.
    for (i, accept) in [(2, (0.0, 100.0)), (3, (-100.0, 0.0))] {
        let p = paper::FIG3_MULT_DECREASE[i] - paper::FIG3_TRANSFORM_INCREASE[i];
        let label = format!("m={} mult saving - transform increase (pp)", i + 2);
        s.row(label, p, dec[i] - inc[i], accept);
    }

    // The 1-D F(3, 3) engine: hoisting the data transform out of the
    // engine leaves 13 FLOP-costing operators against [3]'s 25.
    s.start("fig4", 0);
    for (who, arch, flops) in
        [("ours", Architecture::SharedTransform, 13.0), ("[3]", Architecture::PerPeTransform, 25.0)]
    {
        let e = structure_1d(params(3), arch).expect("generates");
        s.row(format!("{who} multipliers"), None, e.multipliers as f64, exact(5.0));
        s.row(format!("{who} FLOP-costing operators"), None, e.total_flops() as f64, exact(flops));
    }

    // Sec. IV-A: 9/4 the outputs per cycle for 25/16 the multipliers.
    s.start("fig5", 4);
    let [ours, podili] = [3, 2].map(|m| pe_structure(params(m)).expect("generates"));
    let outputs = ours.outputs_per_cycle as f64 / podili.outputs_per_cycle as f64;
    let mults = ours.multipliers as f64 / podili.multipliers as f64;
    s.row("F(3x3)/F(2x2) outputs per PE (x)", paper::PE_RATIOS[0], outputs, exact(2.25));
    s.row("F(3x3)/F(2x2) multipliers per PE (x)", paper::PE_RATIOS[1], mults, exact(1.5625));

    s.start("fig6", 2);
    let fig = fig6(wl, 200e6);
    for (bi, (name, values)) in fig.series.iter().enumerate() {
        for (xi, &v) in values.iter().enumerate() {
            let p = paper::FIG6_GOPS[bi][xi];
            // ±0.2 %, and never more than ±0.5 GOPS.
            let accept = within(p, (0.002 * p).min(0.5));
            s.row(format!("{name} {} (GOPS)", fig.x_labels[xi]), p, v, accept);
        }
    }
    // The m = 3 / 256-multiplier bar needs a fractional PE count (§8).
    let pes = pe_count_continuous(256, params(3));
    s.row("256 multipliers F(3x3,3x3) PEs", None, pes, exact(10.24));
}

/// The proposed design's counts are accepted to ±2. The \[3\]-based
/// LUTs and DSPs must be exact; its registers land 1 % low and are
/// accepted at ±1.5 % (§8).
fn table1_rows(s: &mut Sheet, device: &FpgaDevice) {
    let t = table1(device);
    s.start("table1", 0);
    for (who, usage, published) in
        [("[3]-based", &t.reference, paper::TABLE1[0]), ("proposed", &t.proposed, paper::TABLE1[1])]
    {
        let ours = [usage.registers, usage.luts, usage.dsps];
        for (i, what) in ["registers", "LUTs", "DSPs"].iter().enumerate() {
            let p = f64::from(published[i]);
            let accept = match (who, i) {
                ("[3]-based", 0) => within_rel(p, 0.015),
                ("[3]-based", _) => exact(p),
                _ => within(p, 2.0),
            };
            s.row(format!("{who} {what}"), p, ours[i] as f64, accept);
        }
    }
    let p = paper::TABLE1_LUT_SAVING_PCT;
    s.row("LUT saving (%)", p, 100.0 * t.lut_saving, within(p, 0.5)).digits = 1;
}

/// Table II cells and the headline ratios drawn from them. \[3\] and
/// \[3\]ᵃ are modeled (`F(2×2, 3×3)` at 16 and 43 PEs) against their
/// published records; \[12\] has no model, so its cells are the record
/// the table carries.
fn table2_rows(s: &mut Sheet, ev: &Evaluator) {
    let cols = table2(ev);
    let (qiu, podili_rec, podili_a_rec) = (qiu_fpga16(), podili_asap17(), podili_normalized());
    let col = |label: &str| cols.iter().find(|c| c.label == label).expect("column exists");
    let of_col = |c: &Table2Column| (c.conv_ms, c.overall_ms, c.throughput_gops, c.mult_efficiency);
    let of_rec =
        |r: &BaselineRecord| (r.conv_ms, r.overall_ms, r.throughput_gops, r.mult_efficiency);
    let of_model = |m: &Metrics| {
        let conv = std::array::from_fn(|g| m.group_latency_ms[g].1);
        (conv, m.total_latency_ms, m.throughput_gops, m.mult_efficiency)
    };
    let published = |i: usize| {
        let (conv, overall, gops, per_mult, _) = paper::TABLE2_OURS[i];
        (conv, overall, gops, per_mult)
    };
    let [podili, podili_a] =
        [16, 43].map(|p| ev.evaluate(&design(2, Architecture::PerPeTransform, p)));
    // (label, published, ours): Conv1…Conv5 ms, overall ms, GOPS, GOPS/mult.
    let columns = [
        ("[12]", of_rec(&qiu), of_col(col("[12]"))),
        ("[3]", of_rec(&podili_rec), of_model(&podili)),
        ("[3]a", of_rec(&podili_a_rec), of_model(&podili_a)),
        ("Ours 2,3", published(0), of_col(col("Ours 2,3"))),
        ("Ours 3,3", published(1), of_col(col("Ours 3,3"))),
        ("Ours 4,3", published(2), of_col(col("Ours 4,3"))),
    ];
    s.start("table2", 2);
    for (label, p, o) in columns {
        for (g, group) in ["Conv1", "Conv2", "Conv3", "Conv4", "Conv5"].iter().enumerate() {
            s.row(format!("{label} {group} (ms)"), p.0[g], o.0[g], within(p.0[g], 0.01));
        }
        s.row(format!("{label} overall (ms)"), p.1, o.1, within(p.1, 0.03));
        s.row(format!("{label} throughput (GOPS)"), p.2, o.2, within_rel(p.2, 0.001)).digits = 1;
        s.row(format!("{label} GOPS/mult"), p.3, o.3, within(p.3, 0.01));
    }
    for (i, m) in [2, 3, 4].into_iter().enumerate() {
        let (_, _, gops, _, p) = paper::TABLE2_OURS[i];
        // m = 2: the printed 13.03 W against the 14.98 W implied by the
        // paper's own GOPS/W row; the model must land between them (§8).
        let implied = gops / paper::TABLE2_OURS_2_3_GOPS_PER_W;
        let accept = if m == 2 { (p, implied) } else { within_rel(p, 0.02) };
        s.row(format!("Ours {m},3 power (W)"), p, col(&format!("Ours {m},3")).power_w, accept);
    }

    let m4 = col("Ours 4,3");
    let (gops, mults) = (m4.throughput_gops, f64::from(m4.multipliers));
    let podili_mults = f64::from(podili_rec.multipliers);
    s.start("claims", 3);
    for (label, p, ours, tol) in [
        ("throughput vs [3] (x)", paper::VS_PODILI[0], gops / podili.throughput_gops, 0.02),
        ("multipliers vs [3] (x)", paper::VS_PODILI[1], mults / podili_mults, 0.01),
        ("throughput vs [12] (x)", paper::VS_QIU[0], gops / qiu.throughput_gops, 0.02),
        ("multipliers vs [12] (x)", paper::VS_QIU[1], mults / f64::from(qiu.multipliers), 0.005),
    ] {
        s.row(label, p, ours, within(p, tol));
    }
    // The band brackets the two inconsistent m = 2 power entries (§8):
    // 1.44x at the implied 14.98 W, 1.66x at the printed 13.03 W.
    let gain = col("Ours 2,3").power_efficiency / podili_a_rec.power_efficiency;
    s.row("power efficiency vs [3]a (x)", paper::POWER_EFFICIENCY_VS_PODILI, gain, (1.40, 1.70));
}

/// Per-tile transform overhead relative to spatial multiplications
/// (Lavin's `F(2×2, 3×3)` counts, `P = 16`), then Eq. 7's whole-network
/// online transform work for the three Table II designs.
fn sec4c_rows(s: &mut Sheet, wl: &Workload) {
    let lavin = TransformOps::LAVIN_F2X2_3X3;
    let [ours, podili] = paper::OVERHEAD_RATIOS_P16;
    s.start("sec4c", 3);
    let shared = overhead_ratio_shared(params(2), lavin, 16.0);
    s.row("ours, P=16 (x spatial)", ours, shared, exact(1.5));
    s.row("[3] (x spatial)", podili, overhead_ratio_per_pe(params(2), lavin), exact(7.0 / 3.0));
    for (m, budget) in [(2, 688), (3, 700), (4, 684)] {
        let (params, ops) = (params(m), transform_ops_for(params(m), CostModel::ShiftFree));
        let p = pe_count(budget, params) as f64;
        let online = |l: &wino_core::Layer| {
            implementation_overhead(1, &l.shape, params, ops, p, TileModel::Fractional)
        };
        let total: f64 = wl.layers().iter().map(online).sum();
        let label = format!("Eq. 7 O_T F({m}x{m},3x3), P={p} (GFLOP)");
        s.row(label, None, total / 1e9, at_least(0.0)).digits = 2;
    }
}

fn extension_rows(s: &mut Sheet, wl: &Workload) {
    // Attainable GOPS per layer under dual DDR3-1600 for the m = 2 and
    // m = 4 Table II designs; the layers below the roof, also without
    // the Fig. 7 line buffer on one channel.
    s.start("roofline", 0);
    for (m, pes, memory_bound) in [(2, 43, 1.0), (4, 19, 4.0)] {
        let point = design(m, Architecture::SharedTransform, pes);
        let points = roofline(wl, &point, &ddr3_1600_x2(), true);
        for p in &points {
            let label = format!("F({m}x{m},3x3) x{pes} {} attainable (GOPS)", p.layer);
            s.row(label, None, p.attainable_gops, (0.0, p.peak_gops));
        }
        let count = points.iter().filter(|p| !p.compute_bound).count() as f64;
        let label = format!("F({m}x{m},3x3) x{pes} memory-bound layers");
        s.row(label, None, count, exact(memory_bound));
    }
    let point = design(4, Architecture::SharedTransform, 19);
    let count =
        roofline(wl, &point, &ddr3_1600(), false).iter().filter(|p| !p.compute_bound).count();
    let label = "F(4x4,3x3) x19 no line buffer, 1 channel memory-bound layers";
    s.row(label, None, count as f64, exact(5.0));

    // Cycle-level simulation of the Fig. 7 system: one layer per VGG16-D
    // group, channels scaled down 8x, through the 19-PE F(4x4, 3x3)
    // engine. Cycles must equal Eq. 9, outputs direct convolution.
    s.start("engine", 0);
    let mut rng = SplitMix64::new(42);
    let mut random = |shape: Shape4, bound: f32| {
        Tensor4::from_fn(shape, |_, _, _, _| rng.uniform_f32(-bound, bound))
    };
    let engine = WinogradEngine::new(EngineConfig::proposed(params(4), 19)).expect("generates");
    for (group, hw, c, k) in
        [(1, 56, 8, 8), (2, 28, 16, 16), (3, 28, 32, 32), (4, 14, 64, 64), (5, 14, 64, 64)]
    {
        let input = random(Shape4 { n: 1, c, h: hw, w: hw }, 1.0);
        let kernels = random(Shape4 { n: k, c, h: 3, w: 3 }, 0.25);
        let (out, report) = engine.run_layer(&input, &kernels, 1);
        let err =
            ErrorStats::between(out.as_slice(), spatial_convolve(&input, &kernels, 1).as_slice());
        let eq9 = engine.predicted_cycles(input.shape(), k, 1) as f64;
        s.row(format!("conv{group}-style cycles"), None, report.cycles as f64, exact(eq9));
        let label = format!("conv{group}-style max|err| (x1e-6)");
        s.row(label, None, err.max_abs * 1e6, (0.0, 1e3)).digits = 2;
    }

    // fp32 accuracy vs tile size (seeded, 512 tiles per m): the largest
    // transform entry and the error against fp64 direct correlation
    // both grow with m, which is why the paper stops at m = 4.
    s.start("error_growth", 1);
    let points = error_growth(3, &[2, 3, 4, 5, 6, 7, 8], 512, 2019);
    for (i, p) in points.iter().enumerate() {
        let m = p.m;
        s.row(format!("F({m},3) max transform entry"), None, p.max_transform_entry, at_least(1.0));
        let label = format!("F({m},3) max|err| (x1e-6)");
        s.row(label, None, p.stats.max_abs * 1e6, (0.0, 1e3)).digits = 4;
        if let Some(prev) = i.checked_sub(1).map(|j| &points[j]) {
            let growth = p.stats.max_abs / prev.stats.max_abs;
            let label = format!("F({m},3) max|err| over F({},3) (x)", prev.m);
            s.row(label, None, growth, at_least(1.0));
        }
    }

    // The per-tile transform FLOPs derived from the generated matrices
    // (the paper leaves its own unpublished); at m = 2 the shift-free
    // model gives Lavin's 32/28/24.
    s.start("transform_ops", 0);
    let lavin = TransformOps::LAVIN_F2X2_3X3;
    for model in [CostModel::Naive, CostModel::ShiftFree, CostModel::RowFactored] {
        for (m, ops) in transform_ops_series(model) {
            let lavin_row = m == 2 && model == CostModel::ShiftFree;
            for (what, ours, lavin) in [
                ("beta", ops.beta, lavin.beta),
                ("gamma", ops.gamma, lavin.gamma),
                ("delta", ops.delta, lavin.delta),
            ] {
                let (ours, lavin) = (ours as f64, lavin as f64);
                let accept = if lavin_row { exact(lavin) } else { at_least(1.0) };
                s.row(
                    format!("{model} F({m}x{m},3x3) {what}"),
                    lavin_row.then_some(lavin),
                    ours,
                    accept,
                );
            }
        }
    }
}

/// Renders one ASCII table per artifact, each row at its own precision.
pub fn to_ascii(rows: &[Row]) -> String {
    let mut out = String::new();
    for group in rows.chunk_by(|a, b| a.artifact == b.artifact) {
        let mut table =
            TextTable::new(vec!["row", "published", "ours", "deviation", "accept", "ok"]);
        for r in group {
            let d = r.digits;
            let bound = |v: f64| if v.is_finite() { fmt_f(v, d) } else { "inf".to_owned() };
            table.push_row(vec![
                r.row.clone(),
                r.published.map_or("-".to_owned(), |p| fmt_f(p, d)),
                fmt_f(r.ours, d),
                r.deviation().map_or("-".to_owned(), |dev| format!("{dev:+.1}%")),
                format!("[{}, {}]", bound(r.accept.0), bound(r.accept.1)),
                if r.passes() { "yes" } else { "NO" }.to_owned(),
            ]);
        }
        out.push_str(&format!("=== {} ===\n{}\n", group[0].artifact, table.to_ascii()));
    }
    out
}

/// Renders the `PAPER_results.json` document, one object per row:
/// `deviation` in percent, and `null` for a missing published value or
/// deviation and for an unbounded end of `accept`.
pub fn to_json(rows: &[Row]) -> String {
    let num = |v: f64| if v.is_finite() { format!("{v}") } else { "null".to_owned() };
    let opt = |v: Option<f64>| v.map_or("null".to_owned(), num);
    let object = |r: &Row| {
        let (artifact, row) = (json_escape(r.artifact), json_escape(&r.row));
        let (published, ours, deviation) = (opt(r.published), num(r.ours), opt(r.deviation()));
        let (lo, hi) = (num(r.accept.0), num(r.accept.1));
        format!("    {{\"artifact\": \"{artifact}\", \"row\": \"{row}\", \"published\": {published}, \"ours\": {ours}, \"deviation\": {deviation}, \"accept\": [{lo}, {hi}]}}")
    };
    let rows: Vec<String> = rows.iter().map(object).collect();
    format!(
        "{{\n  \"paper\": \"Ahmad & Pasha, DATE 2019\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_row_renders_at_its_own_precision() {
        // Registers print as integers and the LUT saving at one decimal
        // in the same table: the saving reads 53.6, not 54.
        let mut s = Sheet::default();
        table1_rows(&mut s, &virtex7_485t());
        let text = to_ascii(&s.rows);
        let saving = text.lines().find(|l| l.contains("LUT saving")).expect("row rendered");
        let cells: Vec<&str> = saving.split('|').map(str::trim).collect();
        assert_eq!(cells[2..4], ["53.6", "53.6"], "{saving}");
        let registers = text.lines().find(|l| l.contains("[3]-based registers")).expect("row");
        assert!(registers.contains(" 97052 |") && registers.contains(" 96083 |"), "{registers}");
    }
}
