//! Regeneration of the paper's figures (data series, not pixels).
//!
//! Each generator returns a [`SeriesFigure`] whose series can be printed
//! next to the paper's published values (embedded in [`paper`]) —
//! `wino_bench::paper` does exactly that.

use crate::{fmt_f, TextTable};
use wino_core::{transform_ops_for, CostModel, TileModel, TransformOps, WinogradParams, Workload};

/// A figure as labelled data series over a shared x-axis.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesFigure {
    /// Figure title.
    pub title: String,
    /// X-axis tick labels.
    pub x_labels: Vec<String>,
    /// `(series name, values)` pairs, one value per x tick.
    pub series: Vec<(String, Vec<f64>)>,
}

impl SeriesFigure {
    /// Renders the figure as an aligned text table (x ticks as rows).
    pub fn to_table(&self, digits: usize) -> TextTable {
        let mut headers = vec!["x".to_owned()];
        headers.extend(self.series.iter().map(|(name, _)| name.clone()));
        let mut table = TextTable::new(headers);
        for (i, x) in self.x_labels.iter().enumerate() {
            let mut row = vec![x.clone()];
            row.extend(self.series.iter().map(|(_, vs)| fmt_f(vs[i], digits)));
            table.push_row(row);
        }
        table
    }
}

/// The paper's published figure values, embedded as golden references.
pub mod paper {
    /// Fig. 1 series (multiplications ×10⁹ per VGG16-D group): rows are
    /// spatial, F(2)…F(7); columns Conv1…Conv5.
    pub const FIG1: [[f64; 5]; 7] = [
        [1.936, 2.775, 4.624, 4.624, 1.387],
        [0.861, 1.233, 2.055, 2.055, 0.617],
        [0.598, 0.857, 1.428, 1.428, 0.429],
        [0.484, 0.694, 1.156, 1.156, 0.347],
        [0.422, 0.604, 1.007, 1.007, 0.302],
        [0.383, 0.549, 0.915, 0.915, 0.274],
        [0.356, 0.510, 0.849, 0.849, 0.255],
    ];

    /// Fig. 2: net transform complexity in MFLOPs for m = 2…7.
    pub const FIG2_MFLOPS: [f64; 6] = [156.0, 196.0, 207.0, 272.0, 304.0, 408.0];

    /// Fig. 3: percentage decrease in multiplication complexity, m = 2…7.
    /// (The m = 2 bar prints 56.25 in the paper; the successive formula
    /// that generates every other bar yields 55.56 — see DESIGN.md §8.)
    pub const FIG3_MULT_DECREASE: [f64; 6] = [56.25, 30.56, 19.00, 12.89, 9.30, 7.02];

    /// Fig. 3: percentage increase in transform complexity, m = 2…7.
    pub const FIG3_TRANSFORM_INCREASE: [f64; 6] = [0.0, 25.59, 5.58, 31.31, 11.68, 34.27];

    /// Fig. 6 throughput (GOPS) at 200 MHz: rows are 256/512/1024
    /// multipliers; columns spatial, F(2)…F(7).
    pub const FIG6_GOPS: [[f64; 7]; 3] = [
        [100.80, 230.40, 331.78, 409.60, 470.21, 518.40, 557.56],
        [201.60, 460.80, 663.50, 819.19, 940.41, 1036.80, 1115.11],
        [403.20, 921.59, 1327.11, 1638.38, 1880.82, 2073.60, 2230.23],
    ];

    /// Table I: registers, LUTs, DSPs at 19 PEs, \[3\]-based then proposed.
    pub const TABLE1: [[u32; 3]; 2] = [[97_052, 232_256, 2_736], [76_500, 107_839, 2_736]];

    /// Table I / abstract: LUT saving of the proposed design, percent.
    pub const TABLE1_LUT_SAVING_PCT: f64 = 53.6;

    /// Table II, columns `Ours 2,3`…`Ours 4,3`: Conv1…Conv5 ms, overall ms,
    /// GOPS, GOPS per multiplier, W (baseline columns: `crate::qiu_fpga16`…).
    pub const TABLE2_OURS: [([f64; 5], f64, f64, f64, f64); 3] = [
        ([6.25, 8.96, 14.94, 14.94, 4.48], 49.57, 619.2, 0.90, 13.03),
        ([4.27, 6.12, 10.19, 10.19, 3.06], 33.83, 907.2, 1.29, 23.96),
        ([3.54, 5.07, 8.45, 8.45, 2.54], 28.05, 1094.3, 1.60, 36.32),
    ];

    /// Table II, `Ours 2,3` GOPS/W: implies 14.98 W, not the printed 13.03.
    pub const TABLE2_OURS_2_3_GOPS_PER_W: f64 = 41.34;

    /// Abstract: the m = 4 design's throughput and multipliers over \[3\].
    pub const VS_PODILI: [f64; 2] = [4.75, 2.67];

    /// Abstract: the m = 2 design's power efficiency over \[3\]ᵃ.
    pub const POWER_EFFICIENCY_VS_PODILI: f64 = 1.44;

    /// Conclusion: the m = 4 design's throughput and multipliers over \[12\].
    pub const VS_QIU: [f64; 2] = [5.83, 0.88];

    /// Sec. IV-A: outputs and multipliers per PE, `F(3×3)` over `F(2×2)`.
    pub const PE_RATIOS: [f64; 2] = [2.25, 1.56];

    /// Sec. IV-C: transform overhead over spatial at `P = 16`: ours, \[3\].
    pub const OVERHEAD_RATIOS_P16: [f64; 2] = [1.5, 2.33];
}

fn f_label(m: usize) -> String {
    format!("F({m}x{m},3x3)")
}

/// Fig. 1: multiplication complexity per VGG16-D group for spatial
/// convolution and `F(m×m, 3×3)`, m = 2…7 (Eq. 4).
///
/// ```
/// use wino_dse::fig1;
/// use wino_models::vgg16d;
///
/// let fig = fig1(&vgg16d(1));
/// assert_eq!(fig.x_labels, ["Conv1", "Conv2", "Conv3", "Conv4", "Conv5"]);
/// // Spatial Conv1 bar: 1.936e9 multiplications (Fig. 1's tallest bar).
/// assert!((fig.series[0].1[0] - 1.936).abs() < 0.001);
/// ```
pub fn fig1(workload: &Workload) -> SeriesFigure {
    let x_labels: Vec<String> = workload.groups().iter().map(|(g, _)| (*g).to_owned()).collect();
    let mut series = Vec::new();
    for m in 1..=7usize {
        let params = WinogradParams::new(m, 3).expect("valid m");
        let label = if m == 1 { "Spatial".to_owned() } else { f_label(m) };
        let values = workload
            .group_mults(params, TileModel::Fractional)
            .into_iter()
            .map(|(_, v)| v / 1e9)
            .collect();
        series.push((label, values));
    }
    SeriesFigure { title: "Fig. 1: multiplication complexity (x1e9)".into(), x_labels, series }
}

/// Per-m transform-ops table used by Figs. 2/3: the β/γ/δ constants under
/// `cost_model`, for m = 2…7 (r = 3).
pub fn transform_ops_series(cost_model: CostModel) -> Vec<(usize, TransformOps)> {
    (2..=7)
        .map(|m| (m, transform_ops_for(WinogradParams::new(m, 3).expect("valid m"), cost_model)))
        .collect()
}

/// Fig. 2: net transform complexity `O_t` over VGG16-D vs m (Eqs. 5–6).
///
/// Matches the paper's convention of counting the *online* transforms
/// (data + inverse; the filter transform is precomputed, Sec. IV-A/C).
pub fn fig2(workload: &Workload, cost_model: CostModel) -> SeriesFigure {
    let mut ours = Vec::new();
    for (m, ops) in transform_ops_series(cost_model) {
        let params = WinogradParams::new(m, 3).expect("valid m");
        let b = workload.transform_complexity(params, ops, TileModel::Fractional);
        ours.push(b.online_total() / 1e6);
    }
    SeriesFigure {
        title: format!("Fig. 2: net transform complexity (MFLOPs, {cost_model} cost model)"),
        x_labels: (2..=7).map(f_label).collect(),
        series: vec![
            ("This reproduction".into(), ours),
            ("Paper".into(), paper::FIG2_MFLOPS.to_vec()),
        ],
    }
}

/// Fig. 3: successive percentage changes — the decrease in multiplication
/// complexity and the increase in transform complexity when going from
/// `m − 1` to `m`.
pub fn fig3(workload: &Workload, cost_model: CostModel) -> SeriesFigure {
    let mults: Vec<f64> = (1..=7)
        .map(|m| {
            workload
                .winograd_mults(WinogradParams::new(m, 3).expect("valid m"), TileModel::Fractional)
        })
        .collect();
    let mult_decrease: Vec<f64> = mults.windows(2).map(|w| 100.0 * (1.0 - w[1] / w[0])).collect();

    let transforms: Vec<f64> = transform_ops_series(cost_model)
        .into_iter()
        .map(|(m, ops)| {
            let params = WinogradParams::new(m, 3).expect("valid m");
            workload.transform_complexity(params, ops, TileModel::Fractional).online_total()
        })
        .collect();
    let mut transform_increase = vec![0.0];
    transform_increase.extend(transforms.windows(2).map(|w| 100.0 * (w[1] / w[0] - 1.0)));

    SeriesFigure {
        title: format!("Fig. 3: percentage variations of complexities ({cost_model} cost model)"),
        x_labels: (2..=7).map(f_label).collect(),
        series: vec![
            ("% mult decrease".into(), mult_decrease),
            ("% transform increase".into(), transform_increase),
            ("Paper % mult decrease".into(), paper::FIG3_MULT_DECREASE.to_vec()),
            ("Paper % transform increase".into(), paper::FIG3_TRANSFORM_INCREASE.to_vec()),
        ],
    }
}

/// Fig. 6: throughput vs output tile size for 256/512/1024 multipliers at
/// 200 MHz.
///
/// Replicates the paper's exact accounting: Winograd points use the
/// *continuous* `P = m_T/(m+r−1)²` (the 331.78 GOPS at m = 3 implies
/// P = 10.24), while the spatial series uses the floored 28-PE design at
/// 256 multipliers scaled linearly with the budget (its 1024-multiplier
/// value is 403.2 = 4 × 100.8, not the 406.8 that `⌊1024/9⌋ = 113` PEs
/// would give).
pub fn fig6(workload: &Workload, freq_hz: f64) -> SeriesFigure {
    let budgets = [256usize, 512, 1024];
    let gop = workload.spatial_gop();
    let mut series = Vec::new();
    for &budget in &budgets {
        let mut values = Vec::new();
        for m in 1..=7usize {
            let params = WinogradParams::new(m, 3).expect("valid m");
            let p = if m == 1 {
                (wino_core::pe_count(256, params) * budget / 256) as f64
            } else {
                wino_core::pe_count_continuous(budget, params)
            };
            let latency: f64 =
                workload.latency_seconds(params, p, 1, freq_hz, TileModel::Fractional);
            values.push(gop / latency);
        }
        series.push((format!("{budget} multipliers"), values));
    }
    let mut x_labels = vec!["Spatial".to_owned()];
    x_labels.extend((2..=7).map(f_label));
    // Transpose to match the x-axis (series per budget, x per method).
    SeriesFigure {
        title: "Fig. 6: throughput (GOPS) vs convolution method".into(),
        x_labels,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_models::vgg16d;

    #[test]
    fn fig2_is_monotonically_increasing_and_in_paper_range() {
        // Shift-free is the paper's hardware cost model ("implemented
        // using shifters and adders") and tracks Fig. 2's shape best.
        let fig = fig2(&vgg16d(1), CostModel::ShiftFree);
        let ours = &fig.series[0].1;
        for w in ours.windows(2) {
            assert!(w[1] > w[0], "O_t must increase with m: {ours:?}");
        }
        // Anchor: at m = 2 every cost model reproduces Lavin's counts
        // (beta 32, delta 24), landing within ~2% of the paper's 156.
        assert!((ours[0] - 156.0).abs() / 156.0 < 0.02, "got {}", ours[0]);
        // Shape: paper series spans 156→408 (2.6x); ours must grow by a
        // comparable factor over the same range.
        let growth = ours[5] / ours[0];
        let paper_growth = paper::FIG2_MFLOPS[5] / paper::FIG2_MFLOPS[0];
        assert!(
            (growth / paper_growth - 1.0).abs() < 0.5,
            "growth {growth:.2} vs paper {paper_growth:.2}"
        );
    }

    #[test]
    fn fig3_transform_increase_zigzags_like_paper() {
        // The paper's transform-increase bars alternate small/large
        // (5.58 at m=4 vs 31.31 at m=5): the even-m algorithms reuse ±
        // point pairs more effectively. Our derived series must show the
        // same parity pattern even though absolute percentages differ.
        let fig = fig3(&vgg16d(1), CostModel::ShiftFree);
        let inc = &fig.series[1].1;
        assert_eq!(inc[0], 0.0);
        assert!(inc.iter().skip(1).all(|&v| v > 0.0), "{inc:?}");
        // Paper pattern: inc(m=4) < inc(m=3) and inc(m=5) > inc(m=4).
        assert!(inc[2] < inc[1], "m=4 increase should dip below m=3: {inc:?}");
        assert!(inc[3] > inc[2], "m=5 increase should exceed m=4: {inc:?}");
    }

    #[test]
    fn fig3_crossover_at_m5() {
        // Sec. III-C: at m=4 the mult saving (19%) still beats the
        // transform increase; from m=5 the transform increase dominates.
        // This reproduces under the shift-free hardware cost model
        // (m=4: 10.9% < 19.0%; m=5: 43.7% > 12.9%).
        let fig = fig3(&vgg16d(1), CostModel::ShiftFree);
        let dec = &fig.series[0].1;
        let inc = &fig.series[1].1;
        assert!(dec[2] > inc[2], "m=4 must still be favorable: {} vs {}", dec[2], inc[2]);
        assert!(inc[3] > dec[3], "m=5 must be unfavorable: {} vs {}", inc[3], dec[3]);
    }

    #[test]
    fn figure_table_rendering() {
        let fig = fig6(&vgg16d(1), 200e6);
        let table = fig.to_table(2);
        assert_eq!(table.len(), 7);
        let text = table.to_ascii();
        assert!(text.contains("Spatial"));
        assert!(text.contains("230.40"));
    }
}
