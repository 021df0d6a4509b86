//! Regeneration of the paper's tables.

use crate::{
    fmt_f, podili_asap17, podili_normalized, qiu_fpga16, DesignPoint, Evaluator, Provenance,
    TextTable,
};
use wino_core::WinogradParams;
use wino_fpga::{Architecture, EngineResources, FpgaDevice, ResourceUsage};

/// The data of Table I: resource utilization of the 19-PE `F(4×4, 3×3)`
/// engine in both architectures, plus device capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// The \[3\]-based design (per-PE data transform).
    pub reference: ResourceUsage,
    /// The proposed design (shared data transform).
    pub proposed: ResourceUsage,
    /// Device capacities.
    pub available: ResourceUsage,
    /// LUT saving of proposed vs reference (the paper's 53.6%).
    pub lut_saving: f64,
}

/// Builds Table I for the given device (the paper's Virtex-7).
///
/// ```
/// use wino_dse::table1;
/// use wino_fpga::virtex7_485t;
///
/// let t = table1(&virtex7_485t());
/// // The paper's headline: ~54% fewer LUTs than the [3]-based design.
/// assert!((t.lut_saving - 0.536).abs() < 0.01);
/// assert_eq!(t.proposed.multipliers, 684);
/// ```
///
/// # Panics
///
/// Panics only on transform-generation failure (impossible for
/// `F(4×4, 3×3)`).
pub fn table1(device: &FpgaDevice) -> Table1 {
    let est = EngineResources::new(WinogradParams::new(4, 3).expect("valid")).expect("generates");
    let proposed = est.estimate(Architecture::SharedTransform, 19);
    let reference = est.estimate(Architecture::PerPeTransform, 19);
    Table1 {
        lut_saving: 1.0 - proposed.luts as f64 / reference.luts as f64,
        reference,
        proposed,
        available: ResourceUsage {
            luts: device.luts,
            registers: device.registers,
            dsps: device.dsps,
            multipliers: device.max_f32_mults(),
        },
    }
}

impl Table1 {
    /// Renders the paper's Table I layout.
    pub fn to_text(&self) -> TextTable {
        let mut t = TextTable::new(vec!["Design", "Registers", "LUTs", "DSPs", "Multipliers"]);
        for (label, u) in [
            ("Design based on [3]", &self.reference),
            ("Our proposed design", &self.proposed),
            ("Available resources", &self.available),
        ] {
            t.push_row(vec![
                label.to_owned(),
                u.registers.to_string(),
                u.luts.to_string(),
                u.dsps.to_string(),
                u.multipliers.to_string(),
            ]);
        }
        t
    }
}

/// One column of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Column {
    /// Column label.
    pub label: String,
    /// `(m, r)` when applicable.
    pub m_r: Option<(usize, usize)>,
    /// Multipliers used.
    pub multipliers: u32,
    /// PE count when applicable.
    pub pe_count: Option<u32>,
    /// Datapath precision in bits.
    pub precision_bits: u32,
    /// Clock in MHz.
    pub freq_mhz: f64,
    /// Conv1…Conv5 latencies in ms.
    pub conv_ms: [f64; 5],
    /// Whole-network latency in ms.
    pub overall_ms: f64,
    /// Throughput in GOPS.
    pub throughput_gops: f64,
    /// GOPS per multiplier.
    pub mult_efficiency: f64,
    /// Power in watts.
    pub power_w: f64,
    /// GOPS/W.
    pub power_efficiency: f64,
    /// Provenance of the power value.
    pub power_provenance: Provenance,
}

/// Builds all six Table II columns: the three published baselines and the
/// three proposed designs evaluated by our models.
///
/// ```
/// use wino_dse::{table2, Evaluator};
/// use wino_fpga::virtex7_485t;
/// use wino_models::vgg16d;
///
/// let columns = table2(&Evaluator::new(vgg16d(1), virtex7_485t()));
/// assert_eq!(columns.len(), 6);
/// let m4 = columns.last().unwrap(); // "Ours 4,3"
/// assert!((m4.overall_ms - 28.05).abs() < 0.05);
/// assert!((m4.throughput_gops - 1094.3).abs() < 2.0);
/// ```
pub fn table2(evaluator: &Evaluator) -> Vec<Table2Column> {
    let mut columns: Vec<Table2Column> = [qiu_fpga16(), podili_asap17(), podili_normalized()]
        .into_iter()
        .map(|b| Table2Column {
            label: b.label.to_owned(),
            m_r: b.m_r,
            multipliers: b.multipliers,
            pe_count: b.pe_count,
            precision_bits: b.precision_bits,
            freq_mhz: b.freq_mhz,
            conv_ms: b.conv_ms,
            overall_ms: b.overall_ms,
            throughput_gops: b.throughput_gops,
            mult_efficiency: b.mult_efficiency,
            power_w: b.power_w,
            power_efficiency: b.power_efficiency,
            power_provenance: b.power_provenance,
        })
        .collect();

    for (m, pes) in [(2usize, 43usize), (3, 28), (4, 19)] {
        let point = DesignPoint {
            params: WinogradParams::new(m, 3).expect("valid"),
            arch: Architecture::SharedTransform,
            pe_count: pes,
            freq_hz: 200e6,
            pipeline_depth: 8,
        };
        let metrics = evaluator.evaluate(&point);
        let mut conv_ms = [0.0; 5];
        for (slot, (_, ms)) in conv_ms.iter_mut().zip(&metrics.group_latency_ms) {
            *slot = *ms;
        }
        columns.push(Table2Column {
            label: format!("Ours {m},3"),
            m_r: Some((m, 3)),
            multipliers: point.multipliers() as u32,
            pe_count: Some(pes as u32),
            precision_bits: 32,
            freq_mhz: 200.0,
            conv_ms,
            overall_ms: metrics.total_latency_ms,
            throughput_gops: metrics.throughput_gops,
            mult_efficiency: metrics.mult_efficiency,
            power_w: metrics.power_w,
            power_efficiency: metrics.power_efficiency,
            power_provenance: Provenance::Computed,
        });
    }
    columns
}

/// Renders Table II in the paper's orientation (metrics as rows, designs
/// as columns).
pub fn table2_text(columns: &[Table2Column]) -> TextTable {
    let mut headers = vec!["Metric".to_owned()];
    headers.extend(columns.iter().map(|c| c.label.clone()));
    let mut t = TextTable::new(headers);
    let mut push = |name: &str, values: Vec<String>| {
        let mut row = vec![name.to_owned()];
        row.extend(values);
        t.push_row(row);
    };
    push(
        "m,r",
        columns.iter().map(|c| c.m_r.map_or("-".into(), |(m, r)| format!("{m},{r}"))).collect(),
    );
    push("Multipliers", columns.iter().map(|c| c.multipliers.to_string()).collect());
    push("PEs", columns.iter().map(|c| c.pe_count.map_or("-".into(), |p| p.to_string())).collect());
    push("Precision (bits)", columns.iter().map(|c| c.precision_bits.to_string()).collect());
    push("Freq (MHz)", columns.iter().map(|c| fmt_f(c.freq_mhz, 0)).collect());
    for (gi, name) in ["Conv1", "Conv2", "Conv3", "Conv4", "Conv5"].iter().enumerate() {
        push(&format!("{name} (ms)"), columns.iter().map(|c| fmt_f(c.conv_ms[gi], 2)).collect());
    }
    push("Overall (ms)", columns.iter().map(|c| fmt_f(c.overall_ms, 2)).collect());
    push("Throughput (GOPS)", columns.iter().map(|c| fmt_f(c.throughput_gops, 1)).collect());
    push("GOPS/multiplier", columns.iter().map(|c| fmt_f(c.mult_efficiency, 2)).collect());
    push("Power (W)", columns.iter().map(|c| fmt_f(c.power_w, 2)).collect());
    push("GOPS/W", columns.iter().map(|c| fmt_f(c.power_efficiency, 2)).collect());
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_fpga::virtex7_485t;
    use wino_models::vgg16d;

    fn evaluator() -> Evaluator {
        Evaluator::new(vgg16d(1), virtex7_485t())
    }

    #[test]
    fn table1_reproduces_paper_rows() {
        // The design rows' published counts are `wino_bench::paper` rows.
        let t = table1(&virtex7_485t());
        assert_eq!(t.available.luts, 303_600);
        assert_eq!(t.available.multipliers, 700);
        let text = t.to_text().to_ascii();
        assert!(text.contains("232256"));
        assert!(text.contains("Available resources"));
    }

    #[test]
    fn table2_has_six_columns_in_paper_order() {
        let cols = table2(&evaluator());
        let labels: Vec<&str> = cols.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels, vec!["[12]", "[3]", "[3]a", "Ours 2,3", "Ours 3,3", "Ours 4,3"]);
    }

    #[test]
    fn our_powers_are_modelled_near_paper_values() {
        // Every power cell is a `wino_bench::paper` row, m = 3 and 4 at
        // ±2 %. The m = 2 row accepts the band up to the 14.98 W the
        // paper's GOPS/W row implies, so its tighter bound on the printed
        // 13.03 W stays here.
        let cols = table2(&evaluator());
        let col = |label: &str| cols.iter().find(|c| c.label == label).expect("column exists");
        for label in ["Ours 2,3", "Ours 3,3", "Ours 4,3"] {
            assert_eq!(col(label).power_provenance, Provenance::Computed);
        }
        let watts = col("Ours 2,3").power_w;
        assert!((watts - 13.03).abs() / 13.03 < 0.03, "modelled {watts:.2} W vs paper 13.03 W");
    }

    #[test]
    fn rendered_table_contains_key_numbers() {
        let text = table2_text(&table2(&evaluator())).to_ascii();
        assert!(text.contains("133.22"), "published [3] latency");
        assert!(text.contains("28.0"), "our m=4 latency");
        assert!(text.contains("1094"), "our m=4 throughput");
        assert!(text.contains("Precision"));
    }
}
