//! Multi-objective Pareto archive.
//!
//! The paper reports a two-axis trade-off (throughput vs power
//! efficiency, Table II) and picks a single winner per axis. The archive
//! generalizes that: every feasible evaluated design is offered to it,
//! and it retains exactly the non-dominated set over the five-axis
//! objective vector of [`Evaluation::objectives`].

use crate::{Evaluation, Genome, SearchObjective};
use std::fmt;

/// One retained non-dominated design.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchiveEntry {
    /// The design's genome.
    pub genome: Genome,
    /// Its evaluation.
    pub evaluation: Evaluation,
}

/// The non-dominated set of all designs offered via
/// [`ParetoArchive::insert`].
#[derive(Debug, Clone, Default)]
pub struct ParetoArchive {
    entries: Vec<ArchiveEntry>,
}

impl ParetoArchive {
    /// An empty archive.
    pub fn new() -> ParetoArchive {
        ParetoArchive::default()
    }

    /// Offers a design. Returns `true` when it was retained: feasible,
    /// not dominated by (or objective-identical to) a retained entry.
    /// Entries the newcomer dominates are evicted.
    ///
    /// Dominance is judged over the **five-axis** objective vector of
    /// [`Evaluation::objectives`] — throughput, power efficiency,
    /// (negated) latency, resource head-room, and (negated) datapath
    /// quantization error (DESIGN.md §7) — so a
    /// design that trades throughput for head-room coexists with the
    /// throughput winner instead of displacing it:
    ///
    /// ```
    /// use wino_search::{Evaluation, ParetoArchive};
    /// use wino_fpga::ResourceUsage;
    ///
    /// let eval = |thr: f64, head: f64| Evaluation {
    ///     throughput_gops: thr,
    ///     power_efficiency: 10.0,
    ///     latency_ms: 1.0,
    ///     power_w: 10.0,
    ///     headroom: head,
    ///     quant_error: 0.0,
    ///     resources: ResourceUsage::default(),
    ///     feasible: true,
    /// };
    /// let mut archive = ParetoArchive::new();
    /// assert!(archive.insert(vec![0], eval(1000.0, 0.1)));
    /// assert!(archive.insert(vec![1], eval(800.0, 0.4)), "head-room trade-off retained");
    /// assert!(!archive.insert(vec![2], eval(900.0, 0.05)), "dominated on all five axes");
    /// assert_eq!(archive.len(), 2);
    /// ```
    pub fn insert(&mut self, genome: Genome, evaluation: Evaluation) -> bool {
        self.offer(&genome, evaluation)
    }

    /// [`ParetoArchive::insert`] for a borrowed genome, copied only when
    /// the design is retained.
    pub(crate) fn offer(&mut self, genome: &[usize], evaluation: Evaluation) -> bool {
        if !evaluation.feasible {
            return false;
        }
        let objectives = evaluation.objectives();
        if self
            .entries
            .iter()
            .any(|e| e.evaluation.dominates(&evaluation) || e.evaluation.objectives() == objectives)
        {
            return false;
        }
        self.entries.retain(|e| !evaluation.dominates(&e.evaluation));
        self.entries.push(ArchiveEntry { genome: genome.to_vec(), evaluation });
        true
    }

    /// Retained entries in insertion order.
    pub fn entries(&self) -> &[ArchiveEntry] {
        &self.entries
    }

    /// Number of retained designs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The retained design maximizing `objective` (first-retained wins
    /// ties, keeping results deterministic).
    pub fn best_by(&self, objective: SearchObjective) -> Option<&ArchiveEntry> {
        let mut best: Option<&ArchiveEntry> = None;
        for entry in &self.entries {
            let better = match best {
                None => true,
                Some(b) => objective.score(&entry.evaluation) > objective.score(&b.evaluation),
            };
            if better {
                best = Some(entry);
            }
        }
        best
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: ParetoArchive) {
        for entry in other.entries {
            self.insert(entry.genome, entry.evaluation);
        }
    }
}

impl fmt::Display for ParetoArchive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Pareto archive ({} designs):", self.len())?;
        for entry in &self.entries {
            writeln!(f, "  {}", entry.evaluation)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_fpga::ResourceUsage;

    fn eval(thr: f64, eff: f64) -> Evaluation {
        Evaluation {
            throughput_gops: thr,
            power_efficiency: eff,
            latency_ms: 1.0,
            power_w: 1.0,
            headroom: 0.5,
            quant_error: 0.0,
            resources: ResourceUsage::default(),
            feasible: true,
        }
    }

    #[test]
    fn keeps_tradeoffs_drops_dominated() {
        let mut archive = ParetoArchive::new();
        assert!(archive.insert(vec![0], eval(100.0, 10.0)));
        assert!(archive.insert(vec![1], eval(50.0, 20.0)), "trade-off retained");
        assert!(!archive.insert(vec![2], eval(40.0, 5.0)), "dominated rejected");
        assert_eq!(archive.len(), 2);
        // A new design dominating the first evicts it.
        assert!(archive.insert(vec![3], eval(120.0, 12.0)));
        assert_eq!(archive.len(), 2);
        assert!(archive.entries().iter().all(|e| e.genome != vec![0]));
    }

    #[test]
    fn rejects_infeasible_and_duplicates() {
        let mut archive = ParetoArchive::new();
        let mut bad = eval(1e6, 1e6);
        bad.feasible = false;
        assert!(!archive.insert(vec![0], bad));
        assert!(archive.is_empty());
        assert!(archive.insert(vec![1], eval(10.0, 10.0)));
        assert!(!archive.insert(vec![2], eval(10.0, 10.0)), "objective-identical rejected");
        assert_eq!(archive.len(), 1);
    }

    #[test]
    fn best_by_is_deterministic_on_ties() {
        let mut archive = ParetoArchive::new();
        // Equal throughput, trade-off between efficiency and latency, so
        // neither dominates and both stay in the archive.
        let mut slow_efficient = eval(100.0, 20.0);
        slow_efficient.latency_ms = 2.0;
        archive.insert(vec![0], eval(100.0, 10.0));
        archive.insert(vec![1], slow_efficient);
        assert_eq!(archive.len(), 2);
        let best = archive.best_by(SearchObjective::Throughput).expect("non-empty");
        assert_eq!(best.genome, vec![0], "first retained wins the tie");
        let eff = archive.best_by(SearchObjective::PowerEfficiency).expect("non-empty");
        assert_eq!(eff.genome, vec![1]);
    }

    #[test]
    fn merge_preserves_invariant() {
        let mut a = ParetoArchive::new();
        a.insert(vec![0], eval(100.0, 10.0));
        let mut b = ParetoArchive::new();
        b.insert(vec![1], eval(120.0, 12.0));
        b.insert(vec![2], eval(10.0, 50.0));
        a.merge(b);
        assert_eq!(a.len(), 2);
        for i in 0..a.entries().len() {
            for j in 0..a.entries().len() {
                if i != j {
                    assert!(!a.entries()[i].evaluation.dominates(&a.entries()[j].evaluation));
                }
            }
        }
        let text = a.to_string();
        assert!(text.contains("Pareto archive (2 designs)"));
    }
}
