//! Simulation outputs: per-layer and whole-network performance reports.

use std::fmt;

/// Energy breakdown by memory-hierarchy level (all in pJ).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// MAC / vector arithmetic energy.
    pub compute_pj: f64,
    /// PE register-file energy.
    pub rbuf_pj: f64,
    /// Array NoC energy.
    pub noc_pj: f64,
    /// Global-buffer energy.
    pub gbuf_pj: f64,
    /// DRAM energy.
    pub dram_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.compute_pj + self.rbuf_pj + self.noc_pj + self.gbuf_pj + self.dram_pj
    }

    /// Accumulates another breakdown.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.compute_pj += other.compute_pj;
        self.rbuf_pj += other.rbuf_pj;
        self.noc_pj += other.noc_pj;
        self.gbuf_pj += other.gbuf_pj;
        self.dram_pj += other.dram_pj;
    }
}

/// Simulation result for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name (from the [`yoso_arch::LayerSpec`]).
    pub name: String,
    /// MAC (or vector-op) count.
    pub macs: u64,
    /// Execution cycles (max of compute and memory time).
    pub cycles: f64,
    /// PE array utilization in `[0, 1]` (0 for vector-unit layers).
    pub utilization: f64,
    /// Words moved to/from DRAM.
    pub dram_words: f64,
    /// Words moved to/from the global buffer.
    pub gbuf_words: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Whether the layer's input was retained on-chip by its producer.
    pub input_onchip: bool,
}

/// Whole-network simulation result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerfReport {
    /// End-to-end inference latency in milliseconds.
    pub latency_ms: f64,
    /// End-to-end inference energy in millijoules.
    pub energy_mj: f64,
    /// MAC-weighted mean PE utilization.
    pub utilization: f64,
    /// Total DRAM traffic in words.
    pub dram_words: f64,
    /// Aggregate energy breakdown.
    pub energy_breakdown: EnergyBreakdown,
    /// Per-layer reports in execution order.
    pub layers: Vec<LayerReport>,
}

impl PerfReport {
    /// Builds the aggregate report from per-layer reports.
    pub fn from_layers(layers: Vec<LayerReport>, clock_ghz: f64) -> Self {
        let mut energy_breakdown = EnergyBreakdown::default();
        let mut cycles = 0.0;
        let mut dram_words = 0.0;
        let mut util_weighted = 0.0;
        let mut mac_total = 0u64;
        for l in &layers {
            energy_breakdown.accumulate(&l.energy);
            cycles += l.cycles;
            dram_words += l.dram_words;
            util_weighted += l.utilization * l.macs as f64;
            mac_total += l.macs;
        }
        PerfReport {
            latency_ms: cycles / (clock_ghz * 1e9) * 1e3,
            energy_mj: energy_breakdown.total_pj() * 1e-9,
            utilization: if mac_total > 0 {
                util_weighted / mac_total as f64
            } else {
                0.0
            },
            dram_words,
            energy_breakdown,
            layers,
        }
    }
}

impl fmt::Display for PerfReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "latency {:.4} ms, energy {:.4} mJ, util {:.1}%, dram {:.0} words",
            self.latency_ms,
            self.energy_mj,
            self.utilization * 100.0,
            self.dram_words
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(macs: u64, cycles: f64, util: f64, pj: f64) -> LayerReport {
        LayerReport {
            name: "l".into(),
            macs,
            cycles,
            utilization: util,
            dram_words: 10.0,
            gbuf_words: 100.0,
            energy: EnergyBreakdown {
                compute_pj: pj,
                ..Default::default()
            },
            input_onchip: false,
        }
    }

    #[test]
    fn aggregate_sums() {
        let r = PerfReport::from_layers(
            vec![layer(100, 1000.0, 0.5, 1e6), layer(300, 3000.0, 1.0, 3e6)],
            1.0,
        );
        assert!((r.latency_ms - 4e3 / 1e9 * 1e3).abs() < 1e-12);
        assert!((r.energy_mj - 4e6 * 1e-9).abs() < 1e-12);
        assert!((r.utilization - (0.5 * 100.0 + 1.0 * 300.0) / 400.0).abs() < 1e-12);
        assert_eq!(r.dram_words, 20.0);
    }

    #[test]
    fn breakdown_total() {
        let b = EnergyBreakdown {
            compute_pj: 1.0,
            rbuf_pj: 2.0,
            noc_pj: 3.0,
            gbuf_pj: 4.0,
            dram_pj: 5.0,
        };
        assert_eq!(b.total_pj(), 15.0);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = PerfReport::from_layers(vec![], 0.7);
        assert_eq!(r.latency_ms, 0.0);
        assert_eq!(r.utilization, 0.0);
        assert!(!format!("{r}").is_empty());
    }
}
