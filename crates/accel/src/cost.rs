//! Technology cost model: per-access energies and bandwidths.
//!
//! The hierarchy ratios follow the Eyeriss energy taxonomy (Chen et al.,
//! ISSCC'17, cited as \[10\] in the paper): register-file access ≈ MAC cost,
//! global-buffer access ≈ 6x, DRAM access ≈ 200x. Absolute values are pJ
//! for a 16-bit word at a 28 nm-class node.

/// Per-access energy costs and machine rates used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Bytes per operand word (16-bit fixed point).
    pub word_bytes: f64,
    /// Energy of one multiply-accumulate (pJ).
    pub e_mac: f64,
    /// Energy of one PE register-file access (pJ).
    pub e_rbuf: f64,
    /// Energy of moving one word across the array NoC (pJ).
    pub e_noc: f64,
    /// Energy of one global-buffer access (pJ).
    pub e_gbuf: f64,
    /// Energy of one DRAM word access (pJ).
    pub e_dram: f64,
    /// Energy of one vector-unit (pooling) operation (pJ).
    pub e_vector: f64,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// DRAM bandwidth in words per core cycle.
    pub dram_words_per_cycle: f64,
    /// Global-buffer bandwidth in words per core cycle.
    pub gbuf_words_per_cycle: f64,
    /// Vector-unit lanes for pooling layers.
    pub vector_lanes: f64,
}

impl CostModel {
    /// The default 16-bit, 700 MHz model used throughout the experiments.
    pub fn default_16bit() -> Self {
        CostModel {
            word_bytes: 2.0,
            e_mac: 1.0,
            e_rbuf: 0.8,
            e_noc: 2.0,
            e_gbuf: 6.0,
            e_dram: 200.0,
            e_vector: 0.3,
            clock_ghz: 0.7,
            dram_words_per_cycle: 8.0,
            gbuf_words_per_cycle: 32.0,
            vector_lanes: 16.0,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::default_16bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_ordering() {
        let c = CostModel::default();
        assert!(c.e_rbuf <= c.e_mac * 1.5);
        assert!(c.e_gbuf > c.e_rbuf);
        assert!(c.e_dram > 10.0 * c.e_gbuf);
    }

    #[test]
    fn eyeriss_like_ratios() {
        let c = CostModel::default();
        assert!((c.e_gbuf / c.e_mac - 6.0).abs() < 1e-9);
        assert!((c.e_dram / c.e_mac - 200.0).abs() < 1e-9);
    }
}
