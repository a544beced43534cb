//! Accelerator configuration: the hardware half of the co-design space.
//!
//! Table 1 of the paper fixes four configurable parameters for the systolic
//! array template: PE array size (8x8 … 16x32), global buffer size
//! (108 … 1024 KB), register buffer size (64 … 1024 B) and one of four
//! dataflows (WS, OS, RS, NLR).

use rand::{Rng, RngExt};
use std::fmt;

/// Dataflow (loop-ordering / operand-stationarity) of the systolic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dataflow {
    /// Weight stationary: weights pinned in PE registers.
    Ws,
    /// Output stationary: partial sums pinned in PE registers.
    Os,
    /// Row stationary: Eyeriss-style hybrid row reuse.
    Rs,
    /// No local reuse: all operands streamed from the global buffer.
    Nlr,
}

impl Dataflow {
    /// All dataflows in canonical (codec) order.
    pub const ALL: [Dataflow; 4] = [Dataflow::Ws, Dataflow::Os, Dataflow::Rs, Dataflow::Nlr];

    /// Canonical index in [`Dataflow::ALL`].
    pub fn index(self) -> usize {
        Dataflow::ALL
            .iter()
            .position(|&d| d == self)
            .expect("in ALL")
    }

    /// Dataflow for a canonical index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 4`.
    pub fn from_index(idx: usize) -> Dataflow {
        Dataflow::ALL[idx]
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Dataflow::Ws => "WS",
            Dataflow::Os => "OS",
            Dataflow::Rs => "RS",
            Dataflow::Nlr => "NLR",
        })
    }
}

/// Processing-element array dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeArray {
    /// Rows of PEs.
    pub rows: usize,
    /// Columns of PEs.
    pub cols: usize,
}

impl PeArray {
    /// Total number of PEs.
    pub fn count(&self) -> usize {
        self.rows * self.cols
    }
}

impl fmt::Display for PeArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}*{}", self.rows, self.cols)
    }
}

/// Discrete menu of PE array sizes (paper range 8x8 … 16x32; the concrete
/// entries include every configuration appearing in Table 2).
pub const PE_MENU: [PeArray; 9] = [
    PeArray { rows: 8, cols: 8 },
    PeArray { rows: 8, cols: 16 },
    PeArray { rows: 12, cols: 12 },
    PeArray { rows: 14, cols: 16 },
    PeArray { rows: 16, cols: 8 },
    PeArray { rows: 16, cols: 16 },
    PeArray { rows: 16, cols: 20 },
    PeArray { rows: 16, cols: 24 },
    PeArray { rows: 16, cols: 32 },
];

/// Discrete menu of global buffer sizes in KB (paper range 108 … 1024 KB;
/// includes every value appearing in Table 2).
pub const GBUF_MENU_KB: [usize; 6] = [108, 128, 196, 256, 512, 1024];

/// Discrete menu of per-PE register buffer sizes in bytes
/// (paper range 64 … 1024 B).
pub const RBUF_MENU_B: [usize; 5] = [64, 128, 256, 512, 1024];

/// One accelerator configuration: a point in the hardware design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HwConfig {
    /// PE array dimensions.
    pub pe: PeArray,
    /// Global (L2) buffer size in kilobytes.
    pub gbuf_kb: usize,
    /// Per-PE register buffer size in bytes.
    pub rbuf_bytes: usize,
    /// Dataflow.
    pub dataflow: Dataflow,
}

impl HwConfig {
    /// Builds a configuration from menu indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of menu range.
    pub fn from_indices(pe: usize, gbuf: usize, rbuf: usize, df: usize) -> Self {
        HwConfig {
            pe: PE_MENU[pe],
            gbuf_kb: GBUF_MENU_KB[gbuf],
            rbuf_bytes: RBUF_MENU_B[rbuf],
            dataflow: Dataflow::from_index(df),
        }
    }

    /// Menu indices `(pe, gbuf, rbuf, dataflow)` of this configuration.
    ///
    /// Returns `None` if any component is not on its menu.
    pub fn to_indices(&self) -> Option<(usize, usize, usize, usize)> {
        Some((
            PE_MENU.iter().position(|p| p == &self.pe)?,
            GBUF_MENU_KB.iter().position(|g| *g == self.gbuf_kb)?,
            RBUF_MENU_B.iter().position(|r| *r == self.rbuf_bytes)?,
            self.dataflow.index(),
        ))
    }

    /// Samples a uniformly random configuration from the menus.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        HwConfig::from_indices(
            rng.random_range(0..PE_MENU.len()),
            rng.random_range(0..GBUF_MENU_KB.len()),
            rng.random_range(0..RBUF_MENU_B.len()),
            rng.random_range(0..Dataflow::ALL.len()),
        )
    }

    /// Iterates over the entire hardware configuration space
    /// (for the two-stage baseline's exhaustive enumeration).
    pub fn enumerate_all() -> impl Iterator<Item = HwConfig> {
        PE_MENU.iter().flat_map(|&pe| {
            GBUF_MENU_KB.iter().flat_map(move |&gbuf_kb| {
                RBUF_MENU_B.iter().flat_map(move |&rbuf_bytes| {
                    Dataflow::ALL.iter().map(move |&dataflow| HwConfig {
                        pe,
                        gbuf_kb,
                        rbuf_bytes,
                        dataflow,
                    })
                })
            })
        })
    }

    /// Size of the hardware configuration space.
    pub fn space_size() -> usize {
        PE_MENU.len() * GBUF_MENU_KB.len() * RBUF_MENU_B.len() * Dataflow::ALL.len()
    }
}

impl fmt::Display for HwConfig {
    /// Formats like the paper's Table 2 `Configuration` column:
    /// `PEs/g_buf/r_buf/data_flow`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}KB/{}b/{}",
            self.pe, self.gbuf_kb, self.rbuf_bytes, self.dataflow
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn menus_cover_paper_ranges() {
        assert_eq!(PE_MENU.first().unwrap().count(), 64); // 8x8
        assert_eq!(PE_MENU.last().unwrap().count(), 512); // 16x32
        assert_eq!(*GBUF_MENU_KB.first().unwrap(), 108);
        assert_eq!(*GBUF_MENU_KB.last().unwrap(), 1024);
        assert_eq!(*RBUF_MENU_B.first().unwrap(), 64);
        assert_eq!(*RBUF_MENU_B.last().unwrap(), 1024);
    }

    #[test]
    fn table2_configs_on_menu() {
        // Every configuration reported in Table 2 must be representable.
        for (pe_r, pe_c, gbuf, rbuf) in [
            (16, 32, 196, 256),
            (16, 32, 512, 512),
            (14, 16, 256, 128),
            (16, 32, 108, 1024),
            (16, 32, 196, 128),
            (16, 20, 512, 256),
            (16, 32, 512, 128),
        ] {
            let cfg = HwConfig {
                pe: PeArray {
                    rows: pe_r,
                    cols: pe_c,
                },
                gbuf_kb: gbuf,
                rbuf_bytes: rbuf,
                dataflow: Dataflow::Os,
            };
            assert!(cfg.to_indices().is_some(), "{cfg} not on menu");
        }
    }

    #[test]
    fn indices_roundtrip() {
        for pe in 0..PE_MENU.len() {
            for g in 0..GBUF_MENU_KB.len() {
                for r in 0..RBUF_MENU_B.len() {
                    for d in 0..4 {
                        let cfg = HwConfig::from_indices(pe, g, r, d);
                        assert_eq!(cfg.to_indices(), Some((pe, g, r, d)));
                    }
                }
            }
        }
    }

    #[test]
    fn enumerate_all_matches_space_size() {
        let all: Vec<HwConfig> = HwConfig::enumerate_all().collect();
        assert_eq!(all.len(), HwConfig::space_size());
        let unique: std::collections::HashSet<HwConfig> = all.into_iter().collect();
        assert_eq!(unique.len(), HwConfig::space_size());
    }

    #[test]
    fn random_config_on_menu() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(HwConfig::random(&mut rng).to_indices().is_some());
        }
    }

    #[test]
    fn display_matches_table2_style() {
        let cfg = HwConfig {
            pe: PeArray { rows: 16, cols: 32 },
            gbuf_kb: 512,
            rbuf_bytes: 512,
            dataflow: Dataflow::Os,
        };
        assert_eq!(cfg.to_string(), "16*32/512KB/512b/OS");
    }
}
