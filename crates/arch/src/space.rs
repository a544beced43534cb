//! Design points and search-space cardinality accounting.

use crate::genotype::{Genotype, INTERNAL_NODES};
use crate::hw::HwConfig;
use crate::op::Op;
use rand::Rng;
use std::fmt;

/// One candidate solution of the joint search: a network genotype plus an
/// accelerator configuration. This is what the RL controller emits per
/// rollout and what the evaluator scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignPoint {
    /// The DNN half.
    pub genotype: Genotype,
    /// The accelerator half.
    pub hw: HwConfig,
}

impl DesignPoint {
    /// Samples a uniformly random design point.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        DesignPoint {
            genotype: Genotype::random(rng),
            hw: HwConfig::random(rng),
        }
    }

    /// Validates the genotype (hardware configs are valid by construction).
    pub fn is_valid(&self) -> bool {
        self.genotype.is_valid()
    }

    /// Returns a copy with one uniformly chosen action symbol resampled
    /// (the canonical mutation operator for evolutionary search over the
    /// joint space; operates through the action codec so hardware fields
    /// and DNN genes are mutated with equal probability mass).
    pub fn mutate<R: Rng + ?Sized>(&self, rng: &mut R) -> Self {
        use rand::RngExt;
        let space = crate::codec::ActionSpace::new();
        let mut actions = space.encode(self);
        let pos = rng.random_range(0..actions.len());
        let vocab = space.vocab_sizes()[pos];
        if vocab > 1 {
            let mut nv = rng.random_range(0..vocab - 1);
            if nv >= actions[pos] {
                nv += 1; // skip the current value: mutation always changes something
            }
            actions[pos] = nv;
        }
        space
            .decode(&actions)
            .expect("mutation stays in vocabulary")
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.genotype, self.hw)
    }
}

/// Cardinality bookkeeping for the joint search space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceCardinality {
    /// log10 of the number of distinct cell genotypes (one cell).
    pub log10_cell: f64,
    /// log10 of the number of distinct network genotypes (two cells).
    pub log10_networks: f64,
    /// Number of hardware configurations.
    pub hw_configs: usize,
    /// log10 of the combined design-space size.
    pub log10_combined: f64,
}

/// Computes the exact cardinality of the search space.
///
/// Each internal node `i` (2..=6) chooses `(in1, op1, in2, op2)` giving
/// `i^2 * |Op|^2` combinations; a cell multiplies over its five nodes.
pub fn cardinality() -> SpaceCardinality {
    let mut log10_cell = 0.0f64;
    for node in 0..INTERNAL_NODES {
        let i = (node + 2) as f64;
        log10_cell += (i * i * (Op::COUNT * Op::COUNT) as f64).log10();
    }
    let log10_networks = 2.0 * log10_cell;
    let hw_configs = HwConfig::space_size();
    SpaceCardinality {
        log10_cell,
        log10_networks,
        hw_configs,
        log10_combined: log10_networks + (hw_configs as f64).log10(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cardinality_magnitudes() {
        let c = cardinality();
        // One cell: prod_{i=2..6} 36 i^2 = 36^5 * (720)^2 ≈ 3.1e13.
        assert!(
            (c.log10_cell - 13.5).abs() < 0.5,
            "log10 cell {}",
            c.log10_cell
        );
        // The paper quotes ~5e11 networks with a coarser counting
        // convention; our exact ordered-pair count is larger. What matters
        // for the method is that the space is far beyond enumeration.
        assert!(c.log10_networks > 11.0);
        assert_eq!(c.hw_configs, 9 * 6 * 5 * 4);
        // Paper: "10^15 possible solutions".
        assert!(c.log10_combined > 15.0);
    }

    #[test]
    fn random_points_distinct() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = DesignPoint::random(&mut rng);
        let b = DesignPoint::random(&mut rng);
        assert_ne!(a, b, "collision is astronomically unlikely");
        assert!(a.is_valid() && b.is_valid());
    }

    #[test]
    fn mutation_changes_exactly_one_symbol() {
        let space = crate::codec::ActionSpace::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let p = DesignPoint::random(&mut rng);
            let m = p.mutate(&mut rng);
            assert!(m.is_valid());
            let a = space.encode(&p);
            let b = space.encode(&m);
            let diffs = a.iter().zip(&b).filter(|(x, y)| x != y).count();
            assert_eq!(diffs, 1, "mutation must change exactly one symbol");
        }
    }

    #[test]
    fn repeated_mutation_walks_the_space() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut p = DesignPoint::random(&mut rng);
        let start = p;
        for _ in 0..50 {
            p = p.mutate(&mut rng);
        }
        assert_ne!(p, start);
        assert!(p.is_valid());
    }

    #[test]
    fn display_contains_both_halves() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = DesignPoint::random(&mut rng);
        let s = p.to_string();
        assert!(s.contains("normal["));
        assert!(s.contains('@'));
    }
}
