//! Cell genotypes: the DNN half of the co-design search space.
//!
//! A cell is a DAG of `B = 7` nodes (paper §III-D): nodes 0 and 1 are the
//! outputs of the previous two cells; each of the five internal nodes picks
//! two earlier nodes and applies one operation to each, summing the
//! results (Eq. 5). Cell output is the concatenation of internal nodes
//! that feed no other node.

use crate::op::Op;
use rand::{Rng, RngExt};
use std::fmt;

/// Number of nodes per cell (paper: `B = 7`).
pub const NODES_PER_CELL: usize = 7;
/// Number of internal (choice-bearing) nodes per cell.
pub const INTERNAL_NODES: usize = NODES_PER_CELL - 2;
/// Hyper-parameters per internal node: two inputs and two ops.
pub const PARAMS_PER_NODE: usize = 4;
/// DNN hyper-parameters per cell.
pub const PARAMS_PER_CELL: usize = INTERNAL_NODES * PARAMS_PER_NODE;
/// Total DNN hyper-parameters (`S = 40` in the paper: two cell types).
pub const DNN_PARAMS: usize = 2 * PARAMS_PER_CELL;

/// Configuration of one internal node: two input nodes and the operation
/// applied to each (Eq. 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeGene {
    /// Index of the first input node (must be `<` this node's index).
    pub in1: usize,
    /// Operation applied to the first input.
    pub op1: Op,
    /// Index of the second input node (must be `<` this node's index).
    pub in2: usize,
    /// Operation applied to the second input.
    pub op2: Op,
}

/// Genotype of one cell: the five internal nodes in order (indices 2..=6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellGenotype {
    /// Internal node genes; entry `i` configures node `i + 2`.
    pub nodes: [NodeGene; INTERNAL_NODES],
}

impl CellGenotype {
    /// Validates the DAG constraint: every input index precedes its node.
    pub fn is_valid(&self) -> bool {
        self.nodes.iter().enumerate().all(|(i, g)| {
            let node_idx = i + 2;
            g.in1 < node_idx && g.in2 < node_idx
        })
    }

    /// Samples a uniformly random valid cell genotype.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut nodes = [NodeGene {
            in1: 0,
            op1: Op::Conv3,
            in2: 0,
            op2: Op::Conv3,
        }; INTERNAL_NODES];
        for (i, g) in nodes.iter_mut().enumerate() {
            let node_idx = i + 2;
            g.in1 = rng.random_range(0..node_idx);
            g.op1 = Op::from_index(rng.random_range(0..Op::COUNT));
            g.in2 = rng.random_range(0..node_idx);
            g.op2 = Op::from_index(rng.random_range(0..Op::COUNT));
        }
        CellGenotype { nodes }
    }

    /// Indices of internal nodes that are used as an input by a later node.
    pub fn used_internal_nodes(&self) -> Vec<usize> {
        let mut used = [false; NODES_PER_CELL];
        for g in &self.nodes {
            used[g.in1] = true;
            used[g.in2] = true;
        }
        (2..NODES_PER_CELL).filter(|&i| used[i]).collect()
    }

    /// Indices of internal nodes that feed no other node; their outputs are
    /// concatenated to form the cell output. Never empty (the last node
    /// can't feed anything).
    pub fn output_nodes(&self) -> Vec<usize> {
        let used = self.used_internal_nodes();
        (2..NODES_PER_CELL).filter(|i| !used.contains(i)).collect()
    }

    /// Number of concatenated output nodes.
    pub fn output_arity(&self) -> usize {
        self.output_nodes().len()
    }

    /// Multiset histogram of the 10 op slots, indexed by [`Op::index`].
    pub fn op_histogram(&self) -> [usize; Op::COUNT] {
        let mut h = [0usize; Op::COUNT];
        for g in &self.nodes {
            h[g.op1.index()] += 1;
            h[g.op2.index()] += 1;
        }
        h
    }
}

impl fmt::Display for CellGenotype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, g) in self.nodes.iter().enumerate() {
            if i > 0 {
                f.write_str(" | ")?;
            }
            write!(f, "n{}=({}<-{}, {}<-{})", i + 2, g.op1, g.in1, g.op2, g.in2)?;
        }
        Ok(())
    }
}

/// Full network genotype: a normal cell and a reduction cell (shared by
/// every instance of the respective kind, as in NASNet/DARTS/the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Genotype {
    /// Stride-1 cell repeated at constant resolution.
    pub normal: CellGenotype,
    /// Stride-2 cell that halves resolution and doubles channels.
    pub reduction: CellGenotype,
}

impl Genotype {
    /// Samples a uniformly random valid genotype.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Genotype {
            normal: CellGenotype::random(rng),
            reduction: CellGenotype::random(rng),
        }
    }

    /// Validates both cells.
    pub fn is_valid(&self) -> bool {
        self.normal.is_valid() && self.reduction.is_valid()
    }
}

impl fmt::Display for Genotype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "normal[{}] reduction[{}]", self.normal, self.reduction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constants_match_paper() {
        assert_eq!(NODES_PER_CELL, 7);
        assert_eq!(DNN_PARAMS, 40, "paper: S = 40");
    }

    #[test]
    fn random_genotypes_valid() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..500 {
            let g = Genotype::random(&mut rng);
            assert!(g.is_valid());
        }
    }

    #[test]
    fn output_nodes_never_empty_and_contains_last() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let c = CellGenotype::random(&mut rng);
            let out = c.output_nodes();
            assert!(!out.is_empty());
            assert!(
                out.contains(&(NODES_PER_CELL - 1)),
                "last node is never an input"
            );
            assert!(out.len() <= INTERNAL_NODES);
        }
    }

    #[test]
    fn op_histogram_sums_to_slots() {
        let mut rng = StdRng::seed_from_u64(2);
        let c = CellGenotype::random(&mut rng);
        let h = c.op_histogram();
        assert_eq!(h.iter().sum::<usize>(), INTERNAL_NODES * 2);
    }

    #[test]
    fn invalid_genotype_detected() {
        let mut c = CellGenotype::random(&mut StdRng::seed_from_u64(3));
        c.nodes[0].in1 = 5; // node 2 cannot take input from node 5
        assert!(!c.is_valid());
    }

    #[test]
    fn display_is_informative() {
        let c = CellGenotype::random(&mut StdRng::seed_from_u64(4));
        let s = c.to_string();
        assert!(s.contains("n2="));
        assert!(s.contains("n6="));
    }

    #[test]
    fn used_and_output_partition_internal_nodes() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let c = CellGenotype::random(&mut rng);
            let used = c.used_internal_nodes();
            let out = c.output_nodes();
            assert_eq!(used.len() + out.len(), INTERNAL_NODES);
            for u in &used {
                assert!(!out.contains(u));
            }
        }
    }
}
