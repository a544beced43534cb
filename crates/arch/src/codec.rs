//! The 44-symbol action-sequence codec.
//!
//! The paper's RL controller emits a candidate solution as one sequence
//! `λ = (d_1 … d_S, c_1 … c_L)` with `S = 40` DNN hyper-parameters and
//! `L = 4` accelerator parameters (§III-C). This module defines the
//! per-step vocabularies and the bijection between sequences and
//! [`DesignPoint`]s.

use crate::genotype::{CellGenotype, Genotype, NodeGene, INTERNAL_NODES};
use crate::hw::{Dataflow, HwConfig, GBUF_MENU_KB, PE_MENU, RBUF_MENU_B};
use crate::op::Op;
use crate::space::DesignPoint;
use std::fmt;

/// Total sequence length (`S + L = 44` in the paper).
pub const SEQUENCE_LEN: usize = 44;
/// DNN portion of the sequence (`S = 40`).
pub const DNN_LEN: usize = 40;
/// Hardware portion of the sequence (`L = 4`).
pub const HW_LEN: usize = 4;

/// Error returned when decoding an invalid action sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeActionError {
    /// Sequence length differs from [`SEQUENCE_LEN`].
    WrongLength {
        /// Provided length.
        got: usize,
    },
    /// An action value exceeds its step vocabulary.
    OutOfVocab {
        /// Step index.
        step: usize,
        /// Provided action value.
        action: usize,
        /// Vocabulary size at that step.
        vocab: usize,
    },
}

impl fmt::Display for DecodeActionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeActionError::WrongLength { got } => {
                write!(f, "expected {SEQUENCE_LEN} actions, got {got}")
            }
            DecodeActionError::OutOfVocab {
                step,
                action,
                vocab,
            } => {
                write!(
                    f,
                    "action {action} at step {step} exceeds vocabulary {vocab}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeActionError {}

/// The per-step vocabularies of the 44-step action space.
///
/// Step layout:
/// `[normal cell: 5 nodes x (in1, op1, in2, op2)] ++ [reduction cell: same]
///  ++ [pe, g_buf, r_buf, dataflow]`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ActionSpace {
    vocab: Vec<usize>,
}

impl ActionSpace {
    /// Builds the canonical YOSO action space.
    pub fn new() -> Self {
        let mut vocab = Vec::with_capacity(SEQUENCE_LEN);
        for _cell in 0..2 {
            for node in 0..INTERNAL_NODES {
                let node_idx = node + 2;
                vocab.push(node_idx); // in1: any earlier node
                vocab.push(Op::COUNT); // op1
                vocab.push(node_idx); // in2
                vocab.push(Op::COUNT); // op2
            }
        }
        vocab.push(PE_MENU.len());
        vocab.push(GBUF_MENU_KB.len());
        vocab.push(RBUF_MENU_B.len());
        vocab.push(Dataflow::ALL.len());
        debug_assert_eq!(vocab.len(), SEQUENCE_LEN);
        ActionSpace { vocab }
    }

    /// Vocabulary size at each step (length [`SEQUENCE_LEN`]).
    pub fn vocab_sizes(&self) -> &[usize] {
        &self.vocab
    }

    /// Number of steps (always [`SEQUENCE_LEN`]).
    pub fn len(&self) -> usize {
        self.vocab.len()
    }

    /// Always false; present for API completeness.
    pub fn is_empty(&self) -> bool {
        self.vocab.is_empty()
    }

    /// log10 of the combined search-space cardinality.
    pub fn log10_cardinality(&self) -> f64 {
        self.vocab.iter().map(|&v| (v as f64).log10()).sum()
    }

    /// Encodes a design point into its 44-action sequence.
    pub fn encode(&self, point: &DesignPoint) -> Vec<usize> {
        let mut seq = Vec::with_capacity(SEQUENCE_LEN);
        for cell in [&point.genotype.normal, &point.genotype.reduction] {
            for gene in &cell.nodes {
                seq.push(gene.in1);
                seq.push(gene.op1.index());
                seq.push(gene.in2);
                seq.push(gene.op2.index());
            }
        }
        let (pe, gbuf, rbuf, df) = point
            .hw
            .to_indices()
            .expect("design point hardware must be on the menus");
        seq.extend([pe, gbuf, rbuf, df]);
        seq
    }

    /// Decodes a 44-action sequence into a design point.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeActionError`] if the length is wrong or any action
    /// exceeds its step vocabulary.
    pub fn decode(&self, actions: &[usize]) -> Result<DesignPoint, DecodeActionError> {
        if actions.len() != SEQUENCE_LEN {
            return Err(DecodeActionError::WrongLength { got: actions.len() });
        }
        for (step, (&a, &v)) in actions.iter().zip(&self.vocab).enumerate() {
            if a >= v {
                return Err(DecodeActionError::OutOfVocab {
                    step,
                    action: a,
                    vocab: v,
                });
            }
        }
        let decode_cell = |base: usize| -> CellGenotype {
            let mut nodes = [NodeGene {
                in1: 0,
                op1: Op::Conv3,
                in2: 0,
                op2: Op::Conv3,
            }; INTERNAL_NODES];
            for (n, gene) in nodes.iter_mut().enumerate() {
                let o = base + n * 4;
                gene.in1 = actions[o];
                gene.op1 = Op::from_index(actions[o + 1]);
                gene.in2 = actions[o + 2];
                gene.op2 = Op::from_index(actions[o + 3]);
            }
            CellGenotype { nodes }
        };
        let genotype = Genotype {
            normal: decode_cell(0),
            reduction: decode_cell(DNN_LEN / 2),
        };
        let hw = HwConfig::from_indices(
            actions[DNN_LEN],
            actions[DNN_LEN + 1],
            actions[DNN_LEN + 2],
            actions[DNN_LEN + 3],
        );
        Ok(DesignPoint { genotype, hw })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sequence_len_matches_paper() {
        let sp = ActionSpace::new();
        assert_eq!(sp.len(), 44);
        assert_eq!(sp.vocab_sizes().len(), SEQUENCE_LEN);
        assert!(!sp.is_empty());
    }

    #[test]
    fn vocab_layout() {
        let sp = ActionSpace::new();
        let v = sp.vocab_sizes();
        // First node of the normal cell: inputs from {0,1}, six ops.
        assert_eq!(&v[0..4], &[2, 6, 2, 6]);
        // Last node of the normal cell: inputs from {0..5}.
        assert_eq!(&v[16..20], &[6, 6, 6, 6]);
        // Hardware tail.
        assert_eq!(&v[40..44], &[9, 6, 5, 4]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let sp = ActionSpace::new();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let p = DesignPoint::random(&mut rng);
            let seq = sp.encode(&p);
            assert_eq!(seq.len(), SEQUENCE_LEN);
            let back = sp.decode(&seq).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let sp = ActionSpace::new();
        assert_eq!(
            sp.decode(&[0; 10]),
            Err(DecodeActionError::WrongLength { got: 10 })
        );
    }

    #[test]
    fn decode_rejects_out_of_vocab() {
        let sp = ActionSpace::new();
        let mut seq = vec![0usize; SEQUENCE_LEN];
        seq[1] = 6; // op index beyond Op::COUNT
        match sp.decode(&seq) {
            Err(DecodeActionError::OutOfVocab {
                step: 1,
                action: 6,
                vocab: 6,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decoded_points_always_valid() {
        // Any in-vocabulary sequence decodes to a *valid* genotype: the
        // vocabulary construction enforces the DAG constraint by design.
        let sp = ActionSpace::new();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let seq: Vec<usize> = sp
                .vocab_sizes()
                .iter()
                .map(|&v| rand::RngExt::random_range(&mut rng, 0..v))
                .collect();
            let p = sp.decode(&seq).unwrap();
            assert!(p.genotype.is_valid());
        }
    }

    #[test]
    fn cardinality_is_astronomical() {
        // The paper cites ~1e15 total solutions and ~5e11 networks; our
        // exact combinatorics land within a few orders of magnitude.
        let sp = ActionSpace::new();
        let log10 = sp.log10_cardinality();
        assert!(
            log10 > 15.0,
            "combined space should exceed 1e15, got 1e{log10:.1}"
        );
        let err_msg = format!(
            "error display: {}",
            DecodeActionError::WrongLength { got: 3 }
        );
        assert!(err_msg.contains("44"));
    }
}
