//! Candidate operations of the cell search space.
//!
//! The paper fixes six operations (§III-D): `conv3x3`, `conv5x5`,
//! `DWconv3x3`, `DWconv5x5`, max pooling and average pooling, with ReLU as
//! the only activation.

use std::fmt;

/// One of the six candidate operations on a cell edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// Standard 3x3 convolution (ReLU-Conv-BN).
    Conv3,
    /// Standard 5x5 convolution (ReLU-Conv-BN).
    Conv5,
    /// Depthwise-separable 3x3 convolution (depthwise + 1x1 pointwise).
    DwConv3,
    /// Depthwise-separable 5x5 convolution (depthwise + 1x1 pointwise).
    DwConv5,
    /// 3x3 max pooling.
    MaxPool,
    /// 3x3 average pooling.
    AvgPool,
}

impl Op {
    /// All candidate operations, in canonical (codec) order.
    pub const ALL: [Op; 6] = [
        Op::Conv3,
        Op::Conv5,
        Op::DwConv3,
        Op::DwConv5,
        Op::MaxPool,
        Op::AvgPool,
    ];

    /// Number of candidate operations.
    pub const COUNT: usize = 6;

    /// Canonical index of this op in [`Op::ALL`].
    pub fn index(self) -> usize {
        Op::ALL.iter().position(|&o| o == self).expect("op in ALL")
    }

    /// Op for a canonical index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= Op::COUNT`.
    pub fn from_index(idx: usize) -> Op {
        Op::ALL[idx]
    }

    /// Square kernel size of the operation's spatial window.
    pub fn kernel(self) -> usize {
        match self {
            Op::Conv3 | Op::DwConv3 | Op::MaxPool | Op::AvgPool => 3,
            Op::Conv5 | Op::DwConv5 => 5,
        }
    }

    /// Whether the operation carries trainable weights.
    pub fn has_weights(self) -> bool {
        !matches!(self, Op::MaxPool | Op::AvgPool)
    }

    /// Whether the operation is a (depthwise-)separable convolution.
    pub fn is_depthwise(self) -> bool {
        matches!(self, Op::DwConv3 | Op::DwConv5)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Conv3 => "conv3x3",
            Op::Conv5 => "conv5x5",
            Op::DwConv3 => "dwconv3x3",
            Op::DwConv5 => "dwconv5x5",
            Op::MaxPool => "maxpool3x3",
            Op::AvgPool => "avgpool3x3",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(op.index(), i);
            assert_eq!(Op::from_index(i), *op);
        }
    }

    #[test]
    fn kernel_sizes() {
        assert_eq!(Op::Conv3.kernel(), 3);
        assert_eq!(Op::Conv5.kernel(), 5);
        assert_eq!(Op::DwConv5.kernel(), 5);
        assert_eq!(Op::MaxPool.kernel(), 3);
    }

    #[test]
    fn weight_and_depthwise_flags() {
        assert!(Op::Conv3.has_weights());
        assert!(!Op::AvgPool.has_weights());
        assert!(Op::DwConv3.is_depthwise());
        assert!(!Op::Conv5.is_depthwise());
    }

    #[test]
    fn display_names_unique() {
        let names: std::collections::HashSet<String> =
            Op::ALL.iter().map(|o| o.to_string()).collect();
        assert_eq!(names.len(), Op::COUNT);
    }
}
