//! Hardware-facing workload model: a network as a list of layer shapes.
//!
//! Both the trainable network builder (`yoso-nn`) and the accelerator
//! simulator (`yoso-accel`) consume the same [`LayerSpec`] list, so the
//! architecture evaluated for accuracy is exactly the one simulated for
//! latency/energy.

use std::fmt;

/// Pooling flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum pooling.
    Max,
    /// Average pooling.
    Avg,
}

/// Shape-level description of one layer's computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Dense 2-D convolution.
    Conv {
        /// Square kernel size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Input channels.
        cin: usize,
        /// Output channels.
        cout: usize,
    },
    /// Depthwise 2-D convolution (one filter per channel).
    DwConv {
        /// Square kernel size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Channels.
        c: usize,
    },
    /// Spatial pooling.
    Pool {
        /// Square window size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Channels.
        c: usize,
        /// Max or average.
        pooling: PoolKind,
    },
    /// Fully connected layer.
    Linear {
        /// Input features.
        cin: usize,
        /// Output features.
        cout: usize,
    },
    /// Global average pooling to `[c]`.
    GlobalPool {
        /// Channels.
        c: usize,
    },
}

/// One layer of the compiled network, with concrete spatial dimensions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerSpec {
    /// Human-readable name (e.g. `cell3.n4.op1.dw`).
    pub name: String,
    /// Computation shape.
    pub kind: LayerKind,
    /// Input feature-map height.
    pub h_in: usize,
    /// Input feature-map width.
    pub w_in: usize,
    /// Output feature-map height.
    pub h_out: usize,
    /// Output feature-map width.
    pub w_out: usize,
}

impl LayerSpec {
    /// Multiply-accumulate operations for a single inference (batch 1).
    /// Pooling layers report comparison/add operations.
    pub fn macs(&self) -> u64 {
        let out_hw = (self.h_out * self.w_out) as u64;
        match self.kind {
            LayerKind::Conv { k, cin, cout, .. } => out_hw * (k * k * cin) as u64 * cout as u64,
            LayerKind::DwConv { k, c, .. } => out_hw * (k * k) as u64 * c as u64,
            LayerKind::Pool { k, c, .. } => out_hw * (k * k) as u64 * c as u64,
            LayerKind::Linear { cin, cout } => (cin * cout) as u64,
            LayerKind::GlobalPool { c } => (self.h_in * self.w_in * c) as u64,
        }
    }

    /// Number of trainable weights (zero for pooling).
    pub fn weights(&self) -> u64 {
        match self.kind {
            LayerKind::Conv { k, cin, cout, .. } => (k * k * cin * cout) as u64,
            LayerKind::DwConv { k, c, .. } => (k * k * c) as u64,
            LayerKind::Linear { cin, cout } => (cin * cout + cout) as u64,
            LayerKind::Pool { .. } | LayerKind::GlobalPool { .. } => 0,
        }
    }

    /// Input activation element count.
    pub fn input_elems(&self) -> u64 {
        let hw = (self.h_in * self.w_in) as u64;
        match self.kind {
            LayerKind::Conv { cin, .. } => hw * cin as u64,
            LayerKind::DwConv { c, .. }
            | LayerKind::Pool { c, .. }
            | LayerKind::GlobalPool { c } => hw * c as u64,
            LayerKind::Linear { cin, .. } => cin as u64,
        }
    }

    /// Output activation element count.
    pub fn output_elems(&self) -> u64 {
        let hw = (self.h_out * self.w_out) as u64;
        match self.kind {
            LayerKind::Conv { cout, .. } => hw * cout as u64,
            LayerKind::DwConv { c, .. } | LayerKind::Pool { c, .. } => hw * c as u64,
            LayerKind::Linear { cout, .. } => cout as u64,
            LayerKind::GlobalPool { c } => c as u64,
        }
    }

    /// Whether this layer runs on the MAC array (pooling and global pooling
    /// are handled by a lightweight vector unit in the simulator).
    pub fn is_matrix_layer(&self) -> bool {
        matches!(
            self.kind,
            LayerKind::Conv { .. } | LayerKind::DwConv { .. } | LayerKind::Linear { .. }
        )
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        match self.kind {
            LayerKind::Conv { cout, .. } => cout,
            LayerKind::DwConv { c, .. }
            | LayerKind::Pool { c, .. }
            | LayerKind::GlobalPool { c } => c,
            LayerKind::Linear { cout, .. } => cout,
        }
    }
}

impl fmt::Display for LayerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:?} {}x{} -> {}x{}",
            self.name, self.kind, self.h_in, self.w_in, self.h_out, self.w_out
        )
    }
}

/// Aggregate statistics of a compiled network, used as predictor features.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetworkStats {
    /// Total MACs per inference.
    pub total_macs: u64,
    /// Total trainable weights.
    pub total_weights: u64,
    /// Number of layers.
    pub num_layers: usize,
    /// MACs in dense convolutions.
    pub conv_macs: u64,
    /// MACs in depthwise convolutions.
    pub dw_macs: u64,
    /// Total activation elements moved (inputs + outputs).
    pub act_elems: u64,
    /// Largest single-layer output activation.
    pub max_act_elems: u64,
    /// Layers with 5x5 kernels.
    pub k5_layers: usize,
    /// Pooling layers.
    pub pool_layers: usize,
}

impl NetworkStats {
    /// Computes statistics over a layer list.
    pub fn from_layers(layers: &[LayerSpec]) -> Self {
        let mut s = NetworkStats {
            num_layers: layers.len(),
            ..Default::default()
        };
        for l in layers {
            let m = l.macs();
            s.total_macs += m;
            s.total_weights += l.weights();
            s.act_elems += l.input_elems() + l.output_elems();
            s.max_act_elems = s.max_act_elems.max(l.output_elems());
            match l.kind {
                LayerKind::Conv { k, .. } => {
                    s.conv_macs += m;
                    if k == 5 {
                        s.k5_layers += 1;
                    }
                }
                LayerKind::DwConv { k, .. } => {
                    s.dw_macs += m;
                    if k == 5 {
                        s.k5_layers += 1;
                    }
                }
                LayerKind::Pool { .. } => s.pool_layers += 1,
                _ => {}
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(k: usize, stride: usize, cin: usize, cout: usize, h: usize) -> LayerSpec {
        LayerSpec {
            name: "t".into(),
            kind: LayerKind::Conv {
                k,
                stride,
                cin,
                cout,
            },
            h_in: h,
            w_in: h,
            h_out: h / stride,
            w_out: h / stride,
        }
    }

    #[test]
    fn conv_macs_formula() {
        let l = conv(3, 1, 16, 32, 8);
        assert_eq!(l.macs(), 8 * 8 * 9 * 16 * 32);
        assert_eq!(l.weights(), 9 * 16 * 32);
        assert_eq!(l.input_elems(), 8 * 8 * 16);
        assert_eq!(l.output_elems(), 8 * 8 * 32);
    }

    #[test]
    fn dwconv_macs_smaller_than_conv() {
        let d = LayerSpec {
            name: "d".into(),
            kind: LayerKind::DwConv {
                k: 3,
                stride: 1,
                c: 16,
            },
            h_in: 8,
            w_in: 8,
            h_out: 8,
            w_out: 8,
        };
        assert_eq!(d.macs(), 8 * 8 * 9 * 16);
        assert!(d.macs() < conv(3, 1, 16, 16, 8).macs());
    }

    #[test]
    fn pool_has_no_weights() {
        let p = LayerSpec {
            name: "p".into(),
            kind: LayerKind::Pool {
                k: 3,
                stride: 2,
                c: 8,
                pooling: PoolKind::Max,
            },
            h_in: 8,
            w_in: 8,
            h_out: 4,
            w_out: 4,
        };
        assert_eq!(p.weights(), 0);
        assert!(!p.is_matrix_layer());
    }

    #[test]
    fn linear_counts() {
        let l = LayerSpec {
            name: "fc".into(),
            kind: LayerKind::Linear { cin: 64, cout: 10 },
            h_in: 1,
            w_in: 1,
            h_out: 1,
            w_out: 1,
        };
        assert_eq!(l.macs(), 640);
        assert_eq!(l.weights(), 650);
        assert!(l.is_matrix_layer());
    }

    #[test]
    fn stats_aggregate() {
        let layers = vec![conv(3, 1, 3, 8, 16), conv(5, 2, 8, 16, 16)];
        let s = NetworkStats::from_layers(&layers);
        assert_eq!(s.num_layers, 2);
        assert_eq!(s.total_macs, layers[0].macs() + layers[1].macs());
        assert_eq!(s.k5_layers, 1);
        assert_eq!(s.conv_macs, s.total_macs);
        assert_eq!(s.dw_macs, 0);
    }
}
