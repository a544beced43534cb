//! Network skeleton: compiles a [`Genotype`] into the concrete stack of
//! cells and the per-layer workload ([`LayerSpec`] list) shared by the
//! trainer and the accelerator simulator.

use crate::genotype::{CellGenotype, Genotype, NODES_PER_CELL};
use crate::layer::{LayerKind, LayerSpec, NetworkStats, PoolKind};
use crate::op::Op;

/// Macro-architecture parameters: everything about the network that is
/// *not* searched (paper §IV-B: 6 blocks — 4 normal + 2 reduction cells).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkSkeleton {
    /// Input image height/width (square).
    pub input_hw: usize,
    /// Input channels (3 for RGB).
    pub input_channels: usize,
    /// Classifier classes.
    pub num_classes: usize,
    /// Channel count of the first cell (doubled at each reduction).
    pub init_channels: usize,
    /// Total number of cells.
    pub num_cells: usize,
    /// Indices (0-based) of reduction cells.
    pub reduction_positions: Vec<usize>,
}

impl NetworkSkeleton {
    /// Evenly spaced reduction positions for `num_cells` with `reductions`
    /// reduction cells, mirroring NASNet-style placement.
    pub fn evenly_spaced(num_cells: usize, reductions: usize) -> Vec<usize> {
        (1..=reductions)
            .map(|i| i * num_cells / (reductions + 1))
            .collect()
    }

    /// The paper's evaluation skeleton: 6 cells (4 normal + 2 reduction).
    /// Input resolution and width are CPU-scaled (see DESIGN.md).
    pub fn paper_default() -> Self {
        NetworkSkeleton {
            input_hw: 16,
            input_channels: 3,
            num_classes: 10,
            init_channels: 16,
            num_cells: 6,
            reduction_positions: Self::evenly_spaced(6, 2),
        }
    }

    /// A mid-scale skeleton for CPU experiment drivers: 4 cells
    /// (2 normal + 2 reduction), 12x12 input, 8 channels. Keeps full
    /// trainings in the tens of seconds while preserving the paper
    /// skeleton's normal/reduction alternation.
    pub fn small() -> Self {
        NetworkSkeleton {
            input_hw: 12,
            input_channels: 3,
            num_classes: 10,
            init_channels: 8,
            num_cells: 4,
            reduction_positions: Self::evenly_spaced(4, 2),
        }
    }

    /// A small skeleton for fast unit tests: 3 cells (2 normal +
    /// 1 reduction), 8x8 input, 8 channels.
    pub fn tiny() -> Self {
        NetworkSkeleton {
            input_hw: 8,
            input_channels: 3,
            num_classes: 10,
            init_channels: 8,
            num_cells: 3,
            reduction_positions: vec![1],
        }
    }

    /// Whether the cell at `idx` is a reduction cell.
    pub fn is_reduction(&self, idx: usize) -> bool {
        self.reduction_positions.contains(&idx)
    }

    /// Compiles a genotype into a full [`NetworkPlan`].
    ///
    /// # Panics
    ///
    /// Panics if the genotype is invalid or the skeleton reduces the
    /// spatial size below 1x1.
    pub fn compile(&self, genotype: &Genotype) -> NetworkPlan {
        assert!(genotype.is_valid(), "invalid genotype");
        let mut layers = Vec::new();
        let stem_c = self.init_channels;
        layers.push(LayerSpec {
            name: "stem".into(),
            kind: LayerKind::Conv {
                k: 3,
                stride: 1,
                cin: self.input_channels,
                cout: stem_c,
            },
            h_in: self.input_hw,
            w_in: self.input_hw,
            h_out: self.input_hw,
            w_out: self.input_hw,
        });

        let mut cells = Vec::with_capacity(self.num_cells);
        // (channels, spatial) of the two producer cells feeding the next one.
        let mut s0 = (stem_c, self.input_hw);
        let mut s1 = (stem_c, self.input_hw);
        let mut c_cur = self.init_channels;
        for idx in 0..self.num_cells {
            let is_reduction = self.is_reduction(idx);
            if is_reduction {
                c_cur *= 2;
            }
            let cell_geno = if is_reduction {
                genotype.reduction
            } else {
                genotype.normal
            };
            let h_in = s1.1;
            if is_reduction {
                assert!(h_in >= 2, "cannot reduce below 1x1");
                assert!(
                    h_in.is_multiple_of(2),
                    "reduction cell at odd resolution {h_in}: input_hw must be \
                     divisible by 2^(reductions)"
                );
            }
            let h_out = if is_reduction { h_in / 2 } else { h_in };
            let plan = CellPlan {
                index: idx,
                is_reduction,
                genotype: cell_geno,
                c: c_cur,
                c_in0: s0.0,
                c_in1: s1.0,
                h_in0: s0.1,
                h_in1: s1.1,
                h_out,
                out_channels: cell_geno.output_arity() * c_cur,
            };
            plan.emit_layers(&mut layers);
            s0 = s1;
            s1 = (plan.out_channels, h_out);
            cells.push(plan);
        }

        let (c_last, h_last) = s1;
        layers.push(LayerSpec {
            name: "gap".into(),
            kind: LayerKind::GlobalPool { c: c_last },
            h_in: h_last,
            w_in: h_last,
            h_out: 1,
            w_out: 1,
        });
        layers.push(LayerSpec {
            name: "classifier".into(),
            kind: LayerKind::Linear {
                cin: c_last,
                cout: self.num_classes,
            },
            h_in: 1,
            w_in: 1,
            h_out: 1,
            w_out: 1,
        });
        let stats = NetworkStats::from_layers(&layers);
        NetworkPlan {
            skeleton: self.clone(),
            genotype: *genotype,
            cells,
            layers,
            stats,
        }
    }
}

/// Concrete plan of one cell instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellPlan {
    /// Position of this cell in the stack.
    pub index: usize,
    /// Whether this instance is a reduction cell.
    pub is_reduction: bool,
    /// The cell genotype instantiated here.
    pub genotype: CellGenotype,
    /// Internal channel count.
    pub c: usize,
    /// Channels of input 0 (output of cell `index - 2`, or the stem).
    pub c_in0: usize,
    /// Channels of input 1 (output of cell `index - 1`, or the stem).
    pub c_in1: usize,
    /// Spatial size of input 0.
    pub h_in0: usize,
    /// Spatial size of input 1.
    pub h_in1: usize,
    /// Spatial size of every internal node (and the cell output).
    pub h_out: usize,
    /// Output channels: `output_arity * c`.
    pub out_channels: usize,
}

impl CellPlan {
    /// Stride applied by an op reading from node `input_idx`.
    pub fn op_stride(&self, input_idx: usize) -> usize {
        if self.is_reduction && input_idx < 2 {
            2
        } else {
            1
        }
    }

    /// Spatial size at which node `idx` (0..7) lives *after* preprocessing.
    pub fn node_spatial(&self, idx: usize) -> usize {
        if idx < 2 {
            self.h_in1 // both inputs are preprocessed to the cell input size
        } else {
            self.h_out
        }
    }

    /// Stride of the input-0 preprocessing conv (2 when the previous cell
    /// halved resolution, i.e. factorized reduce).
    pub fn prep0_stride(&self) -> usize {
        debug_assert!(self.h_in0 == self.h_in1 || self.h_in0 == 2 * self.h_in1);
        self.h_in0 / self.h_in1
    }

    /// Appends this cell's layers to `out` in execution order.
    pub fn emit_layers(&self, out: &mut Vec<LayerSpec>) {
        let base = format!("cell{}", self.index);
        // Input preprocessing: 1x1 convs bringing both inputs to `c`
        // channels at the cell input resolution.
        out.push(LayerSpec {
            name: format!("{base}.prep0"),
            kind: LayerKind::Conv {
                k: 1,
                stride: self.prep0_stride(),
                cin: self.c_in0,
                cout: self.c,
            },
            h_in: self.h_in0,
            w_in: self.h_in0,
            h_out: self.h_in1,
            w_out: self.h_in1,
        });
        out.push(LayerSpec {
            name: format!("{base}.prep1"),
            kind: LayerKind::Conv {
                k: 1,
                stride: 1,
                cin: self.c_in1,
                cout: self.c,
            },
            h_in: self.h_in1,
            w_in: self.h_in1,
            h_out: self.h_in1,
            w_out: self.h_in1,
        });
        for (ni, gene) in self.genotype.nodes.iter().enumerate() {
            let node_idx = ni + 2;
            for (slot, (inp, op)) in [(gene.in1, gene.op1), (gene.in2, gene.op2)]
                .into_iter()
                .enumerate()
            {
                let stride = self.op_stride(inp);
                let h_in = self.node_spatial(inp);
                let h_out = self.h_out;
                debug_assert_eq!(h_in / stride, h_out);
                let name = format!("{base}.n{node_idx}.op{}", slot + 1);
                self.emit_op(op, stride, h_in, h_out, &name, out);
            }
        }
    }

    fn emit_op(
        &self,
        op: Op,
        stride: usize,
        h_in: usize,
        h_out: usize,
        name: &str,
        out: &mut Vec<LayerSpec>,
    ) {
        let c = self.c;
        match op {
            Op::Conv3 | Op::Conv5 => out.push(LayerSpec {
                name: name.to_string(),
                kind: LayerKind::Conv {
                    k: op.kernel(),
                    stride,
                    cin: c,
                    cout: c,
                },
                h_in,
                w_in: h_in,
                h_out,
                w_out: h_out,
            }),
            Op::DwConv3 | Op::DwConv5 => {
                out.push(LayerSpec {
                    name: format!("{name}.dw"),
                    kind: LayerKind::DwConv {
                        k: op.kernel(),
                        stride,
                        c,
                    },
                    h_in,
                    w_in: h_in,
                    h_out,
                    w_out: h_out,
                });
                out.push(LayerSpec {
                    name: format!("{name}.pw"),
                    kind: LayerKind::Conv {
                        k: 1,
                        stride: 1,
                        cin: c,
                        cout: c,
                    },
                    h_in: h_out,
                    w_in: h_out,
                    h_out,
                    w_out: h_out,
                });
            }
            Op::MaxPool | Op::AvgPool => out.push(LayerSpec {
                name: name.to_string(),
                kind: LayerKind::Pool {
                    k: 3,
                    stride,
                    c,
                    pooling: if op == Op::MaxPool {
                        PoolKind::Max
                    } else {
                        PoolKind::Avg
                    },
                },
                h_in,
                w_in: h_in,
                h_out,
                w_out: h_out,
            }),
        }
    }
}

/// A fully compiled network: the cells plus the flat layer workload.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkPlan {
    /// The skeleton used for compilation.
    pub skeleton: NetworkSkeleton,
    /// The genotype that was compiled.
    pub genotype: Genotype,
    /// Per-cell plans, in execution order.
    pub cells: Vec<CellPlan>,
    /// Flat layer workload (stem, cells, global pool, classifier).
    pub layers: Vec<LayerSpec>,
    /// Aggregate statistics over [`NetworkPlan::layers`].
    pub stats: NetworkStats,
}

impl NetworkPlan {
    /// Channels of the tensor feeding the classifier.
    pub fn final_channels(&self) -> usize {
        self.cells
            .last()
            .map_or(self.skeleton.init_channels, |c| c.out_channels)
    }
}

/// Number of nodes per cell re-exported for convenience.
pub const CELL_NODES: usize = NODES_PER_CELL;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_default_shape() {
        let sk = NetworkSkeleton::paper_default();
        assert_eq!(sk.num_cells, 6);
        assert_eq!(sk.reduction_positions, vec![2, 4]);
        assert_eq!(sk.num_cells - sk.reduction_positions.len(), 4);
    }

    #[test]
    fn compile_produces_consistent_plan() {
        let mut rng = StdRng::seed_from_u64(0);
        let sk = NetworkSkeleton::paper_default();
        for _ in 0..50 {
            let g = Genotype::random(&mut rng);
            let plan = sk.compile(&g);
            assert_eq!(plan.cells.len(), 6);
            // Spatial sizes: 16 -> 16 -> (r) 8 -> 8 -> (r) 4 -> 4.
            assert_eq!(plan.cells[0].h_out, 16);
            assert_eq!(plan.cells[2].h_out, 8);
            assert_eq!(plan.cells[4].h_out, 4);
            assert_eq!(plan.cells[5].h_out, 4);
            // Channels double at each reduction.
            assert_eq!(plan.cells[0].c, 16);
            assert_eq!(plan.cells[2].c, 32);
            assert_eq!(plan.cells[4].c, 64);
            // Stats are non-trivial.
            assert!(plan.stats.total_macs > 100_000);
            assert!(plan.stats.total_weights > 1_000);
            assert_eq!(
                plan.final_channels(),
                plan.cells[5].genotype.output_arity() * 64
            );
        }
    }

    #[test]
    fn layer_shapes_chain() {
        // Each op layer's input resolution over stride equals its output.
        let mut rng = StdRng::seed_from_u64(1);
        let sk = NetworkSkeleton::paper_default();
        let g = Genotype::random(&mut rng);
        let plan = sk.compile(&g);
        for l in &plan.layers {
            match l.kind {
                LayerKind::Conv { stride, .. }
                | LayerKind::DwConv { stride, .. }
                | LayerKind::Pool { stride, .. } => {
                    assert_eq!(l.h_in / stride, l.h_out, "{l}");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn reduction_cell_ops_on_inputs_get_stride_two() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = Genotype::random(&mut rng);
        let sk = NetworkSkeleton::tiny();
        let plan = sk.compile(&g);
        let red = plan.cells.iter().find(|c| c.is_reduction).unwrap();
        assert_eq!(red.op_stride(0), 2);
        assert_eq!(red.op_stride(1), 2);
        assert_eq!(red.op_stride(3), 1);
        let norm = plan.cells.iter().find(|c| !c.is_reduction).unwrap();
        assert_eq!(norm.op_stride(0), 1);
    }

    #[test]
    fn more_output_nodes_means_wider_cells() {
        // A genotype whose internal nodes chain (each feeds the next) has
        // one output node; a star genotype (all read inputs) has five.
        use crate::genotype::NodeGene;
        use crate::op::Op;
        let chain = CellGenotype {
            nodes: [
                NodeGene {
                    in1: 0,
                    op1: Op::Conv3,
                    in2: 1,
                    op2: Op::Conv3,
                },
                NodeGene {
                    in1: 2,
                    op1: Op::Conv3,
                    in2: 0,
                    op2: Op::Conv3,
                },
                NodeGene {
                    in1: 3,
                    op1: Op::Conv3,
                    in2: 0,
                    op2: Op::Conv3,
                },
                NodeGene {
                    in1: 4,
                    op1: Op::Conv3,
                    in2: 0,
                    op2: Op::Conv3,
                },
                NodeGene {
                    in1: 5,
                    op1: Op::Conv3,
                    in2: 0,
                    op2: Op::Conv3,
                },
            ],
        };
        let star = CellGenotype {
            nodes: [
                NodeGene {
                    in1: 0,
                    op1: Op::Conv3,
                    in2: 1,
                    op2: Op::Conv3,
                },
                NodeGene {
                    in1: 0,
                    op1: Op::Conv3,
                    in2: 1,
                    op2: Op::Conv3,
                },
                NodeGene {
                    in1: 0,
                    op1: Op::Conv3,
                    in2: 1,
                    op2: Op::Conv3,
                },
                NodeGene {
                    in1: 0,
                    op1: Op::Conv3,
                    in2: 1,
                    op2: Op::Conv3,
                },
                NodeGene {
                    in1: 0,
                    op1: Op::Conv3,
                    in2: 1,
                    op2: Op::Conv3,
                },
            ],
        };
        assert_eq!(chain.output_arity(), 1);
        assert_eq!(star.output_arity(), 5);
        let sk = NetworkSkeleton::tiny();
        let g_chain = Genotype {
            normal: chain,
            reduction: chain,
        };
        let g_star = Genotype {
            normal: star,
            reduction: star,
        };
        let p_chain = sk.compile(&g_chain);
        let p_star = sk.compile(&g_star);
        assert!(p_star.final_channels() > p_chain.final_channels());
    }

    #[test]
    fn tiny_skeleton_compiles() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = Genotype::random(&mut rng);
        let plan = NetworkSkeleton::tiny().compile(&g);
        assert_eq!(plan.cells.len(), 3);
        assert!(plan.layers.len() > 10);
        // First layer is the stem, last is the classifier.
        assert_eq!(plan.layers.first().unwrap().name, "stem");
        assert_eq!(plan.layers.last().unwrap().name, "classifier");
    }
}
