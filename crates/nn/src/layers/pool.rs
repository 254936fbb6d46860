//! Pooling over the time axis of channels-major packed rows.

use super::{Layer, Mode};
use crate::scratch::Scratch;
use crate::tensor::Tensor;

/// Global average pooling: collapses a `(channels, time)` packed row of
/// width `channels * time_len` into a `channels`-wide row by averaging each
/// channel over time. Bridges the convolutional trunk of a TCN to its dense
/// regression head.
#[derive(Clone)]
pub struct GlobalAvgPool1d {
    channels: usize,
    time_len: usize,
    cached_batch: Option<usize>,
}

impl GlobalAvgPool1d {
    /// # Panics
    /// Panics on zero-sized dimensions.
    pub fn new(channels: usize, time_len: usize) -> Self {
        assert!(
            channels > 0 && time_len > 0,
            "GlobalAvgPool1d: dimensions must be positive"
        );
        GlobalAvgPool1d {
            channels,
            time_len,
            cached_batch: None,
        }
    }
}

impl Layer for GlobalAvgPool1d {
    fn forward_scratch(&mut self, input: &Tensor, _mode: Mode, scratch: &mut Scratch) -> Tensor {
        assert_eq!(
            input.cols(),
            self.channels * self.time_len,
            "GlobalAvgPool1d: expected {} features, got {}",
            self.channels * self.time_len,
            input.cols()
        );
        let inv = 1.0 / self.time_len as f64;
        let mut out = scratch.take(input.rows(), self.channels);
        for (x_row, y_row) in input
            .iter_rows()
            .zip(out.as_mut_slice().chunks_exact_mut(self.channels))
        {
            for (c, y) in y_row.iter_mut().enumerate() {
                let x_c = &x_row[c * self.time_len..(c + 1) * self.time_len];
                *y = x_c.iter().sum::<f64>() * inv;
            }
        }
        self.cached_batch = Some(input.rows());
        out
    }

    fn backward_scratch(&mut self, grad_output: &Tensor, scratch: &mut Scratch) -> Tensor {
        let batch = self
            .cached_batch
            .expect("GlobalAvgPool1d::backward called before forward");
        assert_eq!(
            grad_output.shape(),
            (batch, self.channels),
            "GlobalAvgPool1d: grad shape mismatch"
        );
        let inv = 1.0 / self.time_len as f64;
        let mut grad_input = scratch.take(batch, self.channels * self.time_len);
        for (g_row, gx_row) in grad_output.iter_rows().zip(
            grad_input
                .as_mut_slice()
                .chunks_exact_mut(self.channels * self.time_len),
        ) {
            for (c, &g) in g_row.iter().enumerate() {
                let v = g * inv;
                for gx in &mut gx_row[c * self.time_len..(c + 1) * self.time_len] {
                    *gx = v;
                }
            }
        }
        grad_input
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool1d"
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        assert_eq!(
            input_dim,
            self.channels * self.time_len,
            "GlobalAvgPool1d: wired after {} features, expects {}",
            input_dim,
            self.channels * self.time_len
        );
        self.channels
    }

    fn input_dim(&self) -> Option<usize> {
        Some(self.channels * self.time_len)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_each_channel() {
        let mut pool = GlobalAvgPool1d::new(2, 3);
        let x = Tensor::from_vec(1, 6, vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0]);
        let y = pool.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[2.0, 20.0]);
    }

    #[test]
    fn backward_spreads_gradient_uniformly() {
        let mut pool = GlobalAvgPool1d::new(2, 4);
        let x = Tensor::zeros(2, 8);
        let _ = pool.forward(&x, Mode::Train);
        let g = Tensor::from_vec(2, 2, vec![4.0, 8.0, 12.0, 16.0]);
        let dx = pool.backward(&g);
        assert_eq!(dx.row(0), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
        assert_eq!(dx.row(1), &[3.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn output_dim_contract() {
        let pool = GlobalAvgPool1d::new(5, 7);
        assert_eq!(pool.output_dim(35), 5);
    }

    #[test]
    #[should_panic(expected = "GlobalAvgPool1d: expected")]
    fn rejects_wrong_width() {
        GlobalAvgPool1d::new(2, 3).forward(&Tensor::zeros(1, 7), Mode::Eval);
    }
}
