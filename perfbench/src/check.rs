//! Property checks on the served model: packed bytes against the format's
//! arithmetic, dequantized weights against their channel grids, and
//! logits against an f64 reference forward over the dequantized weights.

use fineq::core::{PackedChannel, PackedMatrix};
use fineq::lm::{Activation, Transformer, WeightSite};
use fineq::tensor::Matrix;

/// Weights per cluster and clusters per 7-byte block of the 2.33-bit
/// format; each channel also stores two fp16 scales.
const CLUSTER_WEIGHTS: usize = 3;
const BLOCK_CLUSTERS: usize = 8;
const BLOCK_BYTES: usize = 7;
const SCALE_BYTES: usize = 2 * 2;

/// Stored bytes of a `rows x cols` packed site, from the format alone:
/// every channel holds `ceil(ceil(cols / 3) / 8)` whole 7-byte blocks
/// plus its two fp16 scales.
pub fn packed_site_bytes(rows: usize, cols: usize) -> usize {
    let blocks = cols.div_ceil(CLUSTER_WEIGHTS).div_ceil(BLOCK_CLUSTERS);
    rows * (blocks * BLOCK_BYTES + SCALE_BYTES)
}

/// Whether `v` lies on the symmetric grid `{k * scale : |k| <= qmax}`.
fn on_grid(v: f32, scale: f32, qmax: i32) -> bool {
    if scale == 0.0 {
        return v == 0.0;
    }
    let k = (v / scale).round();
    k.abs() <= qmax as f32 && (v - k * scale).abs() <= 4.0 * f32::EPSILON * (k * scale).abs()
}

/// Every dequantized weight of `ch` lies on its 2-bit grid
/// (`{-1, 0, 1} * scale2`) or its 3-bit grid (`{-3..=3} * scale3`).
fn channel_on_grids(ch: &PackedChannel) -> Result<(), String> {
    for (i, v) in ch.dequantize().into_iter().enumerate() {
        if !(on_grid(v, ch.scale2(), 1) || on_grid(v, ch.scale3(), 3)) {
            return Err(format!(
                "weight {i} = {v} is on neither grid (scale2 {}, scale3 {})",
                ch.scale2(),
                ch.scale3()
            ));
        }
    }
    Ok(())
}

/// Checks every block site of `model`: it is packed, its stored bytes
/// equal [`packed_site_bytes`] of its shape, and its weights lie on their
/// channel grids. Returns the body's packed bytes.
pub fn check_packed_sites(model: &Transformer) -> Result<usize, String> {
    let mut total = 0;
    for layer in 0..model.n_layers() {
        for site in WeightSite::ALL {
            let w = model.weight(layer, site);
            let p: &PackedMatrix = w
                .as_packed()
                .ok_or_else(|| format!("layer {layer} {} is not packed", site.label()))?;
            let expect = packed_site_bytes(p.rows(), p.cols());
            if w.footprint_bytes() != expect || p.storage_bytes() != expect {
                return Err(format!(
                    "layer {layer} {}: {} stored bytes, the format gives {expect}",
                    site.label(),
                    w.footprint_bytes()
                ));
            }
            for (r, ch) in p.channels().iter().enumerate() {
                channel_on_grids(ch)
                    .map_err(|e| format!("layer {layer} {} channel {r}: {e}", site.label()))?;
            }
            total += expect;
        }
    }
    Ok(total)
}

/// A row-major f64 matrix.
struct Mat64 {
    cols: usize,
    data: Vec<f64>,
}

impl Mat64 {
    fn from_f32(m: &Matrix) -> Self {
        Mat64 { cols: m.cols(), data: m.as_slice().iter().map(|&x| f64::from(x)).collect() }
    }

    fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    fn rows(&self) -> usize {
        self.data.len() / self.cols
    }

    /// `x W^T` for one input row.
    fn apply(&self, x: &[f64]) -> Vec<f64> {
        (0..self.rows()).map(|r| self.row(r).iter().zip(x).map(|(w, v)| w * v).sum()).collect()
    }
}

fn rmsnorm(x: &[f64]) -> Vec<f64> {
    let ms = x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64;
    let inv = 1.0 / (ms + 1e-6).sqrt();
    x.iter().map(|v| v * inv).collect()
}

/// Site weights as f64: packed sites through [`PackedMatrix::dequantize`].
fn site_weights(model: &Transformer, layer: usize, site: WeightSite) -> Mat64 {
    let w = model.weight(layer, site);
    match w.as_packed() {
        Some(p) => Mat64::from_f32(&p.dequantize()),
        None => Mat64::from_f32(w.dense()),
    }
}

/// Logits of every position of `tokens`, computed in f64 with the
/// model's architecture (pre-norm blocks, ALiBi causal attention, the
/// configured FFN activation, final RMS norm, fp32 readout head).
pub fn reference_logits(model: &Transformer, tokens: &[usize]) -> Vec<Vec<f64>> {
    let cfg = model.config();
    let (d, dh) = (cfg.d_model, cfg.d_head());
    let embedding = Mat64::from_f32(model.embedding());
    let mut h: Vec<Vec<f64>> = tokens.iter().map(|&t| embedding.row(t).to_vec()).collect();
    for layer in 0..model.n_layers() {
        let w = |site| site_weights(model, layer, site);
        let (wq, wk, wv, wo) = (
            w(WeightSite::AttnQ),
            w(WeightSite::AttnK),
            w(WeightSite::AttnV),
            w(WeightSite::AttnO),
        );
        let xs: Vec<Vec<f64>> = h.iter().map(|r| rmsnorm(r)).collect();
        let q: Vec<Vec<f64>> = xs.iter().map(|x| wq.apply(x)).collect();
        let k: Vec<Vec<f64>> = xs.iter().map(|x| wk.apply(x)).collect();
        let v: Vec<Vec<f64>> = xs.iter().map(|x| wv.apply(x)).collect();
        for t in 0..tokens.len() {
            let mut ctx = vec![0.0f64; d];
            for (head, &slope) in cfg.alibi_slopes.iter().enumerate() {
                let off = head * dh;
                let scores: Vec<f64> = (0..=t)
                    .map(|j| {
                        let dot: f64 = (off..off + dh).map(|c| q[t][c] * k[j][c]).sum::<f64>();
                        dot / (dh as f64).sqrt() - f64::from(slope) * (t - j) as f64
                    })
                    .collect();
                let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<f64> = scores.iter().map(|s| (s - max).exp()).collect();
                let z: f64 = exps.iter().sum();
                for (j, e) in exps.iter().enumerate() {
                    for c in off..off + dh {
                        ctx[c] += e / z * v[j][c];
                    }
                }
            }
            for (hv, o) in h[t].iter_mut().zip(wo.apply(&ctx)) {
                *hv += o;
            }
        }
        let (w1, w2) = (w(WeightSite::FfnUp), w(WeightSite::FfnDown));
        for row in h.iter_mut() {
            let mid: Vec<f64> = w1
                .apply(&rmsnorm(row))
                .into_iter()
                .map(|m| match cfg.activation {
                    Activation::Relu => m.max(0.0),
                    Activation::Silu => m / (1.0 + (-m).exp()),
                })
                .collect();
            for (hv, o) in row.iter_mut().zip(w2.apply(&mid)) {
                *hv += o;
            }
        }
    }
    let head = Mat64::from_f32(model.head());
    h.iter().map(|r| head.apply(&rmsnorm(r))).collect()
}

/// Logit tolerance of the reference check: `|logit - ref| <= TOL * (1 + |ref|)`.
pub const LOGIT_TOL: f64 = 1e-3;

/// Compares the model's own fp32 forward (packed kernels) with the f64
/// reference at every position of `tokens`. Returns the largest
/// tolerance-normalised error (at most 1 when the check passes).
pub fn check_logits(model: &Transformer, tokens: &[usize]) -> Result<f64, String> {
    let got = model.forward(tokens);
    let want = reference_logits(model, tokens);
    let mut worst = 0.0f64;
    for (t, want_row) in want.iter().enumerate() {
        for (c, &r) in want_row.iter().enumerate() {
            let err = (f64::from(got.row(t)[c]) - r).abs() / (LOGIT_TOL * (1.0 + r.abs()));
            if err.is_nan() || err > 1.0 {
                return Err(format!(
                    "position {t} logit {c}: model {} vs f64 reference {r}",
                    got.row(t)[c]
                ));
            }
            worst = worst.max(err);
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fineq::core::FineQuantizer;
    use fineq::lm::ModelConfig;

    #[test]
    fn packed_bytes_follow_the_format_arithmetic() {
        // 24 weights: 8 clusters, one block (7 bytes) + 4 scale bytes.
        assert_eq!(packed_site_bytes(1, 24), 11);
        // 25 weights: 9 clusters spill into a second block.
        assert_eq!(packed_site_bytes(1, 25), 18);
        // The decode_large attention site: 1024 columns = 342 clusters
        // = 43 blocks = 301 bytes per channel, plus scales.
        assert_eq!(packed_site_bytes(1024, 1024), 1024 * 305);
        let w = Matrix::from_fn(5, 50, |r, c| ((r * 7 + c * 3) % 11) as f32 - 5.0);
        let p = FineQuantizer::paper().quantize_packed(&w);
        assert_eq!(p.storage_bytes(), packed_site_bytes(5, 50));
    }

    #[test]
    fn grid_membership_accepts_grid_points_only() {
        assert!(on_grid(0.0, 0.5, 1));
        assert!(on_grid(-0.5, 0.5, 1));
        assert!(!on_grid(1.0, 0.5, 1));
        assert!(on_grid(1.5, 0.5, 3));
        assert!(!on_grid(0.7, 0.5, 3));
        assert!(on_grid(0.0, 0.0, 3));
        assert!(!on_grid(0.1, 0.0, 3));
        let w = Matrix::from_fn(4, 30, |r, c| ((r * 5 + c) % 9) as f32 * 0.1 - 0.4);
        let p = FineQuantizer::paper().quantize_packed(&w);
        for ch in p.channels() {
            channel_on_grids(ch).expect("quantizer output lies on its grids");
        }
    }

    /// One layer, one head, `d_model = d_ff = 2`, identity Q/K/V/O/FFN
    /// weights, embeddings `[1, 1]` and `[1, -1]`, head `diag(1, 2)`.
    ///
    /// Position 0: `x = [1, 1]`, attention sees only itself so
    /// `h = [2, 2]`, the FFN adds `relu([1, 1])`: `h = [3, 3]`, logits
    /// `[1, 2]`. Position 1: `x = [1, -1]`, scores `[0, 2 / sqrt 2]`
    /// give weights `[0.19557, 0.80443]`, `ctx = [1, -0.60886]`,
    /// `h = [2, -1.60886]`; the FFN adds `relu(h / rms(h)) = [1.10193, 0]`,
    /// so `h = [3.10193, -1.60886]` and logits `[1.25540, -1.30226]`
    /// (RMS-norm epsilon 1e-6 below the tolerance).
    #[test]
    fn reference_forward_matches_a_hand_computed_case() {
        let cfg = ModelConfig::new(2, 2, 1, 1, 2);
        let mut m = Transformer::zeros(cfg);
        let eye = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        for site in WeightSite::ALL {
            *m.weight_mut(0, site) = eye.clone().into();
        }
        *m.embedding_mut() = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, -1.0]);
        *m.head_mut() = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 2.0]);
        let got = reference_logits(&m, &[0, 1]);
        let want = [[1.0, 2.0], [1.25540, -1.30226]];
        for (g, w) in got.iter().zip(want) {
            for (a, b) in g.iter().zip(w) {
                assert!((a - b).abs() < 1e-5, "{got:?}");
            }
        }
        // The model's own forward agrees with the reference.
        check_logits(&m, &[0, 1, 1, 0]).expect("fp32 forward within tolerance");
    }
}
