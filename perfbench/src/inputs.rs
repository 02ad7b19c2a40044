//! Seeded inputs: the synthetic dense models and the request streams.
//! Everything here is a pure function of the workload and `--seed`.

use fineq::lm::builder::{llm_like_matrix, BuilderSpec};
use fineq::lm::{ModelConfig, ServeRequest, Transformer, WeightSite};
use fineq::tensor::{Matrix, Rng};

/// SplitMix64: the benchmark's own generator for request streams and
/// arrival times, so inputs do not move when the library's RNG does.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Architecture of a workload's synthetic model.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub vocab: usize,
    pub d_model: usize,
    pub d_ff: usize,
    pub n_layers: usize,
    pub n_heads: usize,
}

/// A dense fp32 model with LLM-like block weights (Laplace bulk with
/// outlier rows, columns and spikes from `llm_like_matrix`) and Gaussian
/// embedding and readout head, drawn from `seed`.
pub fn dense_model(shape: Shape, seed: u64) -> Transformer {
    let cfg =
        ModelConfig::new(shape.vocab, shape.d_model, shape.n_layers, shape.n_heads, shape.d_ff);
    let spec = BuilderSpec::tiny();
    let mut rng = Rng::seed_from(seed);
    let mut m = Transformer::zeros(cfg);
    *m.embedding_mut() = Matrix::from_fn(shape.vocab, shape.d_model, |_, _| rng.normal(0.0, 0.3));
    *m.head_mut() = Matrix::from_fn(shape.vocab, shape.d_model, |_, _| rng.normal(0.0, 0.3));
    for layer in 0..shape.n_layers {
        for site in WeightSite::ALL {
            let (r, c) = (m.weight(layer, site).rows(), m.weight(layer, site).cols());
            *m.weight_mut(layer, site) = llm_like_matrix(r, c, &spec, &mut rng).into();
        }
    }
    m
}

/// How a workload's prompts and output lengths are drawn.
#[derive(Debug, Clone, Copy)]
pub struct RequestMix {
    /// Tokens of the system prefix every prompt starts with (0: none).
    pub shared_prefix: usize,
    /// Tokens after the prefix; the first two encode the request index,
    /// so every prompt of a run is distinct.
    pub unique: usize,
    /// Inclusive range of `max_new_tokens`.
    pub output: (usize, usize),
    pub temperature: f32,
}

impl RequestMix {
    pub fn prompt_len(&self) -> usize {
        self.shared_prefix + self.unique
    }
}

/// The request stream of one run: request `k` depends only on the seed
/// and `k`, never on timing.
#[derive(Debug, Clone)]
pub struct RequestStream {
    mix: RequestMix,
    vocab: usize,
    seed: u64,
    prefix: Vec<usize>,
}

impl RequestStream {
    pub fn new(mix: RequestMix, vocab: usize, seed: u64) -> Self {
        assert!(mix.unique >= 2, "two unique tokens encode the request index");
        let mut rng = SplitMix::new(seed ^ 0x5052_4546_4958);
        let prefix = (0..mix.shared_prefix).map(|_| rng.below(vocab)).collect();
        RequestStream { mix, vocab, seed, prefix }
    }

    /// Request number `k` (its id is `k`).
    pub fn request(&self, k: usize) -> ServeRequest {
        assert!(k < self.vocab * self.vocab, "request index exceeds the encodable range");
        let mut rng = SplitMix::new(self.seed ^ (k as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let mut prompt = self.prefix.clone();
        prompt.push(k % self.vocab);
        prompt.push(k / self.vocab);
        prompt.extend((2..self.mix.unique).map(|_| rng.below(self.vocab)));
        let (lo, hi) = self.mix.output;
        let n = lo + rng.below(hi - lo + 1);
        ServeRequest {
            temperature: self.mix.temperature,
            seed: rng.next_u64(),
            ..ServeRequest::new(k as u64, prompt, n)
        }
    }
}

/// Poisson arrival times (seconds) at `rate` per second over
/// `[0, seconds)`.
pub fn poisson_arrivals(rate: f64, seconds: f64, rng: &mut SplitMix) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_depend_only_on_seed_and_index() {
        let mix = RequestMix { shared_prefix: 4, unique: 3, output: (2, 5), temperature: 0.8 };
        let a = RequestStream::new(mix, 50, 7);
        let b = RequestStream::new(mix, 50, 7);
        assert_eq!(a.request(3), b.request(3));
        assert_ne!(a.request(3).prompt, a.request(4).prompt);
        assert_eq!(a.request(3).prompt[..4], a.request(4).prompt[..4]);
        assert_eq!(a.request(3).prompt.len(), mix.prompt_len());
        let n = a.request(9).max_new_tokens;
        assert!((2..=5).contains(&n));
    }

    #[test]
    fn poisson_arrivals_keep_their_rate() {
        let mut rng = SplitMix::new(1);
        let t = poisson_arrivals(100.0, 50.0, &mut rng);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
        assert!((4700..5300).contains(&t.len()), "{}", t.len());
    }
}
