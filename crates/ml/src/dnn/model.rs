//! The DNN recommender model: embeddings + MLP with manual backprop.

use super::layer::{
    dropout_backward, dropout_forward, relu_backward, relu_forward, AdamParams, AdamState, Linear,
    LinearGrads,
};
use super::tensor::Matrix;
use crate::bytesio::{self, ByteSink, Reader};
use crate::model::{Model, ModelCodecError};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;

const MAGIC: u32 = 0x444e_3031; // "DN01"

/// Hyperparameters of the DNN recommender (defaults = paper §IV-A3b).
#[derive(Debug, Clone, PartialEq)]
pub struct DnnHyperParams {
    /// Embedding dimension (paper: 20).
    pub k: usize,
    /// Hidden layer widths (4 hidden Linear+ReLU layers).
    pub hidden: Vec<usize>,
    /// Adam settings (paper: η=1e-4, weight decay 1e-5).
    pub adam: AdamParams,
    /// Dropout on the concatenated embedding input (paper: 0.02).
    pub dropout_embedding: f32,
    /// Dropout after the first two hidden layers (paper: 0.15).
    pub dropout_hidden: f32,
    /// Minibatch size per SGD step.
    pub batch_size: usize,
    /// Std of the Gaussian embedding initialization.
    pub init_std: f32,
}

impl Default for DnnHyperParams {
    fn default() -> Self {
        DnnHyperParams {
            k: 20,
            hidden: vec![128, 64, 32, 16],
            adam: AdamParams::default(),
            dropout_embedding: 0.02,
            dropout_hidden: 0.15,
            batch_size: 32,
            init_std: 0.1,
        }
    }
}

/// DNN recommender: `concat(user_emb, item_emb)` → 4×(Linear+ReLU with
/// dropout on the first two) → Linear(→1) → ReLU.
#[derive(Debug, Clone)]
pub struct DnnModel {
    hp: DnnHyperParams,
    num_users: u32,
    num_items: u32,
    global_mean: f32,
    user_emb: Matrix,
    item_emb: Matrix,
    user_seen: Vec<bool>,
    item_seen: Vec<bool>,
    user_adam: AdamState,
    item_adam: AdamState,
    layers: Vec<Linear>,
    t: u64,
}

/// Everything recorded during a training forward pass, consumed by backward.
struct Trace {
    users: Vec<u32>,
    items: Vec<u32>,
    emb_mask: Option<Vec<bool>>,
    /// Input to each linear layer; `layer_inputs[0]` is the (dropped-out)
    /// embedding concat.
    layer_inputs: Vec<Matrix>,
    relu_masks: Vec<Vec<bool>>,
    drop_masks: Vec<Option<Vec<bool>>>,
    out: Matrix,
}

/// Gradients of one minibatch.
struct Grads {
    layer_grads: Vec<LinearGrads>,
    /// Accumulated user-embedding row gradients.
    user_grads: HashMap<u32, Vec<f32>>,
    /// Accumulated item-embedding row gradients.
    item_grads: HashMap<u32, Vec<f32>>,
}

impl DnnModel {
    /// Creates a model; all nodes of a deployment share `seed` so initial
    /// parameters coincide.
    #[must_use]
    pub fn new(
        num_users: u32,
        num_items: u32,
        hp: DnnHyperParams,
        global_mean: f32,
        seed: u64,
    ) -> Self {
        use rand::SeedableRng;
        assert!(!hp.hidden.is_empty(), "need at least one hidden layer");
        let mut rng = StdRng::seed_from_u64(seed);
        let nu = num_users as usize;
        let ni = num_items as usize;
        let user_emb = Matrix::randn(nu, hp.k, hp.init_std, &mut rng);
        let item_emb = Matrix::randn(ni, hp.k, hp.init_std, &mut rng);

        let mut dims = Vec::with_capacity(hp.hidden.len() + 2);
        dims.push(2 * hp.k);
        dims.extend_from_slice(&hp.hidden);
        dims.push(1);
        let layers: Vec<Linear> = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], &mut rng))
            .collect();

        DnnModel {
            user_adam: AdamState::new(nu * hp.k),
            item_adam: AdamState::new(ni * hp.k),
            hp,
            num_users,
            num_items,
            global_mean,
            user_emb,
            item_emb,
            user_seen: vec![false; nu],
            item_seen: vec![false; ni],
            layers,
            t: 0,
        }
    }

    /// Hyperparameters.
    #[must_use]
    pub fn hyper_params(&self) -> &DnnHyperParams {
        &self.hp
    }

    fn gather(&self, users: &[u32], items: &[u32]) -> Matrix {
        let k = self.hp.k;
        let b = users.len();
        let mut x = Matrix::zeros(b, 2 * k);
        for r in 0..b {
            let row = x.row_mut(r);
            row[..k].copy_from_slice(self.user_emb.row(users[r] as usize));
            row[k..].copy_from_slice(self.item_emb.row(items[r] as usize));
        }
        x
    }

    fn forward_train(&self, users: Vec<u32>, items: Vec<u32>, rng: &mut StdRng) -> Trace {
        let mut x = self.gather(&users, &items);
        let emb_mask = dropout_forward(&mut x, self.hp.dropout_embedding, rng);

        let n_hidden = self.hp.hidden.len();
        let mut layer_inputs = Vec::with_capacity(self.layers.len());
        let mut relu_masks = Vec::with_capacity(self.layers.len());
        let mut drop_masks = Vec::with_capacity(n_hidden);

        let mut h = x;
        for (li, layer) in self.layers.iter().enumerate() {
            layer_inputs.push(h.clone());
            let mut z = layer.forward(&h);
            relu_masks.push(relu_forward(&mut z));
            if li < n_hidden {
                // Dropout only on the first two hidden activations (§IV-A3b).
                let p = if li < 2 { self.hp.dropout_hidden } else { 0.0 };
                drop_masks.push(dropout_forward(&mut z, p, rng));
            }
            h = z;
        }
        Trace {
            users,
            items,
            emb_mask,
            layer_inputs,
            relu_masks,
            drop_masks,
            out: h,
        }
    }

    /// Inference forward (no dropout, no trace).
    fn forward_eval(&self, users: &[u32], items: &[u32]) -> Matrix {
        let mut h = self.gather(users, items);
        for layer in &self.layers {
            let mut z = layer.forward(&h);
            let _ = relu_forward(&mut z);
            h = z;
        }
        h
    }

    fn backward(&self, trace: &Trace, targets: &[f32]) -> Grads {
        let b = targets.len();
        let k = self.hp.k;
        let n_hidden = self.hp.hidden.len();

        // dL/dout for L = mean((out - y)²).
        let mut d = Matrix::from_vec(
            b,
            1,
            trace
                .out
                .data()
                .iter()
                .zip(targets)
                .map(|(o, y)| 2.0 * (o - y) / b as f32)
                .collect(),
        );

        let mut layer_grads: Vec<Option<LinearGrads>> =
            (0..self.layers.len()).map(|_| None).collect();
        for li in (0..self.layers.len()).rev() {
            if li < n_hidden {
                let p = if li < 2 { self.hp.dropout_hidden } else { 0.0 };
                dropout_backward(&mut d, &trace.drop_masks[li], p);
            }
            relu_backward(&mut d, &trace.relu_masks[li]);
            let grads = self.layers[li].backward(&trace.layer_inputs[li], &d);
            d = grads.dx.clone();
            layer_grads[li] = Some(grads);
        }

        // d is now dL/d(embedding concat) — undo the embedding dropout.
        dropout_backward(&mut d, &trace.emb_mask, self.hp.dropout_embedding);

        let mut user_grads: HashMap<u32, Vec<f32>> = HashMap::new();
        let mut item_grads: HashMap<u32, Vec<f32>> = HashMap::new();
        for r in 0..b {
            let row = d.row(r);
            let ug = user_grads
                .entry(trace.users[r])
                .or_insert_with(|| vec![0.0; k]);
            for (g, v) in ug.iter_mut().zip(&row[..k]) {
                *g += v;
            }
            let ig = item_grads
                .entry(trace.items[r])
                .or_insert_with(|| vec![0.0; k]);
            for (g, v) in ig.iter_mut().zip(&row[k..]) {
                *g += v;
            }
        }

        Grads {
            layer_grads: layer_grads.into_iter().map(Option::unwrap).collect(),
            user_grads,
            item_grads,
        }
    }

    fn apply(&mut self, grads: &Grads) {
        self.t += 1;
        let hp = self.hp.adam;
        for (layer, g) in self.layers.iter_mut().zip(&grads.layer_grads) {
            layer.apply(g, &hp, self.t);
        }
        let k = self.hp.k;
        for (&u, g) in &grads.user_grads {
            let start = u as usize * k;
            self.user_adam
                .update_range(self.user_emb.data_mut(), g, start, &hp, self.t);
            self.user_seen[u as usize] = true;
        }
        for (&i, g) in &grads.item_grads {
            let start = i as usize * k;
            self.item_adam
                .update_range(self.item_emb.data_mut(), g, start, &hp, self.t);
            self.item_seen[i as usize] = true;
        }
    }

    /// Runs one minibatch training step.
    pub fn train_minibatch(&mut self, batch: &[rex_data::Rating], rng: &mut StdRng) {
        if batch.is_empty() {
            return;
        }
        let users: Vec<u32> = batch.iter().map(|r| r.user).collect();
        let items: Vec<u32> = batch.iter().map(|r| r.item).collect();
        let targets: Vec<f32> = batch.iter().map(|r| r.value).collect();
        let trace = self.forward_train(users, items, rng);
        let grads = self.backward(&trace, &targets);
        self.apply(&grads);
    }

    /// Mean squared error over `data` in eval mode (tests/diagnostics).
    #[must_use]
    pub fn mse(&self, data: &[rex_data::Rating]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let users: Vec<u32> = data.iter().map(|r| r.user).collect();
        let items: Vec<u32> = data.iter().map(|r| r.item).collect();
        let out = self.forward_eval(&users, &items);
        out.data()
            .iter()
            .zip(data)
            .map(|(o, r)| {
                let e = f64::from(o - r.value);
                e * e
            })
            .sum::<f64>()
            / data.len() as f64
    }

    fn check_compatible(&self, other: &Self) {
        assert!(self.same_shape(other), "merging incompatible DNN models");
    }
}

impl Model for DnnModel {
    fn train_steps(&mut self, data: &[rex_data::Rating], steps: usize, rng: &mut StdRng) {
        if data.is_empty() {
            return;
        }
        let bs = self.hp.batch_size;
        let mut batch = Vec::with_capacity(bs);
        for _ in 0..steps {
            batch.clear();
            for _ in 0..bs {
                batch.push(data[rng.gen_range(0..data.len())]);
            }
            // Clone into a local to satisfy the borrow checker cheaply.
            let local: Vec<rex_data::Rating> = batch.clone();
            self.train_minibatch(&local, rng);
        }
    }

    fn cells(&self) -> (u32, u32) {
        (self.num_users, self.num_items)
    }

    fn same_shape(&self, other: &Self) -> bool {
        self.num_users == other.num_users
            && self.num_items == other.num_items
            && self.hp.k == other.hp.k
            && self.hp.hidden == other.hp.hidden
    }

    fn predict(&self, user: u32, item: u32) -> f32 {
        let user_ok = self.user_seen.get(user as usize).copied().unwrap_or(false);
        let item_ok = self.item_seen.get(item as usize).copied().unwrap_or(false);
        if !user_ok || !item_ok {
            return self.global_mean.clamp(0.5, 5.0);
        }
        let out = self.forward_eval(&[user], &[item]);
        out.get(0, 0).clamp(0.5, 5.0)
    }

    fn merge(&mut self, contributions: &[(f64, &Self)], self_weight: f64) {
        for (_, other) in contributions {
            self.check_compatible(other);
        }
        // Global mean + MLP parameters: plain weighted average (every node
        // has a full MLP).
        let mut mean = self_weight * f64::from(self.global_mean);
        for (w, m) in contributions {
            mean += w * f64::from(m.global_mean);
        }
        self.global_mean = mean as f32;

        for li in 0..self.layers.len() {
            let w_len = self.layers[li].w.data().len();
            for idx in 0..w_len {
                let mut acc = self_weight * f64::from(self.layers[li].w.data()[idx]);
                for (w, m) in contributions {
                    acc += w * f64::from(m.layers[li].w.data()[idx]);
                }
                self.layers[li].w.data_mut()[idx] = acc as f32;
            }
            for idx in 0..self.layers[li].b.len() {
                let mut acc = self_weight * f64::from(self.layers[li].b[idx]);
                for (w, m) in contributions {
                    acc += w * f64::from(m.layers[li].b[idx]);
                }
                self.layers[li].b[idx] = acc as f32;
            }
        }

        // Embedding rows: masked merge with renormalization (§III-C2).
        let k = self.hp.k;
        let mut scratch = vec![0.0f64; k];
        for u in 0..self.num_users as usize {
            let mut total = if self.user_seen[u] { self_weight } else { 0.0 };
            for (w, m) in contributions {
                if m.user_seen[u] {
                    total += w;
                }
            }
            if total <= 0.0 {
                continue;
            }
            let inv = 1.0 / total;
            scratch.iter_mut().for_each(|a| *a = 0.0);
            if self.user_seen[u] {
                let w = self_weight * inv;
                for (a, v) in scratch.iter_mut().zip(self.user_emb.row(u)) {
                    *a += w * f64::from(*v);
                }
            }
            for (wc, m) in contributions {
                if m.user_seen[u] {
                    let w = wc * inv;
                    for (a, v) in scratch.iter_mut().zip(m.user_emb.row(u)) {
                        *a += w * f64::from(*v);
                    }
                }
            }
            for (dst, a) in self.user_emb.row_mut(u).iter_mut().zip(&scratch) {
                *dst = *a as f32;
            }
            self.user_seen[u] = true;
        }
        for i in 0..self.num_items as usize {
            let mut total = if self.item_seen[i] { self_weight } else { 0.0 };
            for (w, m) in contributions {
                if m.item_seen[i] {
                    total += w;
                }
            }
            if total <= 0.0 {
                continue;
            }
            let inv = 1.0 / total;
            scratch.iter_mut().for_each(|a| *a = 0.0);
            if self.item_seen[i] {
                let w = self_weight * inv;
                for (a, v) in scratch.iter_mut().zip(self.item_emb.row(i)) {
                    *a += w * f64::from(*v);
                }
            }
            for (wc, m) in contributions {
                if m.item_seen[i] {
                    let w = wc * inv;
                    for (a, v) in scratch.iter_mut().zip(m.item_emb.row(i)) {
                        *a += w * f64::from(*v);
                    }
                }
            }
            for (dst, a) in self.item_emb.row_mut(i).iter_mut().zip(&scratch) {
                *dst = *a as f32;
            }
            self.item_seen[i] = true;
        }
    }

    fn param_count(&self) -> usize {
        self.user_emb.data().len()
            + self.item_emb.data().len()
            + self.layers.iter().map(Linear::param_count).sum::<usize>()
    }

    fn wire_size(&self) -> usize {
        4 + 4 + 4 + 4 // magic + dims + k
            + 4 + self.hp.hidden.len() * 4 // hidden widths
            + 4 // global mean
            + self.param_count() * 4
            + (self.num_users as usize).div_ceil(8)
            + (self.num_items as usize).div_ceil(8)
    }

    fn write_bytes(&self, sink: &mut impl ByteSink) {
        bytesio::put_u32(sink, MAGIC);
        bytesio::put_u32(sink, self.num_users);
        bytesio::put_u32(sink, self.num_items);
        bytesio::put_u32(sink, self.hp.k as u32);
        bytesio::put_u32(sink, self.hp.hidden.len() as u32);
        for &h in &self.hp.hidden {
            bytesio::put_u32(sink, h as u32);
        }
        bytesio::put_f32(sink, self.global_mean);
        bytesio::put_f32_slice(sink, self.user_emb.data());
        bytesio::put_f32_slice(sink, self.item_emb.data());
        for layer in &self.layers {
            bytesio::put_f32_slice(sink, layer.w.data());
            bytesio::put_f32_slice(sink, &layer.b);
        }
        bytesio::put_bool_slice(sink, &self.user_seen);
        bytesio::put_bool_slice(sink, &self.item_seen);
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, ModelCodecError> {
        let mut r = Reader::new(bytes);
        if r.u32()? != MAGIC {
            return Err(ModelCodecError::Malformed("bad magic".into()));
        }
        let num_users = r.u32()?;
        let num_items = r.u32()?;
        let k = r.u32()? as usize;
        let n_hidden = r.u32()? as usize;
        if k == 0 || k > 4096 || n_hidden == 0 || n_hidden > 64 {
            return Err(ModelCodecError::Incompatible(format!(
                "k = {k}, hidden layers = {n_hidden}"
            )));
        }
        let mut hidden = Vec::with_capacity(n_hidden);
        for _ in 0..n_hidden {
            hidden.push(r.u32()? as usize);
        }
        let global_mean = r.f32()?;
        let nu = num_users as usize;
        let ni = num_items as usize;
        let user_emb = Matrix::from_vec(nu, k, r.f32_vec(nu * k)?);
        let item_emb = Matrix::from_vec(ni, k, r.f32_vec(ni * k)?);

        let hp = DnnHyperParams {
            k,
            hidden: hidden.clone(),
            ..DnnHyperParams::default()
        };
        // Rebuild layers from the wire (fresh Adam state: optimizer state is
        // local and never shared, like parameter-sharing FL/DLS systems).
        let mut dims = Vec::with_capacity(hidden.len() + 2);
        dims.push(2 * k);
        dims.extend_from_slice(&hidden);
        dims.push(1);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for w in dims.windows(2) {
            let (din, dout) = (w[0], w[1]);
            let weights = Matrix::from_vec(din, dout, r.f32_vec(din * dout)?);
            let bias = r.f32_vec(dout)?;
            use rand::SeedableRng;
            let mut dummy = StdRng::seed_from_u64(0);
            let mut layer = Linear::new(din, dout, &mut dummy);
            layer.w = weights;
            layer.b = bias;
            layers.push(layer);
        }
        let user_seen = r.bool_vec(nu)?;
        let item_seen = r.bool_vec(ni)?;
        if r.remaining() != 0 {
            return Err(ModelCodecError::Malformed(format!(
                "{} trailing bytes",
                r.remaining()
            )));
        }
        Ok(DnnModel {
            user_adam: AdamState::new(nu * k),
            item_adam: AdamState::new(ni * k),
            hp,
            num_users,
            num_items,
            global_mean,
            user_emb,
            item_emb,
            user_seen,
            item_seen,
            layers,
            t: 0,
        })
    }

    fn memory_bytes(&self) -> usize {
        // Parameters + Adam first/second moments for embeddings and layers.
        (self.user_emb.data().len() + self.item_emb.data().len()) * 4 * 3
            + self.layers.iter().map(Linear::memory_bytes).sum::<usize>()
            + self.user_seen.len()
            + self.item_seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rex_data::{Rating, SyntheticConfig};

    fn tiny_hp() -> DnnHyperParams {
        DnnHyperParams {
            k: 4,
            hidden: vec![8, 6],
            dropout_embedding: 0.0,
            dropout_hidden: 0.0,
            batch_size: 8,
            adam: AdamParams {
                learning_rate: 0.01,
                weight_decay: 0.0,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn tiny_data() -> Vec<Rating> {
        SyntheticConfig {
            num_users: 15,
            num_items: 30,
            num_ratings: 300,
            seed: 9,
            ..SyntheticConfig::default()
        }
        .generate()
        .ratings
    }

    #[test]
    fn paper_parameter_count_shape() {
        // Paper: 610 users, 9000 items, k=20, 4 hidden layers, 215 001
        // parameters total. Our widths give 208 329 — same order, same
        // embedding share (see EXPERIMENTS.md).
        let m = DnnModel::new(610, 9_000, DnnHyperParams::default(), 3.5, 0);
        let emb = (610 + 9_000) * 20;
        let mlp = (40 * 128 + 128) + (128 * 64 + 64) + (64 * 32 + 32) + (32 * 16 + 16) + (16 + 1);
        assert_eq!(m.param_count(), emb + mlp);
        assert!(m.param_count() > 200_000 && m.param_count() < 220_000);
    }

    #[test]
    fn training_reduces_mse() {
        let data = tiny_data();
        let mut m = DnnModel::new(15, 30, tiny_hp(), 3.5, 1);
        let before = m.mse(&data);
        let mut rng = StdRng::seed_from_u64(2);
        m.train_steps(&data, 400, &mut rng);
        let after = m.mse(&data);
        assert!(
            after < before * 0.8,
            "MSE did not drop enough: {before} -> {after}"
        );
    }

    #[test]
    fn gradcheck_against_finite_differences() {
        // No dropout; compare analytic grads with numeric d(mse)/dθ.
        let mut m = DnnModel::new(4, 4, tiny_hp(), 3.0, 3);
        let batch = vec![
            Rating {
                user: 0,
                item: 1,
                value: 4.0,
            },
            Rating {
                user: 2,
                item: 3,
                value: 2.0,
            },
        ];
        let users: Vec<u32> = batch.iter().map(|r| r.user).collect();
        let items: Vec<u32> = batch.iter().map(|r| r.item).collect();
        let targets: Vec<f32> = batch.iter().map(|r| r.value).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let trace = m.forward_train(users, items, &mut rng);
        let grads = m.backward(&trace, &targets);

        // Central differences: a forward difference's O(eps) truncation
        // error dominates near ReLU kinks and under curvature; the
        // symmetric form cancels it.
        let eps = 2e-4f32;
        let central =
            |m: &mut DnnModel, set: &mut dyn FnMut(&mut DnnModel, f32), orig: f32| -> f64 {
                set(m, orig + eps);
                let plus = m.mse(&batch);
                set(m, orig - eps);
                let minus = m.mse(&batch);
                set(m, orig);
                (plus - minus) / (2.0 * f64::from(eps))
            };

        // A weight in the first layer.
        let analytic = f64::from(grads.layer_grads[0].dw.get(0, 0));
        let orig = m.layers[0].w.get(0, 0);
        let numeric = central(&mut m, &mut |m, v| m.layers[0].w.set(0, 0, v), orig);
        assert!(
            (numeric - analytic).abs() < 0.05 * (analytic.abs() + 0.01),
            "layer0 dW: numeric {numeric} vs analytic {analytic}"
        );

        // A user-embedding entry (user 0, dim 1).
        let analytic = f64::from(grads.user_grads[&0][1]);
        let orig = m.user_emb.get(0, 1);
        let numeric = central(&mut m, &mut |m, v| m.user_emb.set(0, 1, v), orig);
        assert!(
            (numeric - analytic).abs() < 0.05 * (analytic.abs() + 0.01),
            "user emb: numeric {numeric} vs analytic {analytic}"
        );

        // An item-embedding entry (item 3, dim 0).
        let analytic = f64::from(grads.item_grads[&3][0]);
        let orig = m.item_emb.get(3, 0);
        let numeric = central(&mut m, &mut |m, v| m.item_emb.set(3, 0, v), orig);
        assert!(
            (numeric - analytic).abs() < 0.05 * (analytic.abs() + 0.01),
            "item emb: numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn predict_falls_back_for_unseen() {
        let m = DnnModel::new(5, 5, tiny_hp(), 3.5, 0);
        assert_eq!(m.predict(0, 0), 3.5);
    }

    #[test]
    fn codec_roundtrip() {
        let data = tiny_data();
        let mut m = DnnModel::new(15, 30, tiny_hp(), 3.5, 1);
        let mut rng = StdRng::seed_from_u64(4);
        m.train_steps(&data, 50, &mut rng);
        let bytes = m.to_bytes();
        assert_eq!(bytes.len(), m.wire_size());
        let back = DnnModel::from_bytes(&bytes).unwrap();
        assert_eq!(back.param_count(), m.param_count());
        for (u, i) in [(0u32, 0u32), (3, 7), (14, 29)] {
            assert!((back.predict(u, i) - m.predict(u, i)).abs() < 1e-6);
        }
    }

    #[test]
    fn streamed_bytes_equal_the_per_element_encoding() {
        use bytesio::reference;
        let data = tiny_data();
        // Empty tables, seen masks that end mid-byte, and a trained model.
        for (users, items, steps) in [(0u32, 0u32, 0usize), (3, 5, 0), (15, 30, 50)] {
            let mut m = DnnModel::new(users, items, tiny_hp(), 3.5, 1);
            m.train_steps(&data, steps, &mut StdRng::seed_from_u64(4));
            let mut want = Vec::new();
            let hidden = m.hp.hidden.iter().map(|&h| h as u32);
            let header = [MAGIC, users, items, m.hp.k as u32, m.hp.hidden.len() as u32];
            for word in header.into_iter().chain(hidden) {
                want.extend_from_slice(&word.to_le_bytes());
            }
            want.extend_from_slice(&m.global_mean.to_le_bytes());
            reference::put_f32_slice(&mut want, m.user_emb.data());
            reference::put_f32_slice(&mut want, m.item_emb.data());
            for layer in &m.layers {
                reference::put_f32_slice(&mut want, layer.w.data());
                reference::put_f32_slice(&mut want, &layer.b);
            }
            reference::put_bool_slice(&mut want, &m.user_seen);
            reference::put_bool_slice(&mut want, &m.item_seen);

            let mut streamed = Vec::new();
            m.write_bytes(&mut streamed);
            assert_eq!(streamed, want, "{users}x{items}");
            assert_eq!(m.to_bytes(), want, "{users}x{items}");
            assert_eq!(m.wire_size(), want.len(), "{users}x{items}");
            assert_eq!(m.ref_fingerprint(), bytesio::fnv1a64(&want));
        }
    }

    #[test]
    fn codec_rejects_garbage() {
        assert!(DnnModel::from_bytes(&[0u8; 8]).is_err());
        let m = DnnModel::new(3, 3, tiny_hp(), 3.5, 0);
        let mut bytes = m.to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(DnnModel::from_bytes(&bytes).is_err());
    }

    #[test]
    fn merge_averages_mlp_and_respects_masks() {
        let mut a = DnnModel::new(2, 2, tiny_hp(), 3.0, 0);
        let mut b = DnnModel::new(2, 2, tiny_hp(), 4.0, 0);
        let mut rng = StdRng::seed_from_u64(5);
        a.train_minibatch(
            &[Rating {
                user: 0,
                item: 0,
                value: 5.0,
            }],
            &mut rng,
        );
        b.train_minibatch(
            &[Rating {
                user: 1,
                item: 1,
                value: 1.0,
            }],
            &mut rng,
        );

        let expected_w00 = 0.5 * (a.layers[0].w.get(0, 0) + b.layers[0].w.get(0, 0));
        let b_user1 = b.user_emb.row(1).to_vec();
        a.merge(&[(0.5, &b)], 0.5);
        assert!((a.global_mean - 3.5).abs() < 1e-6);
        assert!((a.layers[0].w.get(0, 0) - expected_w00).abs() < 1e-6);
        // User 1 seen only by b: copied.
        for (x, y) in a.user_emb.row(1).iter().zip(&b_user1) {
            assert!((x - y).abs() < 1e-6);
        }
        assert!(a.user_seen[1]);
    }

    #[test]
    fn wire_size_much_larger_than_raw_triplets() {
        // Fig 5b: DNN model sharing is orders of magnitude heavier than the
        // 40 triplets REX shares per epoch.
        let m = DnnModel::new(610, 9_000, DnnHyperParams::default(), 3.5, 0);
        let raw_bytes_per_epoch = 40 * rex_data::Rating::WIRE_SIZE;
        assert!(m.wire_size() > 100 * raw_bytes_per_epoch);
    }

    #[test]
    fn identical_seeds_identical_models() {
        let a = DnnModel::new(6, 6, tiny_hp(), 3.5, 7);
        let b = DnnModel::new(6, 6, tiny_hp(), 3.5, 7);
        assert_eq!(a.user_emb, b.user_emb);
        assert_eq!(a.layers[0].w, b.layers[0].w);
    }
}
