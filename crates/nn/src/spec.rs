//! Declarative model specifications and (de)serialization.
//!
//! A TASFAR deployment ships a trained model plus its source calibration to
//! the target device. Trait objects don't serialize, so persistence goes
//! through [`ModelSpec`] — a declarative architecture description that can
//! rebuild the [`Sequential`] — plus a flat parameter/state snapshot:
//!
//! ```
//! use tasfar_nn::prelude::*;
//! use tasfar_nn::spec::{LayerSpec, ModelSpec, SavedModel};
//!
//! let spec = ModelSpec::new(vec![
//!     LayerSpec::Dense { in_dim: 4, out_dim: 8 },
//!     LayerSpec::Relu,
//!     LayerSpec::Dropout { p: 0.2 },
//!     LayerSpec::Dense { in_dim: 8, out_dim: 1 },
//! ]);
//! let mut rng = Rng::new(1);
//! let mut model = spec.build(&mut rng);
//!
//! let saved = SavedModel::capture(&spec, &mut model);
//! let json = saved.to_json();
//! let mut restored = SavedModel::from_json(&json).unwrap().restore(&mut rng);
//!
//! let x = Tensor::rand_normal(3, 4, 0.0, 1.0, &mut rng);
//! assert_eq!(model.predict(&x), restored.predict(&x));
//! ```

use crate::init::Init;
use crate::json::{enum_variant, FromJson, Json, JsonError, Parser, ToJson};
use crate::layers::{
    BatchNorm1d, Conv1d, Dense, Dropout, GlobalAvgPool1d, Layer, LeakyRelu, Relu, Sequential,
    Sigmoid, Tanh, TcnBlock,
};
use crate::rng::Rng;

/// One layer of a declarative model description.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSpec {
    /// Fully connected layer (He-normal initialised).
    Dense {
        /// Input feature width.
        in_dim: usize,
        /// Output feature width.
        out_dim: usize,
    },
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// Leaky ReLU.
    LeakyRelu {
        /// Negative-side slope.
        alpha: f64,
    },
    /// Inverted dropout.
    Dropout {
        /// Drop probability.
        p: f64,
    },
    /// Batch normalisation over features.
    BatchNorm1d {
        /// Feature width.
        dim: usize,
    },
    /// Dilated causal 1-D convolution.
    Conv1d {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Kernel taps.
        kernel: usize,
        /// Dilation.
        dilation: usize,
        /// Window length.
        time_len: usize,
    },
    /// Global average pooling over time.
    GlobalAvgPool1d {
        /// Channels.
        channels: usize,
        /// Window length.
        time_len: usize,
    },
    /// Residual temporal-convolutional block.
    TcnBlock {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Kernel taps.
        kernel: usize,
        /// Dilation.
        dilation: usize,
        /// Window length.
        time_len: usize,
        /// Dropout probability inside the block.
        dropout_p: f64,
    },
}

impl LayerSpec {
    fn build(&self, rng: &mut Rng) -> Box<dyn Layer> {
        match *self {
            LayerSpec::Dense { in_dim, out_dim } => {
                Box::new(Dense::new(in_dim, out_dim, Init::HeNormal, rng))
            }
            LayerSpec::Relu => Box::new(Relu::new()),
            LayerSpec::Tanh => Box::new(Tanh::new()),
            LayerSpec::Sigmoid => Box::new(Sigmoid::new()),
            LayerSpec::LeakyRelu { alpha } => Box::new(LeakyRelu::new(alpha)),
            LayerSpec::Dropout { p } => Box::new(Dropout::new(p, rng)),
            LayerSpec::BatchNorm1d { dim } => Box::new(BatchNorm1d::new(dim)),
            LayerSpec::Conv1d {
                in_ch,
                out_ch,
                kernel,
                dilation,
                time_len,
            } => Box::new(Conv1d::new(in_ch, out_ch, kernel, dilation, time_len, rng)),
            LayerSpec::GlobalAvgPool1d { channels, time_len } => {
                Box::new(GlobalAvgPool1d::new(channels, time_len))
            }
            LayerSpec::TcnBlock {
                in_ch,
                out_ch,
                kernel,
                dilation,
                time_len,
                dropout_p,
            } => Box::new(TcnBlock::new(
                in_ch, out_ch, kernel, dilation, time_len, dropout_p, rng,
            )),
        }
    }
}

impl ToJson for LayerSpec {
    fn to_json_value(&self) -> Json {
        // `serde`'s externally-tagged convention: unit variants are bare
        // strings, struct variants a one-key object.
        match *self {
            LayerSpec::Dense { in_dim, out_dim } => Json::obj(vec![(
                "Dense",
                Json::obj(vec![
                    ("in_dim", Json::from(in_dim)),
                    ("out_dim", Json::from(out_dim)),
                ]),
            )]),
            LayerSpec::Relu => Json::from("Relu"),
            LayerSpec::Tanh => Json::from("Tanh"),
            LayerSpec::Sigmoid => Json::from("Sigmoid"),
            LayerSpec::LeakyRelu { alpha } => Json::obj(vec![(
                "LeakyRelu",
                Json::obj(vec![("alpha", Json::Num(alpha))]),
            )]),
            LayerSpec::Dropout { p } => {
                Json::obj(vec![("Dropout", Json::obj(vec![("p", Json::Num(p))]))])
            }
            LayerSpec::BatchNorm1d { dim } => Json::obj(vec![(
                "BatchNorm1d",
                Json::obj(vec![("dim", Json::from(dim))]),
            )]),
            LayerSpec::Conv1d {
                in_ch,
                out_ch,
                kernel,
                dilation,
                time_len,
            } => Json::obj(vec![(
                "Conv1d",
                Json::obj(vec![
                    ("in_ch", Json::from(in_ch)),
                    ("out_ch", Json::from(out_ch)),
                    ("kernel", Json::from(kernel)),
                    ("dilation", Json::from(dilation)),
                    ("time_len", Json::from(time_len)),
                ]),
            )]),
            LayerSpec::GlobalAvgPool1d { channels, time_len } => Json::obj(vec![(
                "GlobalAvgPool1d",
                Json::obj(vec![
                    ("channels", Json::from(channels)),
                    ("time_len", Json::from(time_len)),
                ]),
            )]),
            LayerSpec::TcnBlock {
                in_ch,
                out_ch,
                kernel,
                dilation,
                time_len,
                dropout_p,
            } => Json::obj(vec![(
                "TcnBlock",
                Json::obj(vec![
                    ("in_ch", Json::from(in_ch)),
                    ("out_ch", Json::from(out_ch)),
                    ("kernel", Json::from(kernel)),
                    ("dilation", Json::from(dilation)),
                    ("time_len", Json::from(time_len)),
                    ("dropout_p", Json::Num(dropout_p)),
                ]),
            )]),
        }
    }
}

impl FromJson for LayerSpec {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        let (name, body) = enum_variant(v)?;
        match name {
            "Dense" => Ok(LayerSpec::Dense {
                in_dim: body.field("in_dim")?.as_usize()?,
                out_dim: body.field("out_dim")?.as_usize()?,
            }),
            "Relu" => Ok(LayerSpec::Relu),
            "Tanh" => Ok(LayerSpec::Tanh),
            "Sigmoid" => Ok(LayerSpec::Sigmoid),
            "LeakyRelu" => Ok(LayerSpec::LeakyRelu {
                alpha: body.field("alpha")?.as_f64()?,
            }),
            "Dropout" => Ok(LayerSpec::Dropout {
                p: body.field("p")?.as_f64()?,
            }),
            "BatchNorm1d" => Ok(LayerSpec::BatchNorm1d {
                dim: body.field("dim")?.as_usize()?,
            }),
            "Conv1d" => Ok(LayerSpec::Conv1d {
                in_ch: body.field("in_ch")?.as_usize()?,
                out_ch: body.field("out_ch")?.as_usize()?,
                kernel: body.field("kernel")?.as_usize()?,
                dilation: body.field("dilation")?.as_usize()?,
                time_len: body.field("time_len")?.as_usize()?,
            }),
            "GlobalAvgPool1d" => Ok(LayerSpec::GlobalAvgPool1d {
                channels: body.field("channels")?.as_usize()?,
                time_len: body.field("time_len")?.as_usize()?,
            }),
            "TcnBlock" => Ok(LayerSpec::TcnBlock {
                in_ch: body.field("in_ch")?.as_usize()?,
                out_ch: body.field("out_ch")?.as_usize()?,
                kernel: body.field("kernel")?.as_usize()?,
                dilation: body.field("dilation")?.as_usize()?,
                time_len: body.field("time_len")?.as_usize()?,
                dropout_p: body.field("dropout_p")?.as_f64()?,
            }),
            other => Err(JsonError::new(format!("unknown LayerSpec `{other}`"))),
        }
    }
}

/// A declarative model architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// The layer chain, in order.
    pub layers: Vec<LayerSpec>,
}

impl ModelSpec {
    /// Wraps a layer list.
    pub fn new(layers: Vec<LayerSpec>) -> Self {
        ModelSpec { layers }
    }

    /// Materialises the architecture with fresh (seeded) initialisation.
    pub fn build(&self, rng: &mut Rng) -> Sequential {
        let mut model = Sequential::new();
        for layer in &self.layers {
            model.push(layer.build(rng));
        }
        model
    }
}

/// A serializable snapshot: architecture + flat *base* parameter values
/// (one vector per parameter tensor, in
/// [`crate::layers::Layer::visit_base_params`] order — with adapters
/// attached the frozen source weights are what gets captured, never the
/// delta factors; those travel separately as a [`DeltaArtifact`]) + the
/// non-parameter layer state (batch-norm running moments, in
/// [`crate::layers::Layer::visit_state`] order).
///
/// JSON back-compatibility: snapshots written before the `state` field
/// existed load fine — a missing `state` is treated as empty and skipped on
/// restore (pre-state snapshots never captured moments to begin with).
#[derive(Debug, Clone)]
pub struct SavedModel {
    /// The architecture.
    pub spec: ModelSpec,
    /// Flat base parameter values, `visit_base_params` order.
    pub params: Vec<Vec<f64>>,
    /// Non-parameter state slices (batch-norm running moments),
    /// `visit_state` order.
    pub state: Vec<Vec<f64>>,
}

impl SavedModel {
    /// Snapshots a model's base parameters and state against its spec.
    ///
    /// # Panics
    /// Panics if `model` was not built from `spec` (parameter count
    /// mismatch).
    pub fn capture(spec: &ModelSpec, model: &mut Sequential) -> Self {
        let mut params: Vec<Vec<f64>> = Vec::new();
        model.visit_base_params(&mut |p| params.push(p.value.as_slice().to_vec()));
        let mut state: Vec<Vec<f64>> = Vec::new();
        model.visit_state(&mut |s| state.push(s.to_vec()));
        SavedModel {
            spec: spec.clone(),
            params,
            state,
        }
    }

    /// Rebuilds the model and loads the snapshot into it.
    ///
    /// # Panics
    /// Panics if the stored parameters or state do not fit the spec.
    pub fn restore(&self, rng: &mut Rng) -> Sequential {
        let mut model = self.spec.build(rng);
        let mut i = 0usize;
        model.visit_base_params(&mut |p| {
            assert!(
                i < self.params.len(),
                "SavedModel: stored {} parameter tensors, model has more",
                self.params.len()
            );
            assert_eq!(
                p.value.len(),
                self.params[i].len(),
                "SavedModel: parameter length mismatch"
            );
            p.value.as_mut_slice().copy_from_slice(&self.params[i]);
            i += 1;
        });
        assert_eq!(
            i,
            self.params.len(),
            "SavedModel: stored {} parameter tensors, model has {i}",
            self.params.len()
        );
        if !self.state.is_empty() {
            let mut j = 0usize;
            model.visit_state(&mut |s| {
                assert!(
                    j < self.state.len(),
                    "SavedModel: stored {} state slices, model has more",
                    self.state.len()
                );
                assert_eq!(
                    s.len(),
                    self.state[j].len(),
                    "SavedModel: state length mismatch"
                );
                s.copy_from_slice(&self.state[j]);
                j += 1;
            });
            assert_eq!(
                j,
                self.state.len(),
                "SavedModel: stored {} state slices, model has {j}",
                self.state.len()
            );
        }
        model
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> String {
        ToJson::to_json(self)
    }

    /// Deserializes from a JSON string.
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        <Self as FromJson>::from_json(json)
    }
}

impl ToJson for ModelSpec {
    fn to_json_value(&self) -> Json {
        Json::obj(vec![("layers", self.layers.to_json_value())])
    }
}

impl FromJson for ModelSpec {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        Ok(ModelSpec {
            layers: v.decode("layers")?,
        })
    }
}

impl ToJson for SavedModel {
    fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("spec", self.spec.to_json_value()),
            ("params", self.params.to_json_value()),
            ("state", self.state.to_json_value()),
        ])
    }
}

impl FromJson for SavedModel {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        Ok(SavedModel {
            spec: v.decode("spec")?,
            params: v.decode("params")?,
            // Absent in pre-state snapshots: treat as empty (skip on restore).
            state: match v.field("state") {
                Ok(s) => FromJson::from_json_value(s)?,
                Err(_) => Vec::new(),
            },
        })
    }
}

/// A standalone, serializable adaptation delta: the full trainable state of
/// an adapted model ([`crate::adapter`]) — low-rank factors plus any
/// still-trainable params (batch-norm affine) — in
/// [`crate::layers::Layer::visit_params`] order.
///
/// This is the per-user artifact of the multi-tenant serving story: one
/// frozen source [`SavedModel`] is shared, and each user ships/loads only a
/// `DeltaArtifact` (KBs, not the full weight set). [`DeltaArtifact::apply`]
/// attaches adapters with the artifact's config when the target model has
/// none, then overwrites the trainable values, so
/// `SavedModel::restore` → `DeltaArtifact::apply` reproduces the adapted
/// model's `Eval` predictions bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaArtifact {
    /// Requested adapter rank (individual layers may clamp it).
    pub rank: usize,
    /// LoRA scaling numerator α.
    pub alpha: f64,
    /// `(rows, cols)` of each trainable tensor, `visit_params` order.
    pub shapes: Vec<(usize, usize)>,
    /// Flat values matching `shapes`.
    pub values: Vec<Vec<f64>>,
}

/// Why a [`DeltaArtifact`] refused to load onto a model.
///
/// Serving layers that rehydrate tenant deltas from storage hit this when an
/// artifact was captured against a different architecture or adapter rank
/// (a "stale delta"). [`DeltaArtifact::try_apply`] reports it instead of
/// panicking so the caller can degrade to source-model serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaApplyError {
    /// Trainable tensor `index` has a different shape in the model than the
    /// artifact recorded — typically a rank or layer-width change.
    ShapeMismatch {
        /// Position in `visit_params` order.
        index: usize,
        /// Shape the artifact stored.
        stored: (usize, usize),
        /// Shape the model exposes.
        model: (usize, usize),
    },
    /// The artifact stores a different number of trainable tensors than the
    /// model exposes (layers added or removed since capture).
    TensorCountMismatch {
        /// Tensors stored in the artifact.
        stored: usize,
        /// Tensors the model exposes.
        model: usize,
    },
    /// A stored flat value buffer disagrees with its own recorded shape —
    /// the artifact itself is corrupt, not merely stale.
    Corrupt {
        /// Position in `visit_params` order.
        index: usize,
        /// `rows * cols` the shape entry implies.
        expected_len: usize,
        /// Values actually stored.
        found_len: usize,
    },
}

impl std::fmt::Display for DeltaApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DeltaApplyError::ShapeMismatch {
                index,
                stored,
                model,
            } => write!(
                f,
                "DeltaArtifact: shape mismatch at tensor {index}: artifact stored \
                 {}x{}, model exposes {}x{}",
                stored.0, stored.1, model.0, model.1
            ),
            DeltaApplyError::TensorCountMismatch { stored, model } => write!(
                f,
                "DeltaArtifact: artifact stores {stored} trainable tensors, model \
                 exposes {model}"
            ),
            DeltaApplyError::Corrupt {
                index,
                expected_len,
                found_len,
            } => write!(
                f,
                "DeltaArtifact: corrupt payload at tensor {index}: shape implies \
                 {expected_len} values, {found_len} stored"
            ),
        }
    }
}

impl std::error::Error for DeltaApplyError {}

impl DeltaArtifact {
    /// Snapshots the trainable state of an adapted model.
    ///
    /// # Panics
    /// Panics if `model` has no adapters attached (a full-weight export
    /// through this API would silently defeat its purpose).
    pub fn capture(model: &mut Sequential, cfg: &crate::adapter::AdapterConfig) -> Self {
        assert!(
            model.has_adapters(),
            "DeltaArtifact::capture: model has no adapters attached"
        );
        let mut shapes = Vec::new();
        let mut values = Vec::new();
        model.visit_params(&mut |p| {
            shapes.push(p.value.shape());
            values.push(p.value.as_slice().to_vec());
        });
        DeltaArtifact {
            rank: cfg.rank,
            alpha: cfg.alpha,
            shapes,
            values,
        }
    }

    /// The adapter configuration this delta was trained under.
    pub fn config(&self) -> crate::adapter::AdapterConfig {
        crate::adapter::AdapterConfig {
            rank: self.rank,
            alpha: self.alpha,
        }
    }

    /// Loads the delta onto `model` — a shared frozen source model, or one
    /// that already carries adapters of the same shape. Attaches adapters
    /// with [`DeltaArtifact::config`] if none are present (the random
    /// `down` init is immediately overwritten, so `rng` only feeds the
    /// attach), then copies every trainable value in place.
    ///
    /// # Panics
    /// Panics on trainable-tensor count or shape mismatch. Use
    /// [`DeltaArtifact::try_apply`] where a stale artifact must degrade
    /// instead of aborting (serving-layer rehydration).
    pub fn apply(&self, model: &mut Sequential, rng: &mut Rng) {
        if let Err(e) = self.try_apply(model, rng) {
            panic!("{e}");
        }
    }

    /// Fallible [`DeltaArtifact::apply`]: validates the artifact against the
    /// model's trainable tensors before touching any value, so on `Err` the
    /// model's predictions are unchanged. (Adapters may still have been
    /// attached, but a freshly attached adapter's `up` factor is
    /// zero-initialised, which is prediction-preserving.)
    pub fn try_apply(&self, model: &mut Sequential, rng: &mut Rng) -> Result<(), DeltaApplyError> {
        if !model.has_adapters() {
            model.attach_adapters(&self.config(), rng);
        }
        self.check(model)?;
        let mut i = 0usize;
        model.visit_params(&mut |p| {
            p.value.as_mut_slice().copy_from_slice(&self.values[i]);
            i += 1;
        });
        Ok(())
    }

    /// The validation half of [`DeltaArtifact::try_apply`], without the
    /// copy: verifies the artifact's tensors match `model`'s trainable set
    /// one-for-one (count, shapes, payload lengths), touching no value.
    ///
    /// The segmented serving forward reads artifact factors *in place*
    /// (never loading them onto the model), so it runs this once per tenant
    /// per batch to keep the stale-delta degradation path — and adapters
    /// must already be attached for the trainable set to be the delta.
    pub fn check(&self, model: &mut Sequential) -> Result<(), DeltaApplyError> {
        if self.shapes.len() != self.values.len() {
            // shapes/values arity disagreement inside the artifact itself:
            // the first index covered by one array but not the other.
            let i = self.shapes.len().min(self.values.len());
            return Err(DeltaApplyError::Corrupt {
                index: i,
                expected_len: self.shapes.get(i).map_or(0, |&(r, c)| r.saturating_mul(c)),
                found_len: self.values.get(i).map_or(0, Vec::len),
            });
        }
        let mut model_shapes = Vec::with_capacity(self.shapes.len());
        model.visit_params(&mut |p| model_shapes.push(p.value.shape()));
        if model_shapes.len() != self.shapes.len() {
            return Err(DeltaApplyError::TensorCountMismatch {
                stored: self.shapes.len(),
                model: model_shapes.len(),
            });
        }
        for (i, (&stored, &model_shape)) in self.shapes.iter().zip(&model_shapes).enumerate() {
            if stored != model_shape {
                return Err(DeltaApplyError::ShapeMismatch {
                    index: i,
                    stored,
                    model: model_shape,
                });
            }
            let expected_len = stored.0.saturating_mul(stored.1);
            if self.values[i].len() != expected_len {
                return Err(DeltaApplyError::Corrupt {
                    index: i,
                    expected_len,
                    found_len: self.values[i].len(),
                });
            }
        }
        Ok(())
    }

    /// Resident bytes of the delta payload.
    pub fn payload_bytes(&self) -> usize {
        self.values.iter().map(|v| v.len()).sum::<usize>() * std::mem::size_of::<f64>()
    }

    /// Serializes to a JSON string.
    pub fn to_json(&self) -> String {
        ToJson::to_json(self)
    }

    /// Deserializes from a JSON string in one pass: `values` streams
    /// straight into its vectors, with no intermediate value tree (a cold
    /// serving lookup pays this on every rehydrate).
    ///
    /// Accepts exactly what [`Json::parse`] plus field lookups accept: any
    /// key order and whitespace, unknown keys (skipped), a repeated key
    /// (the first occurrence wins, as [`Json::get`] does) and integer
    /// literals (decoded to their [`Json::as_f64`] value). A number literal
    /// that overflows to ±inf is an error, as it is for [`Json::parse`].
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        let mut p = Parser::new(json);
        let mut rank = None;
        let mut alpha = None;
        let mut shapes: Option<Vec<(usize, usize)>> = None;
        let mut values = None;
        p.members(|p, key| {
            match key.as_str() {
                "rank" if rank.is_none() => rank = Some(p.value()?.as_usize()?),
                "alpha" if alpha.is_none() => alpha = Some(p.value()?.as_f64()?),
                "shapes" if shapes.is_none() => shapes = Some(decode_shapes(&p.value()?)?),
                "values" if values.is_none() => {
                    values = Some(stream_values(p, shapes.as_deref()).map_err(|e| e.at("values"))?)
                }
                _ => {
                    p.value()?;
                }
            }
            Ok(())
        })?;
        p.finish()?;
        let missing = |key: &str| JsonError::new(format!("missing field `{key}`"));
        Ok(DeltaArtifact {
            rank: rank.ok_or_else(|| missing("rank"))?,
            alpha: alpha.ok_or_else(|| missing("alpha"))?,
            shapes: shapes.ok_or_else(|| missing("shapes"))?,
            values: values.ok_or_else(|| missing("values"))?,
        })
    }
}

/// `[[rows, cols], ...]` as `(rows, cols)` pairs.
fn decode_shapes(v: &Json) -> Result<Vec<(usize, usize)>, JsonError> {
    v.as_arr()?
        .iter()
        .map(|s| match s.as_arr()? {
            [rows, cols] => Ok((rows.as_usize()?, cols.as_usize()?)),
            _ => Err(JsonError::new(
                "DeltaArtifact: each shape must be [rows, cols]",
            )),
        })
        .collect()
}

/// Streams `[[f64, ...], ...]` into one vector per tensor. When `shapes`
/// is already known each vector is sized from its shape, but never beyond
/// what the rest of the input could hold (a number and its separator take
/// at least two bytes), so a corrupted shape cannot force a huge
/// allocation. A count that disagrees with its shape is left for
/// [`DeltaArtifact::check`] to report.
fn stream_values(
    p: &mut Parser<'_>,
    shapes: Option<&[(usize, usize)]>,
) -> Result<Vec<Vec<f64>>, JsonError> {
    let mut values: Vec<Vec<f64>> = Vec::with_capacity(shapes.map_or(0, <[_]>::len));
    p.elements(|p| {
        let len = shapes
            .and_then(|s| s.get(values.len()))
            .map_or(0, |&(rows, cols)| rows.saturating_mul(cols));
        let mut tensor = Vec::with_capacity(len.min(p.remaining() / 2));
        p.elements(|p| {
            tensor.push(p.f64()?);
            Ok(())
        })?;
        values.push(tensor);
        Ok(())
    })?;
    Ok(values)
}

impl ToJson for DeltaArtifact {
    fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("rank", Json::from(self.rank)),
            ("alpha", Json::Num(self.alpha)),
            (
                "shapes",
                Json::Arr(
                    self.shapes
                        .iter()
                        .map(|&(r, c)| Json::Arr(vec![Json::from(r), Json::from(c)]))
                        .collect(),
                ),
            ),
            ("values", self.values.to_json_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Mode;
    use crate::tensor::Tensor;

    fn demo_spec() -> ModelSpec {
        ModelSpec::new(vec![
            LayerSpec::Conv1d {
                in_ch: 2,
                out_ch: 3,
                kernel: 3,
                dilation: 1,
                time_len: 6,
            },
            LayerSpec::Relu,
            LayerSpec::GlobalAvgPool1d {
                channels: 3,
                time_len: 6,
            },
            LayerSpec::Dense {
                in_dim: 3,
                out_dim: 8,
            },
            LayerSpec::LeakyRelu { alpha: 0.1 },
            LayerSpec::Dropout { p: 0.2 },
            LayerSpec::Dense {
                in_dim: 8,
                out_dim: 2,
            },
        ])
    }

    #[test]
    fn build_produces_working_model() {
        let mut rng = Rng::new(1);
        let mut model = demo_spec().build(&mut rng);
        let x = Tensor::rand_normal(4, 12, 0.0, 1.0, &mut rng);
        let y = model.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), (4, 2));
        assert_eq!(model.output_dim(12), 2);
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let mut rng = Rng::new(2);
        let spec = demo_spec();
        let mut model = spec.build(&mut rng);
        // Perturb so the restored weights are non-trivial.
        model.visit_params(&mut |p| p.value.scale_assign(1.7));

        let saved = SavedModel::capture(&spec, &mut model);
        let json = saved.to_json();
        let loaded = SavedModel::from_json(&json).unwrap();
        let mut restored = loaded.restore(&mut Rng::new(999));

        let x = Tensor::rand_normal(5, 12, 0.0, 1.0, &mut rng);
        assert_eq!(model.predict(&x), restored.predict(&x));
    }

    #[test]
    fn spec_json_is_humane() {
        let json = ToJson::to_json(&demo_spec());
        assert!(json.contains("Conv1d"));
        assert!(json.contains("Dense"));
        let back = ModelSpec::from_json(&json).unwrap();
        assert_eq!(back, demo_spec());
    }

    #[test]
    fn tcn_spec_roundtrip() {
        let spec = ModelSpec::new(vec![
            LayerSpec::TcnBlock {
                in_ch: 2,
                out_ch: 4,
                kernel: 3,
                dilation: 2,
                time_len: 5,
                dropout_p: 0.1,
            },
            LayerSpec::GlobalAvgPool1d {
                channels: 4,
                time_len: 5,
            },
            LayerSpec::Dense {
                in_dim: 4,
                out_dim: 1,
            },
        ]);
        let mut rng = Rng::new(3);
        let mut model = spec.build(&mut rng);
        let saved = SavedModel::capture(&spec, &mut model);
        let mut restored = SavedModel::from_json(&saved.to_json())
            .unwrap()
            .restore(&mut Rng::new(4));
        let x = Tensor::rand_normal(2, 10, 0.0, 1.0, &mut rng);
        assert_eq!(model.predict(&x), restored.predict(&x));
    }

    #[test]
    #[should_panic(expected = "parameter length mismatch")]
    fn restoring_wrong_shapes_panics() {
        let mut rng = Rng::new(5);
        let spec = demo_spec();
        let mut model = spec.build(&mut rng);
        let mut saved = SavedModel::capture(&spec, &mut model);
        saved.params[0].pop();
        let _ = saved.restore(&mut rng);
    }

    /// Builds the spec's model, trains it a little in `Train` mode (so
    /// dropout masks fire and batch-norm moments move off their init), and
    /// asserts save → JSON → restore reproduces `Eval` predictions bitwise.
    fn assert_roundtrip_bits_equal(spec: ModelSpec, in_width: usize, seed: u64) {
        let mut rng = Rng::new(seed);
        let mut model = spec.build(&mut rng);
        for _ in 0..3 {
            let x = Tensor::rand_normal(16, in_width, 0.5, 2.0, &mut rng);
            let y = model.forward(&x, Mode::Train);
            let _ = model.backward(&Tensor::full(y.rows(), y.cols(), 1.0));
        }
        let saved = SavedModel::capture(&spec, &mut model);
        let mut restored = SavedModel::from_json(&saved.to_json())
            .unwrap()
            .restore(&mut Rng::new(seed ^ 0xdead));
        let x = Tensor::rand_normal(7, in_width, 0.0, 1.0, &mut rng);
        assert_eq!(
            model.predict(&x).as_slice(),
            restored.predict(&x).as_slice(),
            "round-trip must be bit-identical for {:?}",
            spec.layers.first()
        );
    }

    #[test]
    fn batchnorm_roundtrip_preserves_trained_running_moments() {
        // This is the case the pre-`state` SavedModel silently got wrong:
        // γ/β round-tripped but the running moments reset to (0, 1).
        assert_roundtrip_bits_equal(
            ModelSpec::new(vec![
                LayerSpec::Dense {
                    in_dim: 3,
                    out_dim: 4,
                },
                LayerSpec::BatchNorm1d { dim: 4 },
                LayerSpec::Relu,
                LayerSpec::Dense {
                    in_dim: 4,
                    out_dim: 1,
                },
            ]),
            3,
            41,
        );
    }

    #[test]
    fn every_layer_kind_roundtrips_bits_equal() {
        assert_roundtrip_bits_equal(
            ModelSpec::new(vec![
                LayerSpec::Dense {
                    in_dim: 2,
                    out_dim: 3,
                },
                LayerSpec::Tanh,
                LayerSpec::Dense {
                    in_dim: 3,
                    out_dim: 1,
                },
                LayerSpec::Sigmoid,
            ]),
            2,
            42,
        );
        assert_roundtrip_bits_equal(
            ModelSpec::new(vec![
                LayerSpec::Conv1d {
                    in_ch: 2,
                    out_ch: 3,
                    kernel: 3,
                    dilation: 2,
                    time_len: 6,
                },
                LayerSpec::LeakyRelu { alpha: 0.05 },
                LayerSpec::GlobalAvgPool1d {
                    channels: 3,
                    time_len: 6,
                },
                LayerSpec::Dense {
                    in_dim: 3,
                    out_dim: 2,
                },
            ]),
            12,
            43,
        );
        assert_roundtrip_bits_equal(
            ModelSpec::new(vec![
                LayerSpec::TcnBlock {
                    in_ch: 2,
                    out_ch: 4,
                    kernel: 3,
                    dilation: 1,
                    time_len: 5,
                    dropout_p: 0.1,
                },
                LayerSpec::GlobalAvgPool1d {
                    channels: 4,
                    time_len: 5,
                },
                LayerSpec::Dropout { p: 0.3 },
                LayerSpec::Dense {
                    in_dim: 4,
                    out_dim: 1,
                },
            ]),
            10,
            44,
        );
    }

    #[test]
    fn pre_state_json_still_loads() {
        let mut rng = Rng::new(6);
        let spec = demo_spec();
        let mut model = spec.build(&mut rng);
        let saved = SavedModel::capture(&spec, &mut model);
        // Strip the `state` field, emulating a snapshot from before it
        // existed.
        let mut json_val = match crate::json::Json::parse(&saved.to_json()).unwrap() {
            crate::json::Json::Obj(pairs) => pairs,
            other => panic!("expected object, got {other:?}"),
        };
        json_val.retain(|(k, _)| k != "state");
        let legacy = crate::json::Json::Obj(json_val).to_string();
        let loaded = SavedModel::from_json(&legacy).unwrap();
        assert!(loaded.state.is_empty());
        let mut restored = loaded.restore(&mut Rng::new(7));
        let x = Tensor::rand_normal(3, 12, 0.0, 1.0, &mut rng);
        assert_eq!(model.predict(&x), restored.predict(&x));
    }

    #[test]
    fn adapted_model_saves_base_weights_and_delta_artifact_roundtrips() {
        use crate::adapter::{enable_adapters, AdapterConfig};
        let mut rng = Rng::new(51);
        let spec = demo_spec();
        let mut model = spec.build(&mut rng);
        let x = Tensor::rand_normal(5, 12, 0.0, 1.0, &mut rng);
        let source_pred = model.predict(&x);

        // Adapt: attach, then drift the trainable set to a "trained" delta.
        let cfg = AdapterConfig::rank(4);
        enable_adapters(&mut model, &cfg, &mut rng);
        model.visit_params(&mut |p| {
            let noise = Tensor::rand_normal(p.value.rows(), p.value.cols(), 0.0, 0.05, &mut rng);
            p.value.add_assign(&noise);
        });
        let adapted_pred = model.predict(&x);
        assert_ne!(adapted_pred.as_slice(), source_pred.as_slice());

        // SavedModel must capture the *frozen base* weights: restoring it
        // alone reproduces the source model, not the adapted one.
        let saved = SavedModel::capture(&spec, &mut model);
        let mut restored_source = SavedModel::from_json(&saved.to_json())
            .unwrap()
            .restore(&mut Rng::new(999));
        assert_eq!(
            restored_source.predict(&x).as_slice(),
            source_pred.as_slice(),
            "SavedModel of an adapted model must hold the frozen source weights"
        );

        // The delta travels separately and re-applies onto the shared source.
        let artifact = DeltaArtifact::capture(&mut model, &cfg);
        assert!(artifact.payload_bytes() > 0);
        let decoded = DeltaArtifact::from_json(&artifact.to_json()).unwrap();
        assert_eq!(decoded, artifact);
        decoded.apply(&mut restored_source, &mut Rng::new(1000));
        assert_eq!(
            restored_source.predict(&x).as_slice(),
            adapted_pred.as_slice(),
            "source SavedModel + DeltaArtifact must reproduce the adapted model bitwise"
        );
    }

    #[test]
    fn stale_delta_try_apply_degrades_without_mutating_predictions() {
        use crate::adapter::{enable_adapters, AdapterConfig};
        let mut rng = Rng::new(52);

        // Capture a delta under rank 4 ...
        let spec = demo_spec();
        let mut adapted = spec.build(&mut rng);
        let cfg = AdapterConfig::rank(4);
        enable_adapters(&mut adapted, &cfg, &mut rng);
        adapted.visit_params(&mut |p| {
            let noise = Tensor::rand_normal(p.value.rows(), p.value.cols(), 0.0, 0.05, &mut rng);
            p.value.add_assign(&noise);
        });
        let mut artifact = DeltaArtifact::capture(&mut adapted, &cfg);

        // ... then try to rehydrate it onto a model that moved to rank 2:
        // the adapter factor shapes no longer line up.
        let mut serving = spec.build(&mut Rng::new(52));
        enable_adapters(&mut serving, &AdapterConfig::rank(2), &mut rng);
        let x = Tensor::rand_normal(5, 12, 0.0, 1.0, &mut rng);
        let before = serving.predict(&x);
        let err = artifact
            .try_apply(&mut serving, &mut Rng::new(0))
            .expect_err("rank-4 delta onto rank-2 adapters must be rejected");
        assert!(
            matches!(err, DeltaApplyError::ShapeMismatch { .. }),
            "expected ShapeMismatch, got {err:?}"
        );
        assert!(!err.to_string().is_empty());
        assert_eq!(
            serving.predict(&x).as_slice(),
            before.as_slice(),
            "a rejected delta must leave the serving model's predictions untouched"
        );

        // A corrupt payload (values shorter than its shape claims) is
        // reported as Corrupt, again without mutating the model.
        let mut fresh = spec.build(&mut Rng::new(52));
        enable_adapters(&mut fresh, &cfg, &mut rng);
        artifact.values[0].pop();
        let err = artifact
            .try_apply(&mut fresh, &mut Rng::new(0))
            .expect_err("truncated payload must be rejected");
        assert!(
            matches!(err, DeltaApplyError::Corrupt { index: 0, .. }),
            "expected Corrupt at tensor 0, got {err:?}"
        );
    }

    /// The segmented fused forward must serve each segment's *artifact*
    /// values, bit-identical to applying the delta and running solo, with
    /// source-only segments untouched — on both model families the serving
    /// layer batches. Batch-norm γ/β stay trainable under adapters
    /// (TENT-style), so the MLP's artifact carries them; the PDR-style
    /// TCN's conv deltas give each segment its own kernels, the residual
    /// downsample included.
    #[test]
    fn segmented_forward_serves_batchnorm_affine_from_artifact() {
        use crate::adapter::{enable_adapters, AdapterConfig};
        use crate::init::Init;
        use crate::layers::{
            BatchNorm1d, Dense, GlobalAvgPool1d, Layer, Relu, SegmentSpan, Sequential, TcnBlock,
        };
        use crate::model::CheckpointRegressor;

        let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let mut rng = Rng::new(60);
        let mlp = Sequential::new()
            .add(Dense::new(3, 4, Init::HeNormal, &mut rng))
            .add(BatchNorm1d::new(4))
            .add(Relu::new())
            .add(Dense::new(4, 2, Init::HeNormal, &mut rng));
        // 2 channels × 4 steps: a downsampling block (2 → 3 channels), a
        // same-width block, pooling over time and a Dense head.
        let tcn = Sequential::new()
            .add(TcnBlock::new(2, 3, 3, 1, 4, 0.1, &mut rng))
            .add(TcnBlock::new(3, 3, 3, 2, 4, 0.1, &mut rng))
            .add(GlobalAvgPool1d::new(3, 4))
            .add(Dense::new(3, 2, Init::HeNormal, &mut rng));
        for (name, mut model) in [("dense+batchnorm", mlp), ("tcn", tcn)] {
            let width = model
                .input_dim()
                .expect("both models constrain their width");
            // Non-trivial source running moments.
            for _ in 0..5 {
                let xb = Tensor::rand_normal(32, width, 0.5, 2.0, &mut rng);
                let _ = model.forward(&xb, Mode::Train);
            }
            let cfg = AdapterConfig::rank(2);
            enable_adapters(&mut model, &cfg, &mut rng);
            let source = model.checkpoint();

            // "Train" the tenant: drift every trainable tensor — the
            // low-rank factors AND the batch-norm affine.
            model.visit_params(&mut |p| {
                let noise = Tensor::rand_normal(p.value.rows(), p.value.cols(), 0.0, 0.1, &mut rng);
                p.value.add_assign(&noise);
            });
            let artifact = DeltaArtifact::capture(&mut model, &cfg);
            let x_tenant = Tensor::rand_normal(3, width, 0.0, 1.0, &mut rng);
            let tenant_solo = model.predict(&x_tenant);

            // Park the model back on the source state (as a serving worker
            // does) and take the reference source prediction.
            model.restore(&source);
            let x_source = Tensor::rand_normal(2, width, 0.0, 1.0, &mut rng);
            let source_solo = model.predict(&x_source);
            assert_ne!(
                bits(model.predict(&x_tenant).as_slice()),
                bits(tenant_solo.as_slice()),
                "{name}: the tenant's delta must change predictions, or the \
                 pin below proves nothing"
            );

            // One stacked segmented forward: tenant rows then source rows.
            let stacked = Tensor::vstack(&[&x_tenant, &x_source]);
            let segments = [
                SegmentSpan {
                    rows: 3,
                    delta: Some(&artifact),
                },
                SegmentSpan {
                    rows: 2,
                    delta: None,
                },
            ];
            let fused =
                crate::scratch::with(|s| model.predict_segmented_scratch(&stacked, &segments, s));
            let split = 3 * fused.cols();
            assert_eq!(
                bits(&fused.as_slice()[..split]),
                bits(tenant_solo.as_slice()),
                "{name}: tenant segment must be bit-identical to apply-then-solo"
            );
            assert_eq!(
                bits(&fused.as_slice()[split..]),
                bits(source_solo.as_slice()),
                "{name}: source segment must be bit-identical to solo source serving"
            );
        }
    }

    /// A `Dense` with no adapter exposes its full `W`/`b` as trainable
    /// tensors, so an artifact captured from a partially adapted model
    /// carries them. The segmented forward cannot serve those per segment
    /// and must refuse rather than serve the base values.
    #[test]
    #[should_panic(expected = "segments carry artifact values")]
    fn segmented_forward_refuses_artifact_weights_of_unadapted_dense() {
        use crate::adapter::AdapterConfig;
        use crate::init::Init;
        use crate::layers::{Dense, Layer, Relu, SegmentSpan, Sequential};

        let mut rng = Rng::new(61);
        let cfg = AdapterConfig::rank(2);
        let mut adapted = Dense::new(3, 4, Init::HeNormal, &mut rng);
        adapted.attach_adapters(&cfg, &mut rng);
        let mut model = Sequential::new()
            .add(adapted)
            .add(Relu::new())
            .add(Dense::new(4, 2, Init::HeNormal, &mut rng));
        let mut artifact = DeltaArtifact::capture(&mut model, &cfg);
        // Tensors 0/1 are the adapted layer's factors; 2 is the plain
        // layer's weight.
        artifact.values[2][0] += 1.0;
        let x = Tensor::rand_normal(2, 3, 0.0, 1.0, &mut rng);
        let segments = [SegmentSpan {
            rows: 2,
            delta: Some(&artifact),
        }];
        crate::scratch::with(|s| model.predict_segmented_scratch(&x, &segments, s));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn stale_delta_apply_still_panics() {
        use crate::adapter::{enable_adapters, AdapterConfig};
        let mut rng = Rng::new(53);
        let spec = demo_spec();
        let mut adapted = spec.build(&mut rng);
        enable_adapters(&mut adapted, &AdapterConfig::rank(4), &mut rng);
        let artifact = DeltaArtifact::capture(&mut adapted, &AdapterConfig::rank(4));
        let mut serving = spec.build(&mut Rng::new(53));
        enable_adapters(&mut serving, &AdapterConfig::rank(2), &mut rng);
        artifact.apply(&mut serving, &mut Rng::new(0));
    }
}
