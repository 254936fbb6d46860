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

    /// Serializes to a JSON string: `rank`, `alpha` and `shapes` as JSON
    /// numbers, each `values` tensor as one padded base64 string of its
    /// values' little-endian f64 bits, then `check`, the artifact's
    /// checksum as 16 lowercase hex digits (see [`DeltaArtifact::from_json`]).
    ///
    /// # Panics
    /// Panics on a non-finite alpha or value, as the JSON writer does.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        // Each started block of three values takes 32 characters; the rest
        // is a few dozen bytes per shape and for the keys and `check`.
        let chars: usize = self.values.iter().map(|v| v.len().div_ceil(3) * 32).sum();
        let mut out = String::with_capacity(chars + 32 * self.shapes.len() + 96);
        // `fmt::Write` into a `String` cannot fail.
        let _ = write!(
            out,
            "{{\"rank\":{},\"alpha\":{},\"shapes\":[",
            self.rank,
            Json::Num(self.alpha)
        );
        for (i, (rows, cols)) in self.shapes.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}[{rows},{cols}]");
        }
        out.push_str("],\"values\":[");
        for (i, tensor) in self.values.iter().enumerate() {
            out.push_str(if i > 0 { ",\"" } else { "\"" });
            encode_payload(tensor, &mut out);
            out.push('"');
        }
        let _ = write!(out, "],\"check\":\"{:016x}\"}}", self.checksum());
        out
    }

    /// Deserializes from a JSON string in one pass, with no intermediate
    /// value tree (a cold serving lookup pays this on every rehydrate).
    ///
    /// Each `values` entry is either a payload string, decoded straight
    /// into its vector, or an array of decimals, the format earlier builds
    /// wrote, which still decodes bit for bit. `check` may be left out only
    /// when every entry is a decimal array (and there is at least one);
    /// otherwise it is required: 16 lowercase hex digits of a 64-bit FNV-1a
    /// folded over 64-bit words (rank, alpha's bits, each shape's rows and
    /// cols, then every value's bits, in order). A `check` that is present
    /// must be well formed and match, and `alpha` must then be spelled as
    /// `to_json` spells it (`16.0`, not `16e0`), so no edit of the text
    /// decodes to the same artifact unnoticed. A payload string is rejected
    /// when it holds a byte outside the base64 alphabet or an escape, when
    /// its padding is wrong or not canonical, when it decodes to a length
    /// that is not a whole number of f64s, or when it holds a NaN or ±inf.
    ///
    /// Otherwise this accepts exactly what [`Json::parse`] plus field
    /// lookups accept: any key order and whitespace, unknown keys
    /// (skipped), a repeated key (the first occurrence wins, as
    /// [`Json::get`] does) and integer literals (decoded to their
    /// [`Json::as_f64`] value). A number literal that overflows to ±inf is
    /// an error, as it is for [`Json::parse`].
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        let mut p = Parser::new(json);
        let mut rank = None;
        let mut alpha: Option<(&str, f64)> = None;
        let mut shapes: Option<Vec<(usize, usize)>> = None;
        let mut values = None;
        let mut check = None;
        // The checksum folds each value as it decodes when the header came
        // first, as `to_json` writes it; otherwise it is recomputed below.
        let mut folded = None;
        p.members(|p, key| {
            match key.as_str() {
                "rank" if rank.is_none() => rank = Some(p.value()?.as_usize()?),
                "alpha" if alpha.is_none() => alpha = Some(p.scan_number()?),
                "shapes" if shapes.is_none() => shapes = Some(decode_shapes(&p.value()?)?),
                "values" if values.is_none() => {
                    let header = rank
                        .zip(alpha)
                        .zip(shapes.as_deref())
                        .map(|((r, (_, a)), s)| header_hash(r, a, s));
                    let mut hash = header.unwrap_or(FNV_OFFSET);
                    values = Some(
                        stream_values(p, shapes.as_deref(), &mut hash)
                            .map_err(|e| e.at("values"))?,
                    );
                    folded = header.map(|_| hash);
                }
                "check" if check.is_none() => {
                    check = Some(
                        p.plain_str()
                            .and_then(decode_check)
                            .map_err(|e| e.at("check"))?,
                    )
                }
                _ => {
                    p.value()?;
                }
            }
            Ok(())
        })?;
        p.finish()?;
        let missing = |key: &str| JsonError::new(format!("missing field `{key}`"));
        let (values, payloads) = values.ok_or_else(|| missing("values"))?;
        let (alpha_text, alpha) = alpha.ok_or_else(|| missing("alpha"))?;
        let artifact = DeltaArtifact {
            rank: rank.ok_or_else(|| missing("rank"))?,
            alpha,
            shapes: shapes.ok_or_else(|| missing("shapes"))?,
            values,
        };
        match check {
            Some(want) if folded.unwrap_or_else(|| artifact.checksum()) != want => Err(
                JsonError::new(format!("`check` {want:016x} does not match the artifact")),
            ),
            Some(_) if alpha_text != Json::Num(alpha).to_string() => Err(JsonError::new(format!(
                "`alpha` {alpha_text} is not spelled as `to_json` spells it"
            ))),
            None if payloads || artifact.values.is_empty() => Err(missing("check")),
            _ => Ok(artifact),
        }
    }

    /// The `check` hash of [`DeltaArtifact::from_json`].
    fn checksum(&self) -> u64 {
        let header = header_hash(self.rank, self.alpha, &self.shapes);
        self.values
            .iter()
            .flatten()
            .fold(header, |h, v| fnv(h, v.to_bits()))
    }
}

/// FNV-1a's 64-bit offset basis and prime, folded here over whole 64-bit
/// words instead of bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// The checksum folded over the header words, ready for the values.
fn header_hash(rank: usize, alpha: f64, shapes: &[(usize, usize)]) -> u64 {
    let hash = fnv(fnv(FNV_OFFSET, rank as u64), alpha.to_bits());
    shapes.iter().fold(hash, |h, &(rows, cols)| {
        fnv(fnv(h, rows as u64), cols as u64)
    })
}

/// Exactly 16 lowercase hex digits, as `to_json` writes them, so no other
/// spelling of the same hash decodes.
fn decode_check(text: &str) -> Result<u64, JsonError> {
    let hex = text.len() == 16 && text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    match u64::from_str_radix(text, 16) {
        Ok(hash) if hex => Ok(hash),
        _ => Err(JsonError::new(format!(
            "expected 16 lowercase hex digits, got {text:?}"
        ))),
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

/// Streams `values` into one vector per tensor, folding every value's bits
/// into `hash`; also returns whether any entry was a payload string. A
/// legacy decimal array is sized from its shape when `shapes` is already
/// known, but never beyond what the rest of the input could hold (a number
/// and its separator take at least two bytes), so a corrupted shape cannot
/// force a huge allocation. A count that disagrees with its shape is left
/// for [`DeltaArtifact::check`] to report.
fn stream_values(
    p: &mut Parser<'_>,
    shapes: Option<&[(usize, usize)]>,
    hash: &mut u64,
) -> Result<(Vec<Vec<f64>>, bool), JsonError> {
    let mut values: Vec<Vec<f64>> = Vec::with_capacity(shapes.map_or(0, <[_]>::len));
    let mut payloads = false;
    p.elements(|p| {
        let tensor = if p.peek() == Some(b'"') {
            payloads = true;
            p.plain_str().and_then(|text| decode_payload(text, hash))
        } else {
            let len = shapes
                .and_then(|s| s.get(values.len()))
                .map_or(0, |&(rows, cols)| rows.saturating_mul(cols));
            let mut tensor = Vec::with_capacity(len.min(p.remaining() / 2));
            p.elements(|p| {
                let v = p.f64()?;
                *hash = fnv(*hash, v.to_bits());
                tensor.push(v);
                Ok(())
            })
            .map(|()| tensor)
        };
        let tensor = tensor.map_err(|e| e.at(&format!("[{}]", values.len())))?;
        values.push(tensor);
        Ok(())
    })?;
    Ok((values, payloads))
}

/// The RFC 4648 base64 alphabet.
const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Decode tables, one per position in a quad: each byte's 6-bit value
/// shifted to its place in the quad's 24-bit group, so a quad decodes with
/// four lookups and three ORs. A byte outside the alphabet (`=` included)
/// maps to `OUTSIDE`, which no OR of valid entries sets.
const OUTSIDE: u32 = 1 << 31;
static DECODE: [[u32; 256]; 4] = [
    decode_table(18),
    decode_table(12),
    decode_table(6),
    decode_table(0),
];

const fn decode_table(shift: u32) -> [u32; 256] {
    let mut table = [OUTSIDE; 256];
    let mut i = 0;
    while i < 64 {
        table[B64[i] as usize] = (i as u32) << shift;
        i += 1;
    }
    table
}

/// The exponent field of an f64 that is NaN or ±inf.
const NON_FINITE: u64 = 0x7FF0_0000_0000_0000;

/// Three values' little-endian bits as 32 base64 characters: eight 24-bit
/// groups cut from the 192-bit big-endian stream of their bytes.
fn encode_block(bits: [u64; 3]) -> [u8; 32] {
    let [a, b, c] = bits.map(u64::swap_bytes);
    let groups = [
        a >> 40,
        a >> 16,
        a << 8 | b >> 56,
        b >> 32,
        b >> 8,
        b << 16 | c >> 48,
        c >> 24,
        c,
    ];
    let mut chars = [0u8; 32];
    for (group, quad) in groups.iter().zip(chars.chunks_exact_mut(4)) {
        for (k, ch) in quad.iter_mut().enumerate() {
            *ch = B64[(group >> (18 - 6 * k)) as usize & 63];
        }
    }
    chars
}

/// The inverse of [`encode_block`], plus the OR of its lookups (which has
/// `OUTSIDE` set when a character is not in the alphabet).
fn decode_block(chars: &[u8; 32]) -> ([u64; 3], u32) {
    let mut groups = [0u64; 8];
    let mut seen = 0u32;
    for (group, quad) in groups.iter_mut().zip(chars.chunks_exact(4)) {
        let v = DECODE[0][usize::from(quad[0])]
            | DECODE[1][usize::from(quad[1])]
            | DECODE[2][usize::from(quad[2])]
            | DECODE[3][usize::from(quad[3])];
        seen |= v;
        *group = u64::from(v);
    }
    let g = groups;
    let bits = [
        g[0] << 40 | g[1] << 16 | g[2] >> 8,
        g[2] << 56 | g[3] << 32 | g[4] << 8 | g[5] >> 16,
        g[5] << 48 | g[6] << 24 | g[7],
    ];
    (bits.map(u64::swap_bytes), seen)
}

/// Appends `values`' little-endian bits to `out` as padded base64. The
/// last block's missing values are zero bits, cut off at the last quad
/// that holds real bits and padded with `=`.
fn encode_payload(values: &[f64], out: &mut String) {
    for chunk in values.chunks(3) {
        let mut bits = [0u64; 3];
        for (b, v) in bits.iter_mut().zip(chunk) {
            assert!(v.is_finite(), "json: cannot serialise non-finite float {v}");
            *b = v.to_bits();
        }
        let mut chars = encode_block(bits);
        // 8n bytes take ⌈64n/6⌉ characters, padded to whole quads.
        let used = (64 * chunk.len()).div_ceil(6);
        let quads = (8 * chunk.len()).div_ceil(3) * 4;
        chars[used..quads].fill(b'=');
        out.push_str(std::str::from_utf8(&chars[..quads]).expect("base64 is ASCII"));
    }
}

/// Decodes a payload string into its values, folding each value's bits
/// into `hash`. The capacity comes from the string's length, so a short
/// string never reserves much. Whole 32-character blocks hold three values
/// each; the last one or two values take a 12- or 24-character tail that
/// ends in as many `=`. The tail decodes with its padding read as zero
/// bits, which a canonical encoding also leaves in every unused bit, so no
/// other spelling of the same bits decodes.
fn decode_payload(text: &str, hash: &mut u64) -> Result<Vec<f64>, JsonError> {
    let (blocks, tail) = text.as_bytes().as_chunks::<32>();
    let pad = match tail.len() {
        0 => 0,
        12 => 1,
        24 => 2,
        _ => {
            return Err(JsonError::new(format!(
                "payload of {} characters is not base64 of whole f64s",
                text.len()
            )))
        }
    };
    let real = tail.len() - pad;
    if tail[real..].iter().any(|&b| b != b'=') {
        return Err(JsonError::new("payload is not padded with `=`"));
    }
    let mut values = Vec::with_capacity(3 * blocks.len() + pad);
    let mut seen = 0u32;
    let mut non_finite = false;
    let mut push = |bits: &[u64]| {
        for &b in bits {
            *hash = fnv(*hash, b);
            non_finite |= b & NON_FINITE == NON_FINITE;
            values.push(f64::from_bits(b));
        }
    };
    for block in blocks {
        let (bits, v) = decode_block(block);
        seen |= v;
        push(&bits);
    }
    let mut last = [b'A'; 32];
    last[..real].copy_from_slice(&tail[..real]);
    let (bits, v) = decode_block(&last);
    seen |= v;
    let (bits, unused) = bits.split_at(pad);
    push(bits);
    if seen & OUTSIDE != 0 {
        return Err(JsonError::new(
            "payload holds a byte outside the base64 alphabet",
        ));
    }
    if unused.iter().any(|&b| b != 0) {
        return Err(JsonError::new("payload padding hides non-zero bits"));
    }
    if non_finite {
        return Err(JsonError::new("payload holds a NaN or infinite value"));
    }
    Ok(values)
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
