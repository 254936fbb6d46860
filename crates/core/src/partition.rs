//! Target-data partitioning (the paper's Section VI, first future-work
//! direction).
//!
//! "One direction of future works can focus on how to partition test data so
//! as to better utilize the characteristics of the target scenario. …we can
//! partition the target data, according to the task-specific knowledge, into
//! several parts, in which we pseudo-label the uncertain data
//! independently." — TASFAR, Sec. VI.
//!
//! The paper's Fig. 20 already demonstrates the effect for crowd scenes
//! (partitioned adaptation beats fused adaptation). A partition is a tenant
//! by another name, so partitioned adaptation needs no loop of its own: the
//! caller groups the unlabeled target rows by a task-specific key (scene id,
//! time of day, user id, …) with [`group_by_key`] and runs one
//! [`crate::session::TenantSession::adapt_delta`] per group against one
//! shared frozen source model. Each group gets its own confidence split,
//! density map, pseudo-labels and fine-tune, so one scenario's label
//! distribution never corrupts another's (the paper's Fig. 20/22 failure
//! mode); each keeps only a low-rank [`tasfar_nn::spec::DeltaArtifact`]
//! instead of a full model clone; and each runs under the do-no-harm guard,
//! so a group that fails — an empty one included — ends
//! `FellBackToSource` with no artifact and serves the source bits. Groups
//! are predicted through the serving path,
//! [`tasfar_nn::layers::Sequential::predict_segmented_scratch`]:
//!
//! ```no_run
//! use tasfar_core::prelude::*;
//! use tasfar_nn::adapter::AdapterConfig;
//! use tasfar_nn::layers::SegmentSpan;
//! use tasfar_nn::prelude::*;
//!
//! # fn inputs() -> (Sequential, SourceCalibration, Tensor, Vec<usize>) { unimplemented!() }
//! let (source, calib, x, keys) = inputs();
//! let session = TenantSession::new(calib, TasfarConfig::default(), AdapterConfig::rank(8));
//! let mut rng = Rng::new(0);
//! let (mut shared, init) = session.prepare_shared(&source, &mut rng);
//! for (g, rows) in group_by_key(&keys).iter().enumerate() {
//!     let xg = x.select_rows(rows);
//!     let (outcome, art) =
//!         session.adapt_delta(&mut shared, &init, g as u64, None, &xg, &Mse, &mut rng);
//!     let span = SegmentSpan { rows: rows.len(), delta: art.as_ref() };
//!     let pred = shared.predict_segmented_scratch(&xg, &[span], &mut Scratch::new());
//!     println!("group {g}: {} → {:?}", outcome.label(), pred.shape());
//! }
//! ```

/// Groups row indices by a dense, 0-based integer key: group `k` lists, in
/// ascending order, the rows whose key is `k`. A key below the maximum that
/// no row carries yields an empty group; no keys yield no groups.
pub fn group_by_key(keys: &[usize]) -> Vec<Vec<usize>> {
    let len = keys.iter().max().map_or(0, |&max| max + 1);
    let mut groups = vec![Vec::new(); len];
    for (i, &k) in keys.iter().enumerate() {
        groups[k].push(i);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::{calibrate_on_source, SourceCalibration, TasfarConfig};
    use crate::error::ErrorKind;
    use crate::guard::GuardedOutcome;
    use crate::session::TenantSession;
    use tasfar_data::Dataset;
    use tasfar_nn::adapter::AdapterConfig;
    use tasfar_nn::layers::SegmentSpan;
    use tasfar_nn::prelude::*;
    use tasfar_nn::spec::DeltaArtifact;

    /// Source: y = x₀ with hard samples. Two target scenarios with label
    /// clusters at opposite ends — fused adaptation sees a bimodal prior
    /// (the paper's Fig. 22 failure), partitioned adaptation does not.
    fn setup() -> (
        Sequential,
        SourceCalibration,
        Tensor,
        Tensor,
        Vec<usize>,
        TasfarConfig,
    ) {
        let mut rng = Rng::new(11);
        let n_src = 600;
        let mut xs = Tensor::zeros(n_src, 2);
        let mut ys = Tensor::zeros(n_src, 1);
        for i in 0..n_src {
            let y = rng.uniform(-1.0, 1.0);
            let hard = rng.bernoulli(0.05);
            let noise = if hard {
                rng.gaussian(0.0, 0.8)
            } else {
                rng.gaussian(0.0, 0.03)
            };
            xs.set(i, 0, y + noise);
            xs.set(
                i,
                1,
                if hard {
                    rng.uniform(3.0, 5.0)
                } else {
                    rng.uniform(0.0, 0.5)
                },
            );
            ys.set(i, 0, y);
        }
        let source = Dataset::new(xs, ys);
        let mut model = Sequential::new()
            .add(Dense::new(2, 32, Init::HeNormal, &mut rng))
            .add(Relu::new())
            .add(Dropout::new(0.2, &mut rng))
            .add(Dense::new(32, 1, Init::XavierUniform, &mut rng));
        let mut opt = Adam::new(5e-3);
        let _ = fit(
            &mut model,
            &mut opt,
            &Mse,
            &source.x,
            &source.y,
            None,
            &TrainConfig {
                epochs: 120,
                batch_size: 32,
                ..TrainConfig::default()
            },
        );
        let cfg = TasfarConfig {
            grid_cell: 0.05,
            epochs: 60,
            learning_rate: 1e-3,
            early_stop: None,
            ..TasfarConfig::default()
        };
        let calib = calibrate_on_source(&mut model, &source, &cfg).unwrap();

        // Two scenarios: labels at −0.6 and +0.6.
        let n = 400;
        let mut xt = Tensor::zeros(n, 2);
        let mut yt = Tensor::zeros(n, 1);
        let mut keys = Vec::with_capacity(n);
        for i in 0..n {
            let group = i % 2;
            let centre = if group == 0 { -0.6 } else { 0.6 };
            let y = rng.gaussian(centre, 0.05);
            let hard = rng.bernoulli(0.4);
            let noise = if hard {
                rng.gaussian(0.0, 0.8)
            } else {
                rng.gaussian(0.0, 0.03)
            };
            xt.set(i, 0, y + noise);
            xt.set(
                i,
                1,
                if hard {
                    rng.uniform(3.0, 5.0)
                } else {
                    rng.uniform(0.0, 0.5)
                },
            );
            yt.set(i, 0, y);
            keys.push(group);
        }
        (model, calib, xt, yt, keys, cfg)
    }

    /// The caller-side partition loop: one guarded delta adapt per group
    /// against one shared source model. Rank 8 clamps to each layer's
    /// `min(rows, cols)`, a full-rank update on every layer of the toy.
    struct Parted {
        shared: Sequential,
        groups: Vec<Vec<usize>>,
        outcomes: Vec<GuardedOutcome>,
        arts: Vec<Option<DeltaArtifact>>,
    }

    fn adapt_groups(
        model: &Sequential,
        calib: &SourceCalibration,
        cfg: &TasfarConfig,
        xt: &Tensor,
        keys: &[usize],
    ) -> Parted {
        let session = TenantSession::new(calib.clone(), cfg.clone(), AdapterConfig::rank(8));
        let mut rng = Rng::new(77);
        let (mut shared, init) = session.prepare_shared(model, &mut rng);
        let groups = group_by_key(keys);
        let (outcomes, arts) = groups
            .iter()
            .enumerate()
            .map(|(g, rows)| {
                let xg = xt.select_rows(rows);
                session.adapt_delta(&mut shared, &init, g as u64, None, &xg, &Mse, &mut rng)
            })
            .unzip();
        Parted {
            shared,
            groups,
            outcomes,
            arts,
        }
    }

    impl Parted {
        /// Group `g`'s predictions for `x`, through the serving path.
        fn predict_group(&mut self, g: usize, x: &Tensor) -> Tensor {
            let span = SegmentSpan {
                rows: x.rows(),
                delta: self.arts[g].as_ref(),
            };
            self.shared
                .predict_segmented_scratch(x, &[span], &mut Scratch::new())
        }

        /// MSE over every row, each predicted by its own group.
        fn mse(&mut self, xt: &Tensor, yt: &Tensor) -> f64 {
            let mut preds = Vec::new();
            let mut targets = Vec::new();
            for (g, rows) in self.groups.clone().iter().enumerate() {
                preds.push(self.predict_group(g, &xt.select_rows(rows)));
                targets.push(yt.select_rows(rows));
            }
            crate::metrics::mse(
                &Tensor::vstack(&preds.iter().collect::<Vec<_>>()),
                &Tensor::vstack(&targets.iter().collect::<Vec<_>>()),
            )
        }
    }

    fn empty_batch(outcome: &GuardedOutcome) -> bool {
        matches!(
            outcome,
            GuardedOutcome::FellBackToSource { error, .. }
                if error.kind == ErrorKind::EmptyTargetBatch
        )
    }

    #[test]
    fn group_by_key_partitions_exactly() {
        let groups = group_by_key(&[0, 2, 0, 1]);
        assert_eq!(groups, vec![vec![0, 2], vec![3], vec![1]]);
        assert!(group_by_key(&[]).is_empty());
    }

    #[test]
    fn partitioned_beats_fused_on_two_scenarios() {
        let (model, calib, xt, yt, keys, cfg) = setup();

        // Fused: one adaptation over the mixed batch.
        let mut fused = model.clone();
        let _ = crate::adapt::adapt(&mut fused, &calib, &xt, &Mse, &cfg).unwrap();
        let fused_mse = crate::metrics::mse(&fused.predict(&xt), &yt);

        // Partitioned.
        let mut parted = adapt_groups(&model, &calib, &cfg, &xt, &keys);
        assert_eq!(parted.groups.len(), 2);
        let part_mse = parted.mse(&xt, &yt);

        let mut baseline = model.clone();
        let base_mse = crate::metrics::mse(&baseline.predict(&xt), &yt);

        assert!(
            part_mse < base_mse,
            "partitioned adaptation should beat the baseline: {part_mse:.4} vs {base_mse:.4}"
        );
        assert!(
            part_mse < fused_mse,
            "partitioned should beat fused on opposed scenarios: {part_mse:.4} vs {fused_mse:.4}"
        );
    }

    #[test]
    fn per_group_models_differ() {
        let (model, calib, xt, _, keys, cfg) = setup();
        let mut parted = adapt_groups(&model, &calib, &cfg, &xt, &keys);
        let probe = Tensor::from_vec(1, 2, vec![0.0, 4.0]); // a "hard" input
        let p0 = parted.predict_group(0, &probe).get(0, 0);
        let p1 = parted.predict_group(1, &probe).get(0, 0);
        assert!(
            (p0 - p1).abs() > 0.1,
            "group deltas should pull toward their own clusters: {p0:.3} vs {p1:.3}"
        );
        assert!(p0 < p1, "group 0 clusters at −0.6, group 1 at +0.6");
    }

    #[test]
    fn empty_partitions_are_noop() {
        let (model, calib, xt, _, _, cfg) = setup();
        // Every row in group 2; groups 0 and 1 empty.
        let keys = vec![2usize; xt.rows()];
        let parted = adapt_groups(&model, &calib, &cfg, &xt, &keys);
        assert_eq!(parted.groups.len(), 3);
        for g in 0..2 {
            assert!(empty_batch(&parted.outcomes[g]), "{:?}", parted.outcomes[g]);
            assert!(parted.arts[g].is_none());
        }
        assert!(!parted.outcomes[2].fell_back());
        assert!(parted.arts[2].is_some());
    }

    #[test]
    fn shared_delta_variant_specialises_per_group_with_small_state() {
        let (model, calib, xt, _, keys, cfg) = setup();
        let parted = adapt_groups(&model, &calib, &cfg, &xt, &keys);
        assert!(parted.outcomes.iter().all(|o| !o.fell_back()));
        // Per-group state is a delta, strictly smaller than a full clone.
        let full = model.clone().num_parameters() * std::mem::size_of::<f64>();
        for art in &parted.arts {
            let bytes = art
                .as_ref()
                .expect("adapted groups keep a delta")
                .payload_bytes();
            assert!(
                bytes > 0 && bytes < full,
                "delta {bytes} B vs full clone {full} B"
            );
        }
    }

    #[test]
    fn shared_empty_group_is_bit_identical_to_source() {
        let (model, calib, xt, _, _, cfg) = setup();
        let mut source = model.clone();
        let source_pred = source.predict(&xt);
        // Every row in group 1; group 0 empty.
        let keys = vec![1usize; xt.rows()];
        let mut parted = adapt_groups(&model, &calib, &cfg, &xt, &keys);
        assert!(empty_batch(&parted.outcomes[0]));
        assert!(!parted.outcomes[1].fell_back());
        // The empty group has no delta: it serves the source bit pattern.
        let bits = |t: &Tensor| -> Vec<u64> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(
            bits(&parted.predict_group(0, &xt)),
            bits(&source_pred),
            "an empty group must reproduce source predictions bitwise"
        );
    }
}
