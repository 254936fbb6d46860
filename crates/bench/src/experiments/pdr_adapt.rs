//! PDR adaptation experiments: Figures 12–18 and the Figure 22 failure case.

use crate::report::{f2, f3, mean, Table};
use crate::schemes::{run_scheme, Scheme, SchemeRun};
use crate::tasks::{PdrContext, PDR_SPLIT_AT};
use tasfar_core::prelude::*;
use tasfar_data::pdr::PdrUser;
use tasfar_data::Dataset;
use tasfar_nn::prelude::*;

/// Evaluation of one scheme on one user.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Scheme name.
    pub scheme: &'static str,
    /// STE on the adaptation set (Eq. 23).
    pub ste_adapt: f64,
    /// STE on the held-out test set.
    pub ste_test: f64,
    /// RTE per test trajectory (Eq. 24).
    pub rte_test: Vec<f64>,
}

/// All schemes evaluated on one user (index 0 is always the baseline).
#[derive(Debug, Clone)]
pub struct UserComparison {
    /// The user id.
    pub user_id: usize,
    /// Per-scheme evaluations.
    pub results: Vec<SchemeResult>,
}

impl UserComparison {
    /// The baseline result.
    pub fn baseline(&self) -> &SchemeResult {
        &self.results[0]
    }

    /// The result of a named scheme.
    pub fn scheme(&self, name: &str) -> &SchemeResult {
        self.results
            .iter()
            .find(|r| r.scheme == name)
            .unwrap_or_else(|| panic!("scheme {name} missing"))
    }
}

fn eval_model(
    model: &mut Sequential,
    adapt: &Dataset,
    test: &Dataset,
    test_trajs: &[Dataset],
) -> (f64, f64, Vec<f64>) {
    let pa = model.predict(&adapt.x);
    let pt = model.predict(&test.x);
    let rtes = test_trajs
        .iter()
        .map(|t| metrics::rte(&model.predict(&t.x), &t.y))
        .collect();
    (
        metrics::step_error(&pa, &adapt.y),
        metrics::step_error(&pt, &test.y),
        rtes,
    )
}

/// Runs the full six-scheme comparison over a user group.
pub fn compare_group(
    ctx: &PdrContext,
    users: &[PdrUser],
    schemes: &[Scheme],
) -> Vec<UserComparison> {
    let source = ctx.scaled_source();
    users
        .iter()
        .map(|user| {
            let (adapt_ds, test_ds, test_trajs) = ctx.user_splits(user);
            let results = schemes
                .iter()
                .map(|&scheme| {
                    let run = SchemeRun {
                        source_model: &ctx.model,
                        source: &source,
                        target_x: &adapt_ds.x,
                        calib: &ctx.calib,
                        tasfar: &ctx.tasfar,
                        split_at: PDR_SPLIT_AT,
                        loss: &Mse,
                        seed: user.profile.id as u64,
                    };
                    let mut adapted = run_scheme(scheme, &run);
                    let (ste_adapt, ste_test, rte_test) =
                        eval_model(&mut adapted, &adapt_ds, &test_ds, &test_trajs);
                    SchemeResult {
                        scheme: scheme.name(),
                        ste_adapt,
                        ste_test,
                        rte_test,
                    }
                })
                .collect();
            UserComparison {
                user_id: user.profile.id,
                results,
            }
        })
        .collect()
}

/// Figure 14: per-user STE reduction (%) on the adaptation set, seen group.
pub fn fig14(cmp: &[UserComparison]) -> Table {
    let scheme_names: Vec<&'static str> = cmp[0].results.iter().skip(1).map(|r| r.scheme).collect();
    let mut headers = vec!["user".to_string()];
    headers.extend(scheme_names.iter().map(|s| format!("{s}_ste_red_%")));
    let mut table = Table {
        title: "Fig 14 STE reduction per user (seen group, adaptation set)".into(),
        headers,
        rows: Vec::new(),
    };
    let mut sums = vec![0.0; scheme_names.len()];
    for user in cmp {
        let base = user.baseline().ste_adapt;
        let mut row = vec![format!("{}", user.user_id)];
        for (k, name) in scheme_names.iter().enumerate() {
            let red = metrics::error_reduction_pct(base, user.scheme(name).ste_adapt);
            sums[k] += red;
            row.push(f2(red));
        }
        table.row(row);
    }
    let mut mean_row = vec!["mean".to_string()];
    for s in &sums {
        mean_row.push(f2(s / cmp.len() as f64));
    }
    table.row(mean_row);
    table
}

/// Figure 15: mean STE reduction on adaptation vs test sets per scheme.
pub fn fig15(cmp: &[UserComparison]) -> Table {
    let mut table = Table::new(
        "Fig 15 STE reduction adaptation vs test set",
        &["scheme", "adapt_red_%", "test_red_%"],
    );
    let scheme_names: Vec<&'static str> = cmp[0].results.iter().skip(1).map(|r| r.scheme).collect();
    for name in scheme_names {
        let adapt: Vec<f64> = cmp
            .iter()
            .map(|u| metrics::error_reduction_pct(u.baseline().ste_adapt, u.scheme(name).ste_adapt))
            .collect();
        let test: Vec<f64> = cmp
            .iter()
            .map(|u| metrics::error_reduction_pct(u.baseline().ste_test, u.scheme(name).ste_test))
            .collect();
        table.row(vec![name.to_string(), f2(mean(&adapt)), f2(mean(&test))]);
    }
    table
}

/// Figure 16: uncertain-data ratio and their error share, seen vs unseen.
pub fn fig16(ctx: &PdrContext) -> Table {
    let mut table = Table::new(
        "Fig 16 uncertain data ratio and error share",
        &["group", "uncertain_data_%", "uncertain_error_%"],
    );
    for (name, users) in [
        ("seen", &ctx.world.seen_users),
        ("unseen", &ctx.world.unseen_users),
    ] {
        let mut data_ratio = Vec::new();
        let mut err_ratio = Vec::new();
        for user in users {
            let u = super::pdr_params::user_mc(ctx, user);
            data_ratio.push(u.split.uncertain_ratio());
            let err = |i: usize| -> f64 {
                ((u.mc.point.get(i, 0) - u.adapt.y.get(i, 0)).powi(2)
                    + (u.mc.point.get(i, 1) - u.adapt.y.get(i, 1)).powi(2))
                .sqrt()
            };
            let unc_err: f64 = u.split.uncertain.iter().map(|&i| err(i)).sum();
            let total_err: f64 = (0..u.adapt.len()).map(err).sum();
            if total_err > 0.0 {
                err_ratio.push(unc_err / total_err);
            }
        }
        table.row(vec![
            name.to_string(),
            f2(100.0 * mean(&data_ratio)),
            f2(100.0 * mean(&err_ratio)),
        ]);
    }
    table
}

/// Figures 17/18: share of test trajectories whose RTE reduction exceeds a
/// threshold, per scheme.
pub fn fig17_18(cmp: &[UserComparison], group: &str, max_threshold: f64) -> Table {
    let fig = if group == "seen" { "Fig 17" } else { "Fig 18" };
    let scheme_names: Vec<&'static str> = cmp[0].results.iter().skip(1).map(|r| r.scheme).collect();
    let mut headers = vec!["rte_red_threshold_m".to_string()];
    headers.extend(scheme_names.iter().map(|s| format!("{s}_traj_frac")));
    let mut table = Table {
        title: format!("{fig} RTE reduction over test trajectories ({group} group)"),
        headers,
        rows: Vec::new(),
    };
    // Collect per-trajectory RTE reductions per scheme.
    let reductions: Vec<Vec<f64>> = scheme_names
        .iter()
        .map(|name| {
            let mut reds = Vec::new();
            for user in cmp {
                for (b, s) in user
                    .baseline()
                    .rte_test
                    .iter()
                    .zip(&user.scheme(name).rte_test)
                {
                    reds.push(b - s);
                }
            }
            reds
        })
        .collect();
    let steps = 8;
    for k in 0..=steps {
        let thr = max_threshold * k as f64 / steps as f64;
        let mut row = vec![f2(thr)];
        for reds in &reductions {
            let frac = reds.iter().filter(|&&r| r > thr).count() as f64 / reds.len().max(1) as f64;
            row.push(f3(frac));
        }
        table.row(row);
    }
    // Mean reduction summary row.
    let mut row = vec!["mean_red_m".to_string()];
    for reds in &reductions {
        row.push(f3(mean(reds)));
    }
    table.row(row);
    table
}

/// A custom fine-tune loop that evaluates a callback after every epoch —
/// the instrumentation behind Figures 12 and 13.
#[allow(clippy::too_many_arguments)]
pub fn finetune_trace(
    model: &mut Sequential,
    x: &tasfar_nn::tensor::Tensor,
    y: &tasfar_nn::tensor::Tensor,
    weights: &[f64],
    lr: f64,
    epochs: usize,
    batch: usize,
    seed: u64,
    mut eval: impl FnMut(&mut Sequential) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let mut opt = Adam::new(lr);
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..x.rows()).collect();
    let mut losses = Vec::with_capacity(epochs);
    let mut evals = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        let mut epoch_weight = 0.0;
        for chunk in order.chunks(batch) {
            let xb = x.select_rows(chunk);
            let yb = y.select_rows(chunk);
            let wb: Vec<f64> = chunk.iter().map(|&i| weights[i]).collect();
            let bw: f64 = wb.iter().sum();
            if bw <= 0.0 {
                continue;
            }
            model.zero_grad();
            let pred = model.forward(&xb, Mode::Train);
            epoch_loss += Mse.value(&pred, &yb, Some(&wb)) * bw;
            epoch_weight += bw;
            let grad = Mse.grad(&pred, &yb, Some(&wb));
            model.backward(&grad);
            opt.step(model);
        }
        losses.push(if epoch_weight > 0.0 {
            epoch_loss / epoch_weight
        } else {
            0.0
        });
        evals.push(eval(model));
    }
    (losses, evals)
}

/// Assembles the TASFAR fine-tuning set for a user without training
/// (pseudo-labelled uncertain + self-labelled confident), by running the
/// pipeline with a zero epoch budget.
fn tasfar_training_set(
    ctx: &PdrContext,
    adapt_ds: &Dataset,
) -> (
    tasfar_nn::tensor::Tensor,
    tasfar_nn::tensor::Tensor,
    Vec<f64>,
) {
    let mut probe = ctx.model.clone();
    let mut cfg = ctx.tasfar.clone();
    cfg.epochs = 0;
    let outcome = adapt(&mut probe, &ctx.calib, &adapt_ds.x, &Mse, &cfg)
        .expect("tasfar_training_set: the probe batch must adapt");
    let dims = adapt_ds.output_dim();
    let n = outcome.split.uncertain.len() + outcome.split.confident.len();
    let mut rows = Vec::with_capacity(n);
    let mut y = tasfar_nn::tensor::Tensor::zeros(n, dims);
    let mut weights = Vec::with_capacity(n);
    for (row, &i) in outcome.split.uncertain.iter().enumerate() {
        rows.push(i);
        for d in 0..dims {
            y.set(row, d, outcome.pseudo[row].value[d]);
        }
        weights.push(outcome.pseudo[row].credibility);
    }
    let offset = outcome.split.uncertain.len();
    for (row, &i) in outcome.split.confident.iter().enumerate() {
        rows.push(i);
        for d in 0..dims {
            y.set(offset + row, d, outcome.mc.point.get(i, d));
        }
        weights.push(1.0);
    }
    (adapt_ds.x.select_rows(&rows), y, weights)
}

/// Figure 12: ablation of the credibility weight β — STE per epoch with and
/// without weighting, for two users.
pub fn fig12(ctx: &PdrContext) -> Table {
    let epochs = ctx.tasfar.epochs.min(100);
    let mut table = Table::new(
        "Fig 12 credibility ablation (STE vs epoch)",
        &[
            "epoch",
            "u1_with_beta",
            "u1_without",
            "u2_with_beta",
            "u2_without",
        ],
    );
    let mut curves: Vec<Vec<f64>> = Vec::new();
    for user in ctx.world.seen_users.iter().take(2) {
        let (adapt_ds, _, _) = ctx.user_splits(user);
        let (x, y, weights) = tasfar_training_set(ctx, &adapt_ds);
        for use_beta in [true, false] {
            let w: Vec<f64> = if use_beta {
                weights.clone()
            } else {
                weights
                    .iter()
                    .map(|&b| if b > 0.0 { 1.0 } else { 0.0 })
                    .collect()
            };
            let mut model = ctx.model.clone();
            let (_, stes) = finetune_trace(
                &mut model,
                &x,
                &y,
                &w,
                ctx.tasfar.learning_rate,
                epochs,
                ctx.tasfar.batch_size,
                5,
                |m| metrics::step_error(&m.predict(&adapt_ds.x), &adapt_ds.y),
            );
            curves.push(stes);
        }
    }
    for e in (0..epochs).step_by((epochs / 20).max(1)) {
        table.row(vec![
            format!("{e}"),
            f3(curves[0][e]),
            f3(curves[1][e]),
            f3(curves[2][e]),
            f3(curves[3][e]),
        ]);
    }
    table
}

/// The Fig. 13 early-stop rule applied offline to a loss curve: the first
/// epoch where the trailing-window improvement rate drops below 1 %.
pub fn early_stop_epoch(losses: &[f64], window: usize) -> Option<usize> {
    for e in (2 * window)..losses.len() {
        let recent = mean(&losses[e - window..e]);
        let previous = mean(&losses[e - 2 * window..e - window]);
        if previous > 0.0 && (previous - recent) / previous < 0.01 {
            return Some(e);
        }
    }
    None
}

/// Figure 13: adaptation learning curves and the early-stop points.
pub fn fig13(ctx: &PdrContext) -> Table {
    let epochs = ctx.tasfar.epochs.min(150);
    let mut table = Table::new(
        "Fig 13 learning curves (training loss vs epoch)",
        &["epoch", "user1_loss", "user2_loss"],
    );
    let mut all_losses = Vec::new();
    for user in ctx.world.seen_users.iter().take(2) {
        let (adapt_ds, _, _) = ctx.user_splits(user);
        let (x, y, weights) = tasfar_training_set(ctx, &adapt_ds);
        let mut model = ctx.model.clone();
        let (losses, _) = finetune_trace(
            &mut model,
            &x,
            &y,
            &weights,
            ctx.tasfar.learning_rate,
            epochs,
            ctx.tasfar.batch_size,
            5,
            |_| 0.0,
        );
        all_losses.push(losses);
    }
    for e in (0..epochs).step_by((epochs / 25).max(1)) {
        table.row(vec![
            format!("{e}"),
            f3(all_losses[0][e] * 1e3),
            f3(all_losses[1][e] * 1e3),
        ]);
    }
    let stops: Vec<String> = all_losses
        .iter()
        .map(|l| {
            early_stop_epoch(l, 8)
                .map(|e| e.to_string())
                .unwrap_or_else(|| "none".into())
        })
        .collect();
    table.row(vec![
        "early_stop".into(),
        stops[0].clone(),
        stops[1].clone(),
    ]);
    table
}

/// Figure 22: the two-user failure case. Balancing two users' data corrupts
/// the label distribution (double ring), so TASFAR degrades to a near-no-op
/// instead of helping — or hurting.
pub fn fig22(ctx: &PdrContext) -> Table {
    // Pick the two seen users with the most different stride means.
    let mut users: Vec<&PdrUser> = ctx.world.seen_users.iter().collect();
    users.sort_by(|a, b| a.profile.stride_mean.total_cmp(&b.profile.stride_mean));
    let slow = users[0];
    let fast = users[users.len() - 1];

    let mut table = Table::new(
        "Fig 22 failure case: balanced two-user target",
        &["condition", "ste_before", "ste_after", "reduction_%"],
    );

    // Individual adaptations for reference.
    for (label, user) in [("slow user alone", slow), ("fast user alone", fast)] {
        let (adapt_ds, _, _) = ctx.user_splits(user);
        let mut model = ctx.model.clone();
        let before = metrics::step_error(&model.predict(&adapt_ds.x), &adapt_ds.y);
        let _ = adapt(&mut model, &ctx.calib, &adapt_ds.x, &Mse, &ctx.tasfar);
        let after = metrics::step_error(&model.predict(&adapt_ds.x), &adapt_ds.y);
        table.row(vec![
            label.to_string(),
            f3(before),
            f3(after),
            f2(metrics::error_reduction_pct(before, after)),
        ]);
    }

    // Balanced mixture.
    let (a1, _, _) = ctx.user_splits(slow);
    let (a2, _, _) = ctx.user_splits(fast);
    let n = a1.len().min(a2.len());
    let idx: Vec<usize> = (0..n).collect();
    let mixed = Dataset::concat(&[&a1.subset(&idx), &a2.subset(&idx)]);
    let mut model = ctx.model.clone();
    let before = metrics::step_error(&model.predict(&mixed.x), &mixed.y);
    let outcome = adapt(&mut model, &ctx.calib, &mixed.x, &Mse, &ctx.tasfar)
        .expect("fig22: the balanced two-user mix must adapt");
    if let tasfar_core::adapt::BuiltMaps::Joint2d(map) = &outcome.maps {
        println!(
            "-- balanced two-user mix: estimated label density map (Fig. 22's double ring) --"
        );
        print!("{}", crate::viz::heatmap_2d(map, 48));
    }
    let after = metrics::step_error(&model.predict(&mixed.x), &mixed.y);
    table.row(vec![
        "balanced two-user mix".to_string(),
        f3(before),
        f3(after),
        f2(metrics::error_reduction_pct(before, after)),
    ]);
    table
}
