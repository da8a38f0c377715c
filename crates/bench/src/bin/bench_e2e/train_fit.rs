//! `train_fit`: `net` and `serve` idle — GML-FM_md and GML-FM_dnn
//! fitted with `fit_regression` on a MovieLens-shaped fixture, one epoch
//! per op (panel = {md epoch, dnn epoch}, a pass = one epoch of each),
//! then `Freeze` + `evaluate_topn_frozen_with`.
//!
//! The paper's own cost — the Eq. 10/11 forward, the autograd tape, Adam
//! — with nothing else in the way. Quality is read from the models as
//! they stand after exactly [`QUALITY_EPOCHS`] epochs, so it repeats for
//! a seed however many further epochs the timed window fits.

use crate::fixture::{subseed, Scale, WORLD_SEED};
use crate::oracle::{Verdict, PAIRWISE_TOLERANCE};
use crate::panel::{quiet_call_us, timed, Layers, Workload};
use crate::trace::Tracer;
use gmlfm_core::{GmlFm, GmlFmConfig};
use gmlfm_data::{generate, loo_split, Dataset, DatasetSpec, FieldMask, Instance, LooTestCase};
use gmlfm_eval::{evaluate_topn, evaluate_topn_frozen_with};
use gmlfm_par::Parallelism;
use gmlfm_serve::{Freeze, FrozenModel};
use gmlfm_train::{fit_regression, TrainConfig};

/// Embedding size of both models.
const K: usize = 16;
/// Epochs after which quality is read (the warm-up epoch counts).
pub const QUALITY_EPOCHS: usize = 8;
/// Test cases the slow autograd evaluation is compared on.
const ORACLE_CASES: usize = 64;

/// One of the two models being fitted.
struct Fit {
    /// `md` or `dnn`.
    tag: &'static str,
    span: &'static str,
    model: GmlFm,
    /// The model as it stood after [`QUALITY_EPOCHS`] epochs.
    at_quality: Option<GmlFm>,
    loss_at_quality: f64,
}

/// The training workload.
pub struct TrainFit {
    dataset: Dataset,
    mask: FieldMask,
    train: Vec<Instance>,
    test: Vec<LooTestCase>,
    fits: [Fit; 2],
    config: TrainConfig,
    epochs_run: usize,
    quality_epochs: usize,
}

/// `train_fit`: MovieLens-shaped data at 2.5×, 32 768 training
/// instances, k = 16.
pub fn build(tracer: &mut Tracer, seed: u64, scale: Scale) -> Box<dyn Workload> {
    let dataset = tracer.span("data.generate", |_| {
        generate(
            &DatasetSpec::MovieLens
                .config(subseed(WORLD_SEED, 1))
                .scaled(scale.pick(2.5, 0.4)),
        )
    });
    let mask = FieldMask::all(&dataset.schema);
    let split = tracer.span("data.loo_split", |_| loo_split(&dataset, &mask, 2, 99, subseed(WORLD_SEED, 2)));
    // A fixed instance count: an epoch is the same work for every seed.
    let mut train = split.train;
    train.truncate(scale.pick(32_768, 4_096));
    let n = dataset.schema.total_dim();
    let fit = |tag, span, cfg: GmlFmConfig| Fit {
        tag,
        span,
        model: GmlFm::new(n, &cfg),
        at_quality: None,
        loss_at_quality: 0.0,
    };
    Box::new(TrainFit {
        fits: [
            fit("md", "train.epoch_md", GmlFmConfig::mahalanobis(K).with_seed(subseed(seed, 3))),
            fit("dnn", "train.epoch_dnn", GmlFmConfig::dnn(K, 1).with_seed(subseed(seed, 4))),
        ],
        dataset,
        mask,
        train,
        test: split.test,
        config: TrainConfig { epochs: 1, patience: 0, seed: subseed(seed, 5), ..TrainConfig::default() },
        epochs_run: 0,
        quality_epochs: scale.pick(QUALITY_EPOCHS, 2),
    })
}

impl TrainFit {
    fn hr_at_10(&self, frozen: &FrozenModel, cases: &[LooTestCase]) -> f64 {
        evaluate_topn_frozen_with(frozen, &self.dataset, &self.mask, cases, 10, Parallelism::serial()).hr
    }
}

impl Workload for TrainFit {
    fn pass(&mut self, tracer: &mut Tracer, times: &mut Vec<f64>) -> u64 {
        // A fresh shuffle per epoch; Adam restarts with it, exactly as in
        // the online loop's one-epoch warm fits.
        let cfg = TrainConfig {
            seed: self.config.seed.wrapping_add(self.epochs_run as u64),
            ..self.config.clone()
        };
        self.epochs_run += 1;
        let mut failed = 0;
        for fit in &mut self.fits {
            tracer.next_request();
            let report = timed(times, || {
                tracer.span("op", |t| {
                    t.span(fit.span, |_| fit_regression(&mut fit.model, &self.train, None, &cfg))
                })
            });
            let loss = report.train_losses.last().copied().unwrap_or(f64::NAN);
            failed += u64::from(!loss.is_finite());
            if self.epochs_run == self.quality_epochs {
                fit.at_quality = Some(fit.model.clone());
                fit.loss_at_quality = loss;
            }
        }
        tracer.count("train.instances", (self.train.len() * self.fits.len()) as u64);
        failed
    }

    fn units_per_pass(&self) -> f64 {
        (self.train.len() * self.fits.len()) as f64
    }

    fn verify(&mut self, layers: &mut Layers) -> Verdict {
        let mut verdict = Verdict::default();
        let mut hr_sum = 0.0;
        for fit in &self.fits {
            let Some(model) = &fit.at_quality else {
                verdict.mismatch(format!("{}: the run never reached epoch {}", fit.tag, self.quality_epochs));
                continue;
            };
            let frozen = model.freeze();
            let hr = self.hr_at_10(&frozen, &self.test);
            hr_sum += hr;
            // The slow path: the autograd scorer and the scalar pair
            // loop, against the frozen tables, on a slice of the cases.
            let cases = &self.test[..self.test.len().min(ORACLE_CASES)];
            let slow = evaluate_topn(model, &self.dataset, &self.mask, cases, 10).hr;
            let fast = self.hr_at_10(&frozen, cases);
            verdict.check(slow == fast, || format!("{}: autograd HR@10 {slow} vs frozen {fast}", fit.tag));
            for case in cases {
                let inst = self.dataset.instance_masked(case.user, case.pos_item, 1.0, &self.mask);
                let (want, got) = (model.predict_reference(&inst), frozen.predict_feats(&inst.feats));
                verdict.check((want - got).abs() <= PAIRWISE_TOLERANCE, || {
                    format!("{}: frozen {got:e} vs reference {want:e} for user {}", fit.tag, case.user)
                });
            }
            let (hr_name, loss_name) = match fit.tag {
                "md" => ("train.hr_at_10_md", "train.final_loss_md"),
                _ => ("train.hr_at_10_dnn", "train.final_loss_dnn"),
            };
            layers.insert(hr_name, hr);
            layers.insert(loss_name, fit.loss_at_quality);
        }
        verdict.quality_at_10 = hr_sum / self.fits.len() as f64;
        verdict
    }

    fn probes(&mut self, tracer: &Tracer, layers: &mut Layers) {
        let (md_s, dnn_s) =
            (tracer.median_us("train.epoch_md") / 1e6, tracer.median_us("train.epoch_dnn") / 1e6);
        layers.insert("train.epoch_s_md", md_s);
        layers.insert("train.epoch_s_dnn", dnn_s);
        let batches = self.train.len().div_ceil(self.config.batch_size);
        layers.insert("train.batch_us", (md_s + dnn_s) * 1e6 / (2 * batches) as f64);

        let frozen = self.fits[0].model.freeze();
        layers.insert("serve.freeze_ms", quiet_call_us(8, || self.fits[0].model.freeze()) / 1e3);
        let eval_us = quiet_call_us(4, || self.hr_at_10(&frozen, &self.test));
        layers.insert("eval.topn_cases_per_s", self.test.len() as f64 / (eval_us / 1e6));
    }
}
