//! Ablations of the design choices DESIGN.md §4 calls out:
//!
//! 1. mask-update rule — §5.3's gradient-mean rule vs median / quantile
//!    thresholds (the paper's footnote-2 future work) vs literal Eq. 7;
//! 2. encoder — Simple-HGN vs vanilla GAT (no edge-type attention), and
//!    the released Simple-HGN's attention-residual trick;
//! 3. decoder — dot product vs DistMult;
//! 4. explore cool-down on vs off;
//! 5. deactivation without any reactivation (what Restart/Explore prevent);
//! 6. aggregation weighting — uniform (paper) vs sample-count weighted;
//! 7. client-side differential privacy (clip + Gaussian noise) on top of
//!    FedDA (the conclusion's future-work direction).

use crate::table::TextTable;
use crate::{base_config, maybe_write_json, Failure, Options};
use fedda::experiment::{Dataset, Experiment, Framework, FrameworkResult};
use fedda::fl::{AggWeighting, FedDa, MaskRule, PrivacyConfig, Reactivation};
use fedda::hgn::Decoder;
use serde_json::json;

pub(crate) fn run(opts: Options) -> Result<(), Failure> {
    let cfg = base_config(Dataset::DblpLike, &opts)?;
    let mut json_blobs = Vec::new();
    let mut table = TextTable::new(&["Ablation", "Setting", "ROC-AUC", "Best AUC", "Uplink units"]);
    // One table row and one JSON row per trained setting.
    let mut record = |ablation: &str, setting: &str, res: &FrameworkResult| {
        table.row(&[
            ablation.into(),
            setting.into(),
            res.final_auc().fmt_pm(),
            res.best_auc().fmt_pm(),
            format!("{:.0}", res.uplink_units().mean),
        ]);
        json_blobs.push(json!({
            "ablation": ablation, "setting": setting,
            "final_auc": res.final_auc().mean, "final_auc_std": res.final_auc().std,
            "best_auc": res.best_auc().mean,
            "uplink_units": res.uplink_units().mean,
        }));
    };

    // 1. mask-update rule
    let exp = Experiment::new(cfg.clone());
    for (setting, rule) in [
        ("gradient-mean (default)", MaskRule::GradientMean),
        ("gradient-median", MaskRule::GradientQuantile(0.5)),
        ("gradient-quantile q=0.25", MaskRule::GradientQuantile(0.25)),
        ("gradient-quantile q=0.75", MaskRule::GradientQuantile(0.75)),
        ("literal Eq.7", MaskRule::LiteralEq7),
    ] {
        let mut fedda = FedDa::explore();
        fedda.mask_rule = rule;
        let res = opts.run_framework(&exp, &Framework::FedDa(fedda))?;
        record("mask rule", setting, &res);
    }

    // 2. encoder: Simple-HGN vs GAT vs attention-residual Simple-HGN
    for setting in ["Simple-HGN", "vanilla GAT", "Simple-HGN + attn residual"] {
        let mut c = cfg.clone();
        match setting {
            "vanilla GAT" => c.model = c.model.gat(),
            "Simple-HGN + attn residual" => c.model.attn_residual = 0.3,
            _ => {}
        }
        let exp = Experiment::new(c);
        let res = opts.run_framework(&exp, &Framework::FedDa(FedDa::explore()))?;
        record("encoder", setting, &res);
    }

    // 3. decoder
    for (setting, dec) in [
        ("dot product", Decoder::DotProduct),
        ("DistMult", Decoder::DistMult),
    ] {
        let mut c = cfg.clone();
        c.model.decoder = dec;
        let exp = Experiment::new(c);
        let res = opts.run_framework(&exp, &Framework::FedDa(FedDa::explore()))?;
        record("decoder", setting, &res);
    }

    // 4. explore cool-down
    let exp = Experiment::new(cfg.clone());
    for (setting, cooldown) in [("cool-down on (paper)", true), ("cool-down off", false)] {
        let mut fedda = FedDa::explore();
        fedda.explore_cooldown = cooldown;
        let res = opts.run_framework(&exp, &Framework::FedDa(fedda))?;
        record("explore cool-down", setting, &res);
    }

    // 5. no reactivation: Restart with beta_r ~ 0 never restarts, Explore
    //    with beta_e ~ 0 never explores — pure deactivation.
    let exp = Experiment::new(cfg.clone());
    for (setting, fedda) in [
        ("Explore beta_e=0.667 (paper)", FedDa::explore()),
        ("no reactivation (beta→0)", {
            let mut f = FedDa::explore();
            f.strategy = Reactivation::Explore { beta_e: 0.01 };
            f
        }),
    ] {
        let res = opts.run_framework(&exp, &Framework::FedDa(fedda))?;
        record("reactivation", setting, &res);
    }

    // 6. aggregation weighting
    for (setting, weighting) in [
        ("uniform p_i = 1/M (paper)", AggWeighting::Uniform),
        ("sample-count weighted", AggWeighting::BySampleCount),
    ] {
        let mut c = cfg.clone();
        c.weighting = weighting;
        let exp = Experiment::new(c);
        let res = opts.run_framework(&exp, &Framework::FedDa(FedDa::explore()))?;
        record("agg weighting", setting, &res);
    }

    // 7. differential privacy on returned updates
    for (setting, privacy) in [
        ("no DP (paper)", None),
        (
            "clip=1.0, sigma=0.01",
            Some(PrivacyConfig {
                clip_norm: 1.0,
                noise_multiplier: 0.01,
            }),
        ),
        (
            "clip=1.0, sigma=0.1",
            Some(PrivacyConfig {
                clip_norm: 1.0,
                noise_multiplier: 0.1,
            }),
        ),
    ] {
        let mut c = cfg.clone();
        c.privacy = privacy;
        let exp = Experiment::new(c);
        let res = opts.run_framework(&exp, &Framework::FedDa(FedDa::explore()))?;
        record("privacy", setting, &res);
    }

    println!("== Ablations (DBLP-like, M={}) ==\n", cfg.num_clients);
    println!("{}", table.render());

    maybe_write_json(&opts, &json!(json_blobs))
}
