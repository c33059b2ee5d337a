//! The Table 1 workload-mix history.

/// DNN model families tracked in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// MLPs and deep learning recommendation models.
    MlpDlrm,
    /// Recurrent networks.
    Rnn,
    /// Convolutional networks.
    Cnn,
    /// Transformers (including the BERT/LLM subtypes).
    Transformer,
}

impl ModelFamily {
    /// All families in Table 1 order.
    pub const ALL: [ModelFamily; 4] = [
        ModelFamily::MlpDlrm,
        ModelFamily::Rnn,
        ModelFamily::Cnn,
        ModelFamily::Transformer,
    ];
}

/// One snapshot column of Table 1: the share of TPU usage per family.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMix {
    /// Label, e.g. "TPU v4 10/2022 (Training)".
    pub label: String,
    /// Share per family, fractions of 1.
    pub shares: [(ModelFamily, f64); 4],
    /// BERT subtype share of the Transformer slice, if split out.
    pub bert_share: Option<f64>,
    /// LLM subtype share of the Transformer slice, if split out.
    pub llm_share: Option<f64>,
}

impl WorkloadMix {
    /// TPU v1, July 2016 (inference).
    pub fn tpu_v1_2016() -> WorkloadMix {
        WorkloadMix {
            label: "TPU v1 7/2016 (Inference)".into(),
            shares: [
                (ModelFamily::MlpDlrm, 0.61),
                (ModelFamily::Rnn, 0.29),
                (ModelFamily::Cnn, 0.05),
                (ModelFamily::Transformer, 0.0),
            ],
            bert_share: None,
            llm_share: None,
        }
    }

    /// TPU v3, April 2019 (training and inference).
    pub fn tpu_v3_2019() -> WorkloadMix {
        WorkloadMix {
            label: "TPU v3 4/2019 (Training & Inference)".into(),
            shares: [
                (ModelFamily::MlpDlrm, 0.27),
                (ModelFamily::Rnn, 0.21),
                (ModelFamily::Cnn, 0.24),
                (ModelFamily::Transformer, 0.21),
            ],
            bert_share: None,
            llm_share: None,
        }
    }

    /// TPU v4i ("TPU v4 Lite"), February 2020 (inference).
    pub fn tpu_v4_lite_2020() -> WorkloadMix {
        WorkloadMix {
            label: "TPU v4 Lite 2/2020 (Inference)".into(),
            shares: [
                (ModelFamily::MlpDlrm, 0.25),
                (ModelFamily::Rnn, 0.29),
                (ModelFamily::Cnn, 0.18),
                (ModelFamily::Transformer, 0.28),
            ],
            bert_share: Some(0.28),
            llm_share: None,
        }
    }

    /// TPU v4, October 2022 (training, 30-day window).
    pub fn tpu_v4_2022() -> WorkloadMix {
        WorkloadMix {
            label: "TPU v4 10/2022 (Training)".into(),
            shares: [
                (ModelFamily::MlpDlrm, 0.24),
                (ModelFamily::Rnn, 0.02),
                (ModelFamily::Cnn, 0.12),
                (ModelFamily::Transformer, 0.57),
            ],
            bert_share: Some(0.26),
            llm_share: Some(0.31),
        }
    }

    /// All four Table 1 columns in chronological order.
    pub fn table1() -> Vec<WorkloadMix> {
        vec![
            WorkloadMix::tpu_v1_2016(),
            WorkloadMix::tpu_v3_2019(),
            WorkloadMix::tpu_v4_lite_2020(),
            WorkloadMix::tpu_v4_2022(),
        ]
    }

    /// The share for one family.
    pub fn share(&self, family: ModelFamily) -> f64 {
        self.shares
            .iter()
            .find(|(f, _)| *f == family)
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
    }

    /// Total covered share (can be slightly below 1: Table 1 omits small
    /// residual categories).
    pub fn total(&self) -> f64 {
        self.shares.iter().map(|(_, s)| s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_sum_to_about_one() {
        for mix in WorkloadMix::table1() {
            let t = mix.total();
            assert!((0.92..=1.0).contains(&t), "{}: {t}", mix.label);
        }
    }

    #[test]
    fn rnn_collapse_transformer_rise() {
        // §7.7: "Note the drop in RNNs"; Transformers went 0 -> 57%.
        let v1 = WorkloadMix::tpu_v1_2016();
        let v4 = WorkloadMix::tpu_v4_2022();
        assert!(v1.share(ModelFamily::Rnn) > 0.25);
        assert!(v4.share(ModelFamily::Rnn) < 0.05);
        assert_eq!(v1.share(ModelFamily::Transformer), 0.0);
        assert!(v4.share(ModelFamily::Transformer) > 0.5);
    }

    #[test]
    fn dlrm_quarter_of_workload() {
        // §3.1: "DLRMs are a quarter of our ML workload."
        let v4 = WorkloadMix::tpu_v4_2022();
        assert!((0.20..0.30).contains(&v4.share(ModelFamily::MlpDlrm)));
    }

    #[test]
    fn transformer_subtypes_sum_within_family() {
        let v4 = WorkloadMix::tpu_v4_2022();
        let bert = v4.bert_share.unwrap();
        let llm = v4.llm_share.unwrap();
        assert!(bert + llm <= v4.share(ModelFamily::Transformer) + 1e-9);
        // §7.7: LLMs were >30% of the TPU v4 workload.
        assert!(llm > 0.30);
    }

    #[test]
    fn table_has_four_columns() {
        assert_eq!(WorkloadMix::table1().len(), 4);
    }
}
