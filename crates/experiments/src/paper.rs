//! The paper's reported numbers and model roster, embedded verbatim so
//! every experiment can print "paper vs measured" side by side (absolute
//! values are not expected to match — the substrate is synthetic — but
//! the *shape* should: see "Substitutions" in the [`gmlfm_models`] crate
//! docs).
//!
//! [`ModelKind`] is the paper-facing identity of each table row; its
//! [`ModelKind::spec`] table is the only place the per-model
//! hyper-parameters of the grids live — everything downstream dispatches
//! through [`gmlfm_engine::ModelSpec`].

use crate::runner::ExpConfig;
use gmlfm_engine::ModelSpec;
use gmlfm_models::afm::AfmConfig;
use gmlfm_models::deepfm::DeepFmConfig;
use gmlfm_models::fm::FmConfig;
use gmlfm_models::mf::MfConfig;
use gmlfm_models::ncf::NcfConfig;
use gmlfm_models::nfm::NfmConfig;
use gmlfm_models::transfm::TransFmConfig;
use gmlfm_models::xdeepfm::XDeepFmConfig;

/// Every model that appears in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Biased matrix factorization (rating only).
    Mf,
    /// Probabilistic MF (rating only).
    Pmf,
    /// NCF / NeuMF (top-n only in the paper).
    Ncf,
    /// BPR-MF (top-n only).
    BprMf,
    /// NGCF, simplified propagation (top-n only).
    Ngcf,
    /// LibFM-style vanilla FM.
    LibFm,
    /// Neural FM.
    Nfm,
    /// Attentional FM.
    Afm,
    /// Translation-based FM.
    TransFm,
    /// DeepFM.
    DeepFm,
    /// xDeepFM.
    XDeepFm,
    /// GML-FM with Mahalanobis distance.
    GmlFmMd,
    /// GML-FM with the DNN distance (1 layer by default).
    GmlFmDnn,
}

impl ModelKind {
    /// Paper's display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::Mf => "MF",
            ModelKind::Pmf => "PMF",
            ModelKind::Ncf => "NCF",
            ModelKind::BprMf => "BPR-MF",
            ModelKind::Ngcf => "NGCF",
            ModelKind::LibFm => "LibFM",
            ModelKind::Nfm => "NFM",
            ModelKind::Afm => "AFM",
            ModelKind::TransFm => "TransFM",
            ModelKind::DeepFm => "DeepFM",
            ModelKind::XDeepFm => "xDeepFM",
            ModelKind::GmlFmMd => "GML-FM_md",
            ModelKind::GmlFmDnn => "GML-FM_dnn",
        }
    }

    /// The paper-grid [`ModelSpec`] for this row: one declarative table
    /// of hyper-parameters; construction and training happen behind the
    /// engine's `Estimator`.
    pub fn spec(&self, cfg: &ExpConfig) -> ModelSpec {
        let (k, seed) = (cfg.k, cfg.seed);
        let mf = MfConfig { k, lr: 0.02, reg: 0.02, epochs: cfg.epochs * 2, seed: seed ^ 0xa1 };
        match self {
            ModelKind::Mf => ModelSpec::Mf { config: mf },
            ModelKind::Pmf => ModelSpec::Pmf { config: mf },
            ModelKind::Ncf => {
                ModelSpec::Ncf { config: NcfConfig { k, layers: 2, dropout: 0.2, seed: seed ^ 0x4a } }
            }
            ModelKind::BprMf => ModelSpec::BprMf { config: MfConfig { lr: 0.05, ..mf } },
            ModelKind::Ngcf => ModelSpec::Ngcf { config: MfConfig { lr: 0.02, ..mf } },
            ModelKind::LibFm => ModelSpec::Fm {
                config: FmConfig { k, lr: 0.01, reg: 0.01, epochs: cfg.epochs * 2, seed: seed ^ 0xb2 },
            },
            ModelKind::Nfm => {
                ModelSpec::Nfm { config: NfmConfig { k, layers: 1, dropout: 0.2, seed: seed ^ 0xc3 } }
            }
            ModelKind::Afm => {
                ModelSpec::Afm { config: AfmConfig { k, attention_size: k, dropout: 0.2, seed: seed ^ 0xd4 } }
            }
            ModelKind::TransFm => ModelSpec::TransFm { config: TransFmConfig { k, seed: seed ^ 0xe5 } },
            ModelKind::DeepFm => {
                ModelSpec::DeepFm { config: DeepFmConfig { k, layers: 2, dropout: 0.2, seed: seed ^ 0xf6 } }
            }
            ModelKind::XDeepFm => ModelSpec::XDeepFm {
                config: XDeepFmConfig {
                    k,
                    cin_maps: 4,
                    cin_depth: 2,
                    layers: 2,
                    dropout: 0.2,
                    seed: seed ^ 0x17,
                },
            },
            ModelKind::GmlFmMd => ModelSpec::gml_fm(crate::runner::default_md_cfg(k, seed ^ 0x28)),
            ModelKind::GmlFmDnn => ModelSpec::gml_fm(crate::runner::default_dnn_cfg(k, seed ^ 0x39)),
        }
    }

    /// Models in Table 3 (rating prediction), paper row order.
    pub const RATING: [ModelKind; 10] = [
        ModelKind::Mf,
        ModelKind::Pmf,
        ModelKind::LibFm,
        ModelKind::Nfm,
        ModelKind::Afm,
        ModelKind::TransFm,
        ModelKind::DeepFm,
        ModelKind::XDeepFm,
        ModelKind::GmlFmMd,
        ModelKind::GmlFmDnn,
    ];

    /// Models in Table 4 (top-n), paper row order.
    pub const TOPN: [ModelKind; 11] = [
        ModelKind::Ncf,
        ModelKind::BprMf,
        ModelKind::Ngcf,
        ModelKind::LibFm,
        ModelKind::Nfm,
        ModelKind::Afm,
        ModelKind::TransFm,
        ModelKind::DeepFm,
        ModelKind::XDeepFm,
        ModelKind::GmlFmMd,
        ModelKind::GmlFmDnn,
    ];
}

/// Table 2: dataset statistics, `(name, users, items, attr_dim, instances, sparsity)`.
pub const TABLE2: [(&str, usize, usize, usize, usize, f64); 6] = [
    ("Amazon-Auto", 2928, 1835, 5220, 20473, 0.9962),
    ("Amazon-Office", 4905, 2420, 7620, 53258, 0.9955),
    ("Amazon-Clothing", 39387, 23033, 64473, 278677, 0.9996),
    ("Mercari-Ticket", 3855, 45998, 49977, 46712, 0.9997),
    ("Mercari-Books", 26080, 367968, 394177, 373790, 0.9999),
    ("MovieLens", 6040, 3706, 10070, 1000209, 0.9553),
];

/// Table 3: rating-prediction RMSE. Column order:
/// MovieLens, Office, Clothing, Auto, Ticket, Books.
pub const TABLE3: [(&str, [f64; 6]); 10] = [
    ("MF", [0.6389, 0.8415, 0.9619, 0.9762, 0.9974, 0.9987]),
    ("PMF", [0.6456, 0.8380, 0.9417, 0.9468, 0.9895, 0.9993]),
    ("LibFM", [0.6592, 0.8686, 0.9213, 0.9369, 0.9731, 0.9688]),
    ("NFM", [0.6377, 0.8584, 0.9147, 0.9136, 0.9218, 0.8847]),
    ("AFM", [0.6780, 0.8663, 0.9212, 0.9315, 0.7915, 0.8260]),
    ("TransFM", [0.6617, 0.8616, 0.9155, 0.9282, 0.9725, 0.9697]),
    ("DeepFM", [0.6402, 0.8179, 0.8940, 0.9161, 0.9444, 0.7650]),
    ("xDeepFM", [0.6412, 0.8214, 0.8961, 0.9126, 0.9372, 0.7272]),
    ("GML-FM_md", [0.6472, 0.8319, 0.8930, 0.9050, 0.7655, 0.7902]),
    ("GML-FM_dnn", [0.6446, 0.8153, 0.8861, 0.8822, 0.7572, 0.7892]),
];

/// Table 4: top-n `(model, [(HR, NDCG); 6])`, same dataset order as
/// [`TABLE3`].
pub const TABLE4: [(&str, [(f64, f64); 6]); 11] = [
    (
        "NCF",
        [
            (0.5644, 0.2898),
            (0.2532, 0.1215),
            (0.2737, 0.1496),
            (0.2538, 0.1329),
            (0.3074, 0.1588),
            (0.4274, 0.2448),
        ],
    ),
    (
        "BPR-MF",
        [
            (0.6573, 0.3814),
            (0.2612, 0.1300),
            (0.2743, 0.1710),
            (0.3740, 0.2264),
            (0.1222, 0.0603),
            (0.1289, 0.0759),
        ],
    ),
    (
        "NGCF",
        [
            (0.5503, 0.2799),
            (0.2609, 0.1278),
            (0.3012, 0.1746),
            (0.3221, 0.1786),
            (0.1010, 0.0409),
            (0.3409, 0.1717),
        ],
    ),
    (
        "LibFM",
        [
            (0.3538, 0.1800),
            (0.2100, 0.0980),
            (0.2912, 0.1621),
            (0.3026, 0.1662),
            (0.1320, 0.0622),
            (0.1080, 0.0489),
        ],
    ),
    (
        "NFM",
        [
            (0.6701, 0.3896),
            (0.2599, 0.1199),
            (0.2766, 0.1517),
            (0.3029, 0.1683),
            (0.1863, 0.0865),
            (0.1711, 0.0770),
        ],
    ),
    (
        "AFM",
        [
            (0.6182, 0.3307),
            (0.2540, 0.1240),
            (0.2968, 0.1689),
            (0.2811, 0.1465),
            (0.4169, 0.2149),
            (0.3328, 0.1601),
        ],
    ),
    (
        "TransFM",
        [
            (0.6584, 0.3779),
            (0.2722, 0.1338),
            (0.3413, 0.1897),
            (0.3173, 0.1734),
            (0.2285, 0.1303),
            (0.2514, 0.1727),
        ],
    ),
    (
        "DeepFM",
        [
            (0.6650, 0.3792),
            (0.3062, 0.1567),
            (0.3086, 0.1680),
            (0.3272, 0.1735),
            (0.4088, 0.1798),
            (0.4666, 0.2433),
        ],
    ),
    (
        "xDeepFM",
        [
            (0.6609, 0.3813),
            (0.3031, 0.1539),
            (0.3221, 0.1709),
            (0.3300, 0.1823),
            (0.4030, 0.1809),
            (0.5337, 0.2897),
        ],
    ),
    (
        "GML-FM_md",
        [
            (0.6608, 0.3742),
            (0.3038, 0.1537),
            (0.3465, 0.1984),
            (0.3463, 0.1993),
            (0.5349, 0.2478),
            (0.4324, 0.2086),
        ],
    ),
    (
        "GML-FM_dnn",
        [
            (0.6709, 0.3889),
            (0.3354, 0.1756),
            (0.3794, 0.2160),
            (0.4133, 0.2177),
            (0.5782, 0.2894),
            (0.4458, 0.2143),
        ],
    ),
];

/// Table 5 ablations on (MovieLens, Mercari-Ticket):
/// `(variant, rmse_ml, rmse_ticket, hr_ml, ndcg_ml, hr_ticket, ndcg_ticket)`.
pub const TABLE5: [(&str, [f64; 6]); 11] = [
    ("w/o. weight & M", [0.6861, 1.0693, 0.6435, 0.3702, 0.1699, 0.0743]),
    ("w/. M only", [0.6815, 0.9627, 0.6091, 0.3446, 0.0423, 0.0181]),
    ("w/. weight & M", [0.6469, 0.7736, 0.6608, 0.3742, 0.5349, 0.2478]),
    ("#layers 0", [0.6475, 0.7832, 0.6553, 0.3762, 0.5245, 0.2444]),
    ("#layers 1", [0.6446, 0.7579, 0.6709, 0.3889, 0.5782, 0.2894]),
    ("#layers 2", [0.6478, 0.7456, 0.6732, 0.3879, 0.5857, 0.2963]),
    ("#layers 3", [0.6492, 0.7545, 0.6695, 0.3853, 0.5562, 0.2691]),
    ("Manhattan", [0.6832, 0.7903, 0.6498, 0.3799, 0.5335, 0.2701]),
    ("Euclidean", [0.6446, 0.7579, 0.6709, 0.3889, 0.5782, 0.2894]),
    ("Chebyshev", [0.7112, 0.7943, 0.6406, 0.3731, 0.5134, 0.2567]),
    ("Cosine", [0.7018, 0.7965, 0.6330, 0.3725, 0.5053, 0.2509]),
];

/// Table 6 attribute study on Mercari:
/// `(attributes, hr_ticket, ndcg_ticket, hr_books, ndcg_books)`.
pub const TABLE6: [(&str, [f64; 4]); 5] = [
    ("base", [0.1953, 0.1028, 0.1506, 0.0674]),
    ("base+cty", [0.5501, 0.2580, 0.4430, 0.2094]),
    ("base+cty+cdn", [0.5323, 0.2483, 0.4457, 0.2102]),
    ("base+cty+shp", [0.5645, 0.2777, 0.4465, 0.2130]),
    ("base+all", [0.5782, 0.2894, 0.4458, 0.2143]),
];

/// Dataset column order used by Tables 3/4.
pub const TABLE34_DATASETS: [&str; 6] =
    ["MovieLens", "Amazon-Office", "Amazon-Clothing", "Amazon-Auto", "Mercari-Ticket", "Mercari-Books"];
