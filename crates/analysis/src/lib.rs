//! # uburst-analysis — statistics for the microburst study
//!
//! The analysis layer of the IMC 2017 reproduction: everything the paper's
//! evaluation computes over collected counter series, as reusable library
//! functions.
//!
//! | Paper result | Module |
//! |---|---|
//! | Burst / inter-burst extraction at 50 % threshold (Figs. 3, 4, 9) | [`burst`] |
//! | Duration / gap / utilization CDFs (Figs. 3, 4, 6, 7) | [`ecdf`] |
//! | Markov transition MLE + likelihood ratio (Table 2) | [`markov`] |
//! | KS test vs. exponential arrivals (§5.2) | [`kstest`] |
//! | Pearson correlation & heatmaps (Fig. 1, Fig. 8) | [`mod@pearson`] |
//! | Relative MAD of uplink balance (Fig. 7) | [`mad`] |
//! | Packet-size histograms inside/outside bursts (Fig. 5) | [`histogram`] |
//! | Boxplots vs. hot-port count (Fig. 10) | [`summary`] |
//! | Coarse SNMP-style windows (Figs. 1, 2) | [`resample`] |
//! | Exact nearest-rank indexing behind every pXX | [`mod@quantile`] |
//! | Bit-exact sort of f64 samples via integer keys | [`sortf64`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod burst;
pub mod ecdf;
pub mod histogram;
pub mod kstest;
pub mod mad;
pub mod markov;
pub mod pearson;
pub mod quantile;
pub mod resample;
pub mod sortf64;
pub mod summary;

pub use burst::{
    extract_bursts, hot_chain, hot_port_counts, hot_ports_per_window, Burst, BurstAnalysis,
    HOT_THRESHOLD,
};
pub use ecdf::Ecdf;
pub use histogram::{diff_histogram_snapshots, split_by_burst, NormalizedHistogram};
pub use kstest::{kolmogorov_sf, ks_test_exponential, ks_test_exponential_with_ecdf, KsResult};
pub use mad::{coarsen, mad_per_period, relative_mad};
pub use markov::{fit_transition_matrix, TransitionMatrix};
pub use pearson::{correlation_matrix, mean_offdiagonal, pearson, CenteredMatrix};
pub use quantile::nearest_rank;
pub use resample::{to_windows, Window};
pub use sortf64::sort_f64;
pub use summary::{grouped_summaries, Summary};
