//! Configuration knobs and the experiment parameter grid (Table 2).
//!
//! Three kinds of parameters live here:
//!
//! * [`BlockConfig`] — block formation: maximum transactions per block and the formation
//!   timeout, mirroring Fabric's orderer configuration.
//! * [`CcConfig`] — FabricSharp-specific concurrency-control knobs: `max_span` for pruning
//!   (Section 4.6) and the bloom-filter sizing of Section 4.4.
//! * [`WorkloadParams`] / [`ExperimentGrid`] — the Smallbank workload parameters of Table 2
//!   together with the default value for each (underlined in the paper).

use serde::{Deserialize, Serialize};

/// Block formation parameters used by the ordering service.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BlockConfig {
    /// Maximum number of transactions batched into a block ("# of transactions per block" in
    /// Table 2; the paper sweeps 50–500 and FabricSharp peaks at 100).
    pub max_txns_per_block: usize,
    /// Block formation timeout in simulated milliseconds; a block is cut when either the count
    /// threshold or the timeout is reached, whichever comes first.
    pub block_timeout_ms: u64,
}

impl Default for BlockConfig {
    fn default() -> Self {
        BlockConfig {
            max_txns_per_block: 100,
            block_timeout_ms: 1_000,
        }
    }
}

impl BlockConfig {
    /// Validates the configuration, rejecting degenerate values.
    pub fn validate(&self) -> crate::error::Result<()> {
        if self.max_txns_per_block == 0 {
            return Err(crate::error::CommonError::InvalidConfig(
                "max_txns_per_block must be at least 1".into(),
            ));
        }
        if self.block_timeout_ms == 0 {
            return Err(crate::error::CommonError::InvalidConfig(
                "block_timeout_ms must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// FabricSharp concurrency-control parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CcConfig {
    /// Maximum allowed block span of a transaction (Section 4.6). Transactions simulated
    /// against a snapshot older than `next_block - max_span` are aborted. The paper fixes
    /// this to 10 in all experiments.
    pub max_span: u64,
    /// Number of bits in each reachability bloom filter (Section 4.4).
    pub bloom_bits: usize,
    /// Number of hash functions per bloom filter.
    pub bloom_hashes: usize,
    /// When `true`, the dependency graph keeps exact reachability sets alongside the bloom
    /// filters; used by the ablation benchmarks and by tests that quantify false-positive
    /// aborts. Production configurations leave this off.
    pub track_exact_reachability: bool,
    /// Number of key-space shards for the multi-version store, the CW/CR/PW/PR indices and the
    /// dependency graph. `0` (the default) runs the unsharded reference engine; `S >= 1` runs
    /// `S` per-shard stores/graphs behind the cross-shard coordinator. Any value produces
    /// bit-for-bit the same ledgers (asserted by `tests/sharding_determinism.rs`); the knob
    /// trades single-path simplicity for independently scalable shards.
    pub store_shards: usize,
    /// Number of worker threads the *sharded* dependency-graph engine fans its per-shard
    /// arrival and formation work out on (border node-copy inserts, per-shard formation topo
    /// sorts, per-shard ww restoration, pruning). `0` (the default) runs everything inline on
    /// the driver thread — the reference path; with `store_shards == 0` the knob is inert
    /// (the flat engine has no per-shard decomposition). Every `W` produces bit-for-bit the
    /// same ledgers (asserted by `tests/parallel_formation_determinism.rs`).
    pub formation_threads: usize,
    /// When `true`, transactions tagged [`crate::txn::TemplateClass::Safe`] by the workload's
    /// template static analysis bypass dependency-graph insertion, cycle probing and
    /// ww-restore entirely — they are spliced into the committed order at their arrival
    /// position. `false` (the default) ignores the tag and runs the reference path. Either
    /// setting produces bit-for-bit the same ledgers, orders and verdicts (asserted by
    /// `tests/template_fastpath_determinism.rs`).
    pub template_fastpath: bool,
    /// Number of worker threads the parallel commit scheduler
    /// (`fabricsharp_core::scheduler`) executes each commit wave on. `0` (the default) runs
    /// the inline reference committer (serial validate-and-apply, no wave planning);
    /// `E >= 1` plans conflict-free waves over the committed order and executes them on an
    /// `E`-thread pool with per-wave barriers. Every `E` produces bit-for-bit the same
    /// ledgers and store states (asserted by `tests/scheduler_determinism.rs`).
    pub execution_threads: usize,
    /// When `true`, block formation (topo sort + ww restore + prune, Algorithms 3 and 5) runs
    /// on a dedicated formation worker thread while arrivals for the *next* block continue to
    /// stream in: the pending set is sealed at the cut, handed to the worker, and arrivals
    /// that can be proved independent of the sealed snapshot proceed eagerly (their graph
    /// inserts are queued and replayed in arrival order when the cut lands); anything else
    /// stalls until the cut completes. `false` (the default) runs the phased reference where
    /// the cut finishes before the next arrival is processed. Either setting produces
    /// bit-for-bit the same ledgers, stores and decisions (asserted by
    /// `tests/pipelined_formation_determinism.rs`).
    pub pipelined_formation: bool,
    /// Size (in KiB) at which the durable ledger rotates to a new segment file. Only consulted
    /// when a durable ledger directory is configured; the in-memory reference ledger ignores
    /// it. Defaults to 1 MiB: every rotation is a file creation and one more directory entry
    /// for each checkpoint and each restart to list, so a segment should hold tens of real
    /// 12–30 KB block records, not three. Tests that want rotation set a small value
    /// explicitly.
    pub segment_rotate_kib: u32,
    /// Blocks between multi-version-store checkpoints when durability is enabled. `0` (the
    /// default) writes only the genesis checkpoint, so cold recovery replays the whole segment
    /// suffix; `N >= 1` checkpoints every `N` blocks, bounding the replay suffix to `N`. Each
    /// periodic checkpoint is a delta over the previous one, so its cost follows the writes of
    /// those `N` blocks, not the size of the store.
    pub checkpoint_interval: u64,
    /// When `true`, every durable segment append is fsynced before the block is acknowledged,
    /// and so are a new segment's and a new checkpoint's directory entries (crash-durability
    /// at the cost of append throughput — see BASELINES.md). `false` (the default) leaves
    /// flushing to the OS; a torn tail is repaired on recovery either way.
    pub durable_fsync: bool,
}

impl Default for CcConfig {
    fn default() -> Self {
        CcConfig {
            max_span: 10,
            bloom_bits: 4096,
            bloom_hashes: 3,
            track_exact_reachability: false,
            store_shards: 0,
            formation_threads: 0,
            template_fastpath: false,
            execution_threads: 0,
            pipelined_formation: false,
            segment_rotate_kib: 1024,
            checkpoint_interval: 0,
            durable_fsync: false,
        }
    }
}

impl CcConfig {
    /// Validates the configuration, rejecting degenerate values.
    pub fn validate(&self) -> crate::error::Result<()> {
        if self.max_span == 0 {
            return Err(crate::error::CommonError::InvalidConfig(
                "max_span must be at least 1".into(),
            ));
        }
        if self.bloom_bits < 64 {
            return Err(crate::error::CommonError::InvalidConfig(
                "bloom_bits must be at least 64".into(),
            ));
        }
        if self.bloom_hashes == 0 || self.bloom_hashes > 16 {
            return Err(crate::error::CommonError::InvalidConfig(
                "bloom_hashes must be in 1..=16".into(),
            ));
        }
        if self.formation_threads > 256 {
            return Err(crate::error::CommonError::InvalidConfig(
                "formation_threads must be at most 256".into(),
            ));
        }
        if self.execution_threads > 256 {
            return Err(crate::error::CommonError::InvalidConfig(
                "execution_threads must be at most 256".into(),
            ));
        }
        if self.segment_rotate_kib == 0 {
            return Err(crate::error::CommonError::InvalidConfig(
                "segment_rotate_kib must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Workload parameters for the modified Smallbank benchmark (Section 5.2, Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadParams {
    /// Total number of bank accounts (the paper uses 10,000).
    pub num_accounts: usize,
    /// Fraction of accounts designated "hot" (the paper uses 1%).
    pub hot_account_fraction: f64,
    /// Probability that a read targets a hot account (Table 2: 0–50%, default 10%).
    pub read_hot_ratio: f64,
    /// Probability that a write targets a hot account (Table 2: 0–50%, default 10%).
    pub write_hot_ratio: f64,
    /// Client-side delay between receiving endorsement results and broadcasting to the
    /// orderers, in milliseconds (Table 2: 0–500 ms, default 0).
    pub client_delay_ms: u64,
    /// Interval between consecutive reads during simulation, in milliseconds, modelling
    /// computation-heavy contracts (Table 2: 0–200 ms, default 0).
    pub read_interval_ms: u64,
    /// Number of accounts read by each modified-Smallbank transaction (the paper uses 4).
    pub reads_per_txn: usize,
    /// Number of accounts written by each modified-Smallbank transaction (the paper uses 4).
    pub writes_per_txn: usize,
    /// Zipfian skew coefficient used by the Figure 1 and Figure 15 workloads.
    pub zipf_theta: f64,
    /// Offered request rate in transactions per second (the paper fixes 700 tps for the
    /// FabricSharp experiments and uses higher rates for FastFabric).
    pub request_rate_tps: u64,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            num_accounts: 10_000,
            hot_account_fraction: 0.01,
            read_hot_ratio: 0.10,
            write_hot_ratio: 0.10,
            client_delay_ms: 0,
            read_interval_ms: 0,
            reads_per_txn: 4,
            writes_per_txn: 4,
            zipf_theta: 0.0,
            request_rate_tps: 700,
        }
    }
}

impl WorkloadParams {
    /// Number of hot accounts implied by the configuration (at least one when the fraction is
    /// non-zero and there is at least one account).
    pub fn num_hot_accounts(&self) -> usize {
        if self.hot_account_fraction <= 0.0 || self.num_accounts == 0 {
            0
        } else {
            ((self.num_accounts as f64 * self.hot_account_fraction).round() as usize).max(1)
        }
    }

    /// Validates the parameters, rejecting out-of-range ratios.
    pub fn validate(&self) -> crate::error::Result<()> {
        let ratio_ok = |r: f64| (0.0..=1.0).contains(&r);
        if !ratio_ok(self.hot_account_fraction) {
            return Err(crate::error::CommonError::InvalidConfig(
                "hot_account_fraction must be in [0, 1]".into(),
            ));
        }
        if !ratio_ok(self.read_hot_ratio) || !ratio_ok(self.write_hot_ratio) {
            return Err(crate::error::CommonError::InvalidConfig(
                "hot ratios must be in [0, 1]".into(),
            ));
        }
        if self.num_accounts == 0 {
            return Err(crate::error::CommonError::InvalidConfig(
                "num_accounts must be positive".into(),
            ));
        }
        if self.zipf_theta < 0.0 {
            return Err(crate::error::CommonError::InvalidConfig(
                "zipf_theta must be non-negative".into(),
            ));
        }
        if self.request_rate_tps == 0 {
            return Err(crate::error::CommonError::InvalidConfig(
                "request_rate_tps must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// The experiment parameter grid of Table 2. Each field lists the values swept by the paper;
/// the default (underlined in the paper) is produced by [`ExperimentGrid::default_params`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExperimentGrid {
    /// "# of transactions per block": 50, 100, 200, 300, 400, 500.
    pub block_sizes: Vec<usize>,
    /// "Write hot ratio (%)": 0, 10, 20, 30, 40, 50.
    pub write_hot_ratios: Vec<f64>,
    /// "Read hot ratio (%)": 0, 10, 20, 30, 40, 50.
    pub read_hot_ratios: Vec<f64>,
    /// "Client delay (x100 ms)": 0, 100, ..., 500 ms.
    pub client_delays_ms: Vec<u64>,
    /// "Read interval (x10 ms)": 0, 40, 80, 120, 160, 200 ms.
    pub read_intervals_ms: Vec<u64>,
    /// Zipfian coefficients used by Figure 1 (no-op/update motivation experiment).
    pub figure1_thetas: Vec<f64>,
    /// Zipfian coefficients used by Figure 15 (FastFabric mixed workload).
    pub figure15_thetas: Vec<f64>,
}

impl Default for ExperimentGrid {
    fn default() -> Self {
        ExperimentGrid {
            block_sizes: vec![50, 100, 200, 300, 400, 500],
            write_hot_ratios: vec![0.0, 0.10, 0.20, 0.30, 0.40, 0.50],
            read_hot_ratios: vec![0.0, 0.10, 0.20, 0.30, 0.40, 0.50],
            client_delays_ms: vec![0, 100, 200, 300, 400, 500],
            read_intervals_ms: vec![0, 40, 80, 120, 160, 200],
            figure1_thetas: vec![0.2, 0.4, 0.6, 0.8, 1.0, 1.2],
            figure15_thetas: vec![0.0, 0.25, 0.5, 0.75, 1.0],
        }
    }
}

impl ExperimentGrid {
    /// The default workload parameters (the underlined column of Table 2): block size 100,
    /// 10% hot ratios, no client delay, no read interval, 700 tps offered load.
    pub fn default_params() -> (BlockConfig, WorkloadParams) {
        (BlockConfig::default(), WorkloadParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2_underlined_values() {
        let (block, wl) = ExperimentGrid::default_params();
        assert_eq!(block.max_txns_per_block, 100);
        assert!((wl.read_hot_ratio - 0.10).abs() < 1e-9);
        assert!((wl.write_hot_ratio - 0.10).abs() < 1e-9);
        assert_eq!(wl.client_delay_ms, 0);
        assert_eq!(wl.read_interval_ms, 0);
        assert_eq!(wl.num_accounts, 10_000);
        assert_eq!(wl.request_rate_tps, 700);
        assert_eq!(wl.reads_per_txn, 4);
        assert_eq!(wl.writes_per_txn, 4);
    }

    #[test]
    fn grid_matches_table2_sweeps() {
        let grid = ExperimentGrid::default();
        assert_eq!(grid.block_sizes, vec![50, 100, 200, 300, 400, 500]);
        assert_eq!(grid.write_hot_ratios.len(), 6);
        assert_eq!(grid.client_delays_ms.last(), Some(&500));
        assert_eq!(grid.read_intervals_ms.last(), Some(&200));
        assert_eq!(grid.figure1_thetas.len(), 6);
        assert_eq!(grid.figure15_thetas.len(), 5);
    }

    #[test]
    fn hot_account_count_rounds_and_floors_at_one() {
        let mut wl = WorkloadParams::default();
        assert_eq!(wl.num_hot_accounts(), 100);
        wl.hot_account_fraction = 0.0;
        assert_eq!(wl.num_hot_accounts(), 0);
        wl.hot_account_fraction = 0.00001;
        assert_eq!(wl.num_hot_accounts(), 1);
    }

    #[test]
    fn validation_rejects_degenerate_values() {
        let block = BlockConfig {
            max_txns_per_block: 0,
            ..BlockConfig::default()
        };
        assert!(block.validate().is_err());

        let mut cc = CcConfig::default();
        assert!(cc.validate().is_ok());
        cc.max_span = 0;
        assert!(cc.validate().is_err());

        let mut wl = WorkloadParams::default();
        assert!(wl.validate().is_ok());
        wl.read_hot_ratio = 1.5;
        assert!(wl.validate().is_err());
        wl.read_hot_ratio = 0.1;
        wl.num_accounts = 0;
        assert!(wl.validate().is_err());
    }

    #[test]
    fn cc_defaults_match_paper() {
        let cc = CcConfig::default();
        assert_eq!(cc.max_span, 10);
        assert!(cc.bloom_bits >= 64);
        assert!(!cc.track_exact_reachability);
    }
}
