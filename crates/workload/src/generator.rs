//! Workload generators.
//!
//! A [`WorkloadGenerator`] turns the experiment parameters (Table 2 and Section 5.4) into a
//! deterministic, seeded stream of transaction templates. The simulator materialises each
//! template by running the corresponding contract inside an endorsement simulation, which is
//! what produces the read/write sets the concurrency controls operate on.

use crate::contracts::KvUpdateContract;
use crate::smallbank::{self, SmallbankContract, SmallbankOp};
use crate::templates::TemplateClassifier;
use crate::ycsb::{self, YcsbProfile, YcsbTxn};
use crate::zipf::Zipfian;
use eov_common::config::WorkloadParams;
use eov_common::rwset::{Key, Value};
use fabricsharp_core::endorser::SimulationContext;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which workload to generate.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadKind {
    /// No-op transactions (Figure 1, left bar).
    NoOp,
    /// Single-key read-modify-write transactions with Zipfian key selection (Figure 1).
    KvUpdate {
        /// Zipfian skew over the key space (`params.num_accounts` keys).
        theta: f64,
    },
    /// The modified Smallbank of Section 5.2: 4 reads + 4 writes with hot-account ratios.
    ModifiedSmallbank,
    /// The original Smallbank mix of Section 5.4 (50% read-only / 30% one-account updates /
    /// 20% two-account updates) with Zipfian account selection.
    MixedSmallbank {
        /// Zipfian skew over the account space.
        theta: f64,
    },
    /// Uniform Create-Account transactions (write-only, contention-free; Section 5.4).
    CreateAccount,
    /// YCSB-style read/update/RMW mix with Zipfian skew (see `crate::ycsb`); the key
    /// population is `params.num_accounts` records.
    Ycsb(YcsbProfile),
}

/// A transaction template: everything the endorser needs to materialise the transaction.
#[derive(Clone, Debug, PartialEq)]
pub enum TxnTemplate {
    /// A no-op invocation.
    NoOp,
    /// Read-modify-write of key `kv:<index>`.
    KvUpdate {
        /// Index of the key to update.
        key_index: usize,
    },
    /// A Smallbank operation.
    Smallbank(SmallbankOp),
    /// A YCSB transaction.
    Ycsb(YcsbTxn),
}

impl TxnTemplate {
    /// Number of snapshot reads this template performs (drives the read-interval timing model).
    pub fn read_count(&self) -> usize {
        match self {
            TxnTemplate::NoOp => 0,
            TxnTemplate::KvUpdate { .. } => 1,
            TxnTemplate::Smallbank(op) => op.read_count(),
            TxnTemplate::Ycsb(txn) => txn.read_count(),
        }
    }

    /// Executes the template's contract logic inside a simulation context.
    pub fn run(&self, ctx: &mut SimulationContext<'_>) {
        match self {
            TxnTemplate::NoOp => {}
            TxnTemplate::KvUpdate { key_index } => KvUpdateContract::for_index(*key_index).run(ctx),
            TxnTemplate::Smallbank(op) => SmallbankContract.run(ctx, op),
            TxnTemplate::Ycsb(txn) => txn.run(ctx),
        }
    }
}

/// A seeded stream of transaction templates.
#[derive(Clone, Debug)]
pub struct WorkloadGenerator {
    params: WorkloadParams,
    kind: WorkloadKind,
    rng: StdRng,
    zipf: Option<Zipfian>,
    next_new_account: usize,
}

impl WorkloadGenerator {
    /// Creates a generator for `kind` with the given parameters and RNG seed. Identical seeds
    /// produce identical template streams, which keeps experiments reproducible.
    pub fn new(kind: WorkloadKind, params: WorkloadParams, seed: u64) -> Self {
        let zipf = match &kind {
            WorkloadKind::KvUpdate { theta } | WorkloadKind::MixedSmallbank { theta } => {
                Some(Zipfian::new(params.num_accounts, *theta))
            }
            WorkloadKind::Ycsb(profile) => Some(Zipfian::new(params.num_accounts, profile.theta)),
            _ => None,
        };
        WorkloadGenerator {
            next_new_account: params.num_accounts,
            params,
            kind,
            rng: StdRng::seed_from_u64(seed),
            zipf,
        }
    }

    /// The template-robustness classifier for this workload's mix (see `templates`).
    pub fn analyzer(&self) -> TemplateClassifier {
        TemplateClassifier::new(&self.kind)
    }

    /// The genesis state this workload expects.
    pub fn genesis(&self) -> Vec<(Key, Value)> {
        match &self.kind {
            WorkloadKind::NoOp => Vec::new(),
            WorkloadKind::KvUpdate { .. } => (0..self.params.num_accounts)
                .map(|i| (Key::from_fmt(format_args!("kv:{i}")), Value::from_i64(0)))
                .collect(),
            WorkloadKind::ModifiedSmallbank
            | WorkloadKind::MixedSmallbank { .. }
            | WorkloadKind::CreateAccount => smallbank::genesis_accounts(self.params.num_accounts),
            WorkloadKind::Ycsb(_) => ycsb::ycsb_genesis(self.params.num_accounts),
        }
    }

    /// Draws the next transaction template.
    pub fn next_template(&mut self) -> TxnTemplate {
        match self.kind.clone() {
            WorkloadKind::NoOp => TxnTemplate::NoOp,
            WorkloadKind::KvUpdate { .. } => {
                let zipf = self.zipf.as_ref().expect("zipf initialised for KvUpdate");
                TxnTemplate::KvUpdate {
                    key_index: zipf.sample(&mut self.rng),
                }
            }
            WorkloadKind::ModifiedSmallbank => {
                let reads =
                    self.pick_accounts(self.params.reads_per_txn, self.params.read_hot_ratio);
                let writes =
                    self.pick_accounts(self.params.writes_per_txn, self.params.write_hot_ratio);
                TxnTemplate::Smallbank(SmallbankOp::ModifiedRw { reads, writes })
            }
            WorkloadKind::MixedSmallbank { .. } => TxnTemplate::Smallbank(self.next_mixed_op()),
            WorkloadKind::CreateAccount => {
                let account = self.next_new_account;
                self.next_new_account += 1;
                TxnTemplate::Smallbank(SmallbankOp::CreateAccount {
                    account,
                    checking: 1_000,
                    savings: 1_000,
                })
            }
            WorkloadKind::Ycsb(profile) => {
                let zipf = self.zipf.as_ref().expect("zipf initialised for Ycsb");
                TxnTemplate::Ycsb(ycsb::next_ycsb_txn(
                    &profile,
                    zipf,
                    self.params.num_accounts,
                    &mut self.rng,
                ))
            }
        }
    }

    /// Picks `count` distinct accounts, each hot with probability `hot_ratio`.
    fn pick_accounts(&mut self, count: usize, hot_ratio: f64) -> Vec<usize> {
        let hot = self.params.num_hot_accounts().max(1);
        let total = self.params.num_accounts.max(hot + 1);
        let mut chosen: Vec<usize> = Vec::with_capacity(count);
        let mut attempts = 0;
        while chosen.len() < count && attempts < count * 50 {
            attempts += 1;
            let account = if self.rng.gen_bool(hot_ratio.clamp(0.0, 1.0)) {
                self.rng.gen_range(0..hot)
            } else {
                self.rng.gen_range(hot..total)
            };
            if !chosen.contains(&account) {
                chosen.push(account);
            }
        }
        chosen
    }

    /// The Section 5.4 operation mix.
    fn next_mixed_op(&mut self) -> SmallbankOp {
        let zipf = self
            .zipf
            .as_ref()
            .expect("zipf initialised for MixedSmallbank");
        let account = zipf.sample(&mut self.rng);
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        if roll < 0.50 {
            SmallbankOp::QueryAccount { account }
        } else if roll < 0.80 {
            let amount = self.rng.gen_range(1..100);
            match self.rng.gen_range(0..3) {
                0 => SmallbankOp::DepositChecking { account, amount },
                1 => SmallbankOp::WriteCheck { account, amount },
                _ => SmallbankOp::TransactSavings { account, amount },
            }
        } else {
            let mut other = zipf.sample(&mut self.rng);
            if other == account {
                other = (other + 1) % self.params.num_accounts;
            }
            if self.rng.gen_bool(0.5) {
                SmallbankOp::SendPayment {
                    from: account,
                    to: other,
                    amount: self.rng.gen_range(1..100),
                }
            } else {
                SmallbankOp::Amalgamate {
                    from: account,
                    to: other,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(accounts: usize) -> WorkloadParams {
        let mut params = WorkloadParams::default();
        params.num_accounts = accounts;
        params
    }

    #[test]
    fn generators_are_deterministic_for_a_seed() {
        let mut a =
            WorkloadGenerator::new(WorkloadKind::MixedSmallbank { theta: 0.8 }, params(100), 42);
        let mut b =
            WorkloadGenerator::new(WorkloadKind::MixedSmallbank { theta: 0.8 }, params(100), 42);
        for _ in 0..50 {
            assert_eq!(a.next_template(), b.next_template());
        }
        assert_eq!(a.kind, WorkloadKind::MixedSmallbank { theta: 0.8 });
    }

    #[test]
    fn modified_smallbank_respects_read_write_counts_and_distinctness() {
        let mut gen = WorkloadGenerator::new(WorkloadKind::ModifiedSmallbank, params(1_000), 7);
        for _ in 0..100 {
            match gen.next_template() {
                TxnTemplate::Smallbank(SmallbankOp::ModifiedRw { reads, writes }) => {
                    assert_eq!(reads.len(), 4);
                    assert_eq!(writes.len(), 4);
                    let unique: std::collections::HashSet<_> = reads.iter().collect();
                    assert_eq!(unique.len(), 4, "read accounts must be distinct");
                }
                other => panic!("unexpected template {other:?}"),
            }
        }
    }

    #[test]
    fn hot_ratio_one_always_picks_hot_accounts() {
        let mut p = params(1_000);
        p.read_hot_ratio = 1.0;
        p.write_hot_ratio = 1.0;
        let hot = p.num_hot_accounts();
        let mut gen = WorkloadGenerator::new(WorkloadKind::ModifiedSmallbank, p, 3);
        for _ in 0..20 {
            if let TxnTemplate::Smallbank(SmallbankOp::ModifiedRw { reads, writes }) =
                gen.next_template()
            {
                assert!(reads.iter().all(|a| *a < hot));
                assert!(writes.iter().all(|a| *a < hot));
            }
        }
    }

    #[test]
    fn create_account_produces_fresh_write_only_accounts() {
        let mut gen = WorkloadGenerator::new(WorkloadKind::CreateAccount, params(50), 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10 {
            match gen.next_template() {
                TxnTemplate::Smallbank(SmallbankOp::CreateAccount { account, .. }) => {
                    assert!(
                        account >= 50,
                        "new accounts must not collide with genesis accounts"
                    );
                    assert!(seen.insert(account), "accounts must be unique");
                }
                other => panic!("unexpected template {other:?}"),
            }
        }
    }

    #[test]
    fn mixed_workload_matches_the_target_mix_roughly() {
        let mut gen = WorkloadGenerator::new(
            WorkloadKind::MixedSmallbank { theta: 0.0 },
            params(1_000),
            11,
        );
        let (mut reads, mut singles, mut doubles) = (0usize, 0usize, 0usize);
        for _ in 0..2_000 {
            match gen.next_template() {
                TxnTemplate::Smallbank(SmallbankOp::QueryAccount { .. }) => reads += 1,
                TxnTemplate::Smallbank(
                    SmallbankOp::DepositChecking { .. }
                    | SmallbankOp::WriteCheck { .. }
                    | SmallbankOp::TransactSavings { .. },
                ) => singles += 1,
                TxnTemplate::Smallbank(
                    SmallbankOp::SendPayment { .. } | SmallbankOp::Amalgamate { .. },
                ) => doubles += 1,
                other => panic!("unexpected template {other:?}"),
            }
        }
        let frac = |x: usize| x as f64 / 2_000.0;
        assert!(
            (frac(reads) - 0.50).abs() < 0.05,
            "read-only fraction {}",
            frac(reads)
        );
        assert!((frac(singles) - 0.30).abs() < 0.05);
        assert!((frac(doubles) - 0.20).abs() < 0.05);
    }

    #[test]
    fn genesis_matches_the_workload() {
        let gen_noop = WorkloadGenerator::new(WorkloadKind::NoOp, params(10), 0);
        assert!(gen_noop.genesis().is_empty());
        let gen_kv = WorkloadGenerator::new(WorkloadKind::KvUpdate { theta: 0.5 }, params(10), 0);
        assert_eq!(gen_kv.genesis().len(), 10);
        let gen_sb = WorkloadGenerator::new(WorkloadKind::ModifiedSmallbank, params(10), 0);
        assert_eq!(gen_sb.genesis().len(), 20);
        assert_eq!(gen_sb.params.num_accounts, 10);
    }

    #[test]
    fn template_read_counts() {
        assert_eq!(TxnTemplate::NoOp.read_count(), 0);
        assert_eq!(TxnTemplate::KvUpdate { key_index: 1 }.read_count(), 1);
        assert_eq!(
            TxnTemplate::Smallbank(SmallbankOp::SendPayment {
                from: 0,
                to: 1,
                amount: 1
            })
            .read_count(),
            2
        );
    }
}
