//! The experiment harness.
//!
//! [`paper`] reproduces the paper's evaluation (Figure 1, Tables 1 and 2, Figures 10–15); the
//! `paper_report` binary prints it (see the README's "Benchmarks and experiments"). The rest
//! of this library builds the inputs of the micro-benchmarks and the cost-model tests.

pub mod paper;

use eov_baselines::api::SystemKind;
use eov_baselines::SimpleChain;
use eov_common::config::WorkloadParams;
use eov_common::rwset::Key;
use eov_common::txn::{TemplateClass, Transaction};
use eov_vstore::MultiVersionStore;
use eov_workload::generator::{WorkloadGenerator, WorkloadKind};
use eov_workload::smallbank;

/// Accounts whose keys the state-store benches read and update: `create_account_durable`'s
/// genesis (two keys each, 20 k keys in all).
pub const HOT_ACCOUNTS: usize = 10_000;
/// Accounts of the large state-store bench input: the hot ones plus the 420 k that
/// `create_account_durable` adds over a 12-second run (840 k fresh keys).
pub const GROWN_ACCOUNTS: usize = HOT_ACCOUNTS + 420_000;

/// A store holding one version of every Smallbank key of `accounts` accounts.
pub fn smallbank_store(accounts: usize) -> MultiVersionStore {
    let mut store = MultiVersionStore::new();
    store.seed_genesis(smallbank::genesis_accounts(accounts));
    store
}

/// The hot keys in a fixed scattered order (a stride coprime to their count), so that a pass
/// over them has the locality of a transaction mix and not that of a key-order scan.
pub fn hot_keys_scattered() -> Vec<Key> {
    let keys: Vec<Key> = smallbank::genesis_accounts(HOT_ACCOUNTS)
        .into_iter()
        .map(|(key, _)| key)
        .collect();
    (0..keys.len())
        .map(|i| keys[i * 7_919 % keys.len()].clone())
        .collect()
}

/// One `latest()` per key; returns how many were found (keeps the optimiser honest).
pub fn latest_pass(store: &MultiVersionStore, keys: &[Key]) -> u64 {
    keys.iter()
        .filter(|key| store.latest(key).is_some())
        .count() as u64
}

/// The generator parameters of the orderer benchmarks: Table 2 defaults over 2 000 accounts.
pub fn bench_params() -> WorkloadParams {
    let mut params = WorkloadParams::default();
    params.num_accounts = 2_000;
    params
}

/// `count` transactions of `kind` (generator seed 7), endorsed against the genesis snapshot and
/// tagged by the template classifier as the simulator tags them: the realistic input for the
/// orderer benchmarks.
pub fn endorsed_txns(kind: WorkloadKind, params: WorkloadParams, count: usize) -> Vec<Transaction> {
    let mut generator = WorkloadGenerator::new(kind, params, 7);
    let classifier = generator.analyzer();
    let mut chain = SimpleChain::new(SystemKind::FabricSharp);
    chain.seed(generator.genesis());
    (0..count)
        .map(|_| {
            let template = generator.next_template();
            chain
                .execute_at(0, |ctx| template.run(ctx))
                .with_template_class(classifier.classify_instance(&template))
        })
        .collect()
}

/// The same transactions tagged [`TemplateClass::Unknown`]: every one takes the reference
/// path through the dependency graph, the baseline the template fast path is measured against.
pub fn untagged(txns: &[Transaction]) -> Vec<Transaction> {
    txns.iter()
        .map(|t| t.clone().with_template_class(TemplateClass::Unknown))
        .collect()
}
