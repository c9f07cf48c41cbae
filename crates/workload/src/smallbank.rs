//! The Smallbank contract family.
//!
//! The paper evaluates two flavours:
//!
//! * **Modified Smallbank** (Section 5.2, used for Figures 10–14): every transaction reads 4
//!   accounts and writes 4 accounts out of 10,000, with 1% designated "hot"; the probability
//!   of a read (write) targeting a hot account is the read (write) hot ratio of Table 2.
//! * **Original Smallbank** (Section 5.4, used for Figure 15): the classic operation mix —
//!   `Query Account` (read-only), `Deposit Checking` / `Write Check` / `Transact Savings`
//!   (single-account updates), `Send Payment` / `Amalgamate` (two-account updates), plus the
//!   contention-free `Create Account` workload.
//!
//! Accounts are stored as two keys each (`checking:<id>` and `savings:<id>`), matching the
//! Smallbank schema.

use eov_common::rwset::{Key, Value};
use fabricsharp_core::endorser::SimulationContext;

/// Key of an account's checking balance.
pub(crate) fn checking_key(account: usize) -> Key {
    Key::from_fmt(format_args!("checking:{account}"))
}

/// Key of an account's savings balance.
pub(crate) fn savings_key(account: usize) -> Key {
    Key::from_fmt(format_args!("savings:{account}"))
}

/// Genesis entries for `num_accounts` accounts, each starting with a 1,000 checking balance
/// and a 1,000 savings balance.
pub fn genesis_accounts(num_accounts: usize) -> Vec<(Key, Value)> {
    let mut entries = Vec::with_capacity(num_accounts * 2);
    for account in 0..num_accounts {
        entries.push((checking_key(account), Value::from_i64(1_000)));
        entries.push((savings_key(account), Value::from_i64(1_000)));
    }
    entries
}

/// One operation of the original Smallbank benchmark.
#[derive(Clone, Debug, PartialEq)]
pub enum SmallbankOp {
    /// Creates a brand-new account (write-only: the contention-free workload of Section 5.4).
    CreateAccount {
        /// The new account's id.
        account: usize,
        /// Initial checking balance.
        checking: i64,
        /// Initial savings balance.
        savings: i64,
    },
    /// Reads both balances of an account (read-only).
    QueryAccount {
        /// The account to read.
        account: usize,
    },
    /// Adds `amount` to the checking balance.
    DepositChecking {
        /// The target account.
        account: usize,
        /// Amount to deposit.
        amount: i64,
    },
    /// Subtracts `amount` from the checking balance (allows overdraft, like Smallbank).
    WriteCheck {
        /// The target account.
        account: usize,
        /// Cheque amount.
        amount: i64,
    },
    /// Adds `amount` to the savings balance.
    TransactSavings {
        /// The target account.
        account: usize,
        /// Amount to add (may be negative).
        amount: i64,
    },
    /// Moves `amount` from one account's checking balance to another's.
    SendPayment {
        /// Paying account.
        from: usize,
        /// Receiving account.
        to: usize,
        /// Amount transferred.
        amount: i64,
    },
    /// Moves the entire savings + checking balance of `from` into `to`'s checking balance.
    Amalgamate {
        /// Source account (zeroed).
        from: usize,
        /// Destination account.
        to: usize,
    },
    /// The modified-Smallbank transaction of Section 5.2: read the checking balances of
    /// `reads`, then overwrite the checking balances of `writes` with a derived value.
    ModifiedRw {
        /// Accounts whose balances are read.
        reads: Vec<usize>,
        /// Accounts whose balances are overwritten.
        writes: Vec<usize>,
    },
}

impl SmallbankOp {
    /// Number of state reads this operation performs (used by the simulator to model the
    /// read-interval parameter).
    pub(crate) fn read_count(&self) -> usize {
        match self {
            SmallbankOp::CreateAccount { .. } => 0,
            SmallbankOp::QueryAccount { .. } => 2,
            SmallbankOp::DepositChecking { .. }
            | SmallbankOp::WriteCheck { .. }
            | SmallbankOp::TransactSavings { .. } => 1,
            SmallbankOp::SendPayment { .. } => 2,
            SmallbankOp::Amalgamate { .. } => 3,
            SmallbankOp::ModifiedRw { reads, .. } => reads.len(),
        }
    }
}

/// The Smallbank smart contract: executes a [`SmallbankOp`] inside a simulation context.
#[derive(Clone, Copy, Debug, Default)]
pub struct SmallbankContract;

impl SmallbankContract {
    /// Executes `op` against the snapshot wrapped by `ctx`.
    pub fn run(&self, ctx: &mut SimulationContext<'_>, op: &SmallbankOp) {
        match op {
            SmallbankOp::CreateAccount {
                account,
                checking,
                savings,
            } => {
                ctx.write(checking_key(*account), Value::from_i64(*checking));
                ctx.write(savings_key(*account), Value::from_i64(*savings));
            }
            SmallbankOp::QueryAccount { account } => {
                let _ = ctx.read_balance(&checking_key(*account));
                let _ = ctx.read_balance(&savings_key(*account));
            }
            SmallbankOp::DepositChecking { account, amount } => {
                let bal = ctx.read_balance(&checking_key(*account));
                ctx.write(checking_key(*account), Value::from_i64(bal + amount));
            }
            SmallbankOp::WriteCheck { account, amount } => {
                let bal = ctx.read_balance(&checking_key(*account));
                ctx.write(checking_key(*account), Value::from_i64(bal - amount));
            }
            SmallbankOp::TransactSavings { account, amount } => {
                let bal = ctx.read_balance(&savings_key(*account));
                ctx.write(savings_key(*account), Value::from_i64(bal + amount));
            }
            SmallbankOp::SendPayment { from, to, amount } => {
                let from_bal = ctx.read_balance(&checking_key(*from));
                let to_bal = ctx.read_balance(&checking_key(*to));
                ctx.write(checking_key(*from), Value::from_i64(from_bal - amount));
                ctx.write(checking_key(*to), Value::from_i64(to_bal + amount));
            }
            SmallbankOp::Amalgamate { from, to } => {
                let savings = ctx.read_balance(&savings_key(*from));
                let checking = ctx.read_balance(&checking_key(*from));
                let to_bal = ctx.read_balance(&checking_key(*to));
                ctx.write(savings_key(*from), Value::from_i64(0));
                ctx.write(checking_key(*from), Value::from_i64(0));
                ctx.write(
                    checking_key(*to),
                    Value::from_i64(to_bal + savings + checking),
                );
            }
            SmallbankOp::ModifiedRw { reads, writes } => {
                let mut acc = 0i64;
                for account in reads {
                    acc += ctx.read_balance(&checking_key(*account));
                }
                let derived = acc / (reads.len().max(1) as i64);
                for account in writes {
                    ctx.write(checking_key(*account), Value::from_i64(derived));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::txn::{Transaction, TxnId};
    use eov_vstore::MultiVersionStore;
    use fabricsharp_core::endorser::SnapshotEndorser;

    fn seeded_store(accounts: usize) -> MultiVersionStore {
        let mut store = MultiVersionStore::new();
        store.seed_genesis(genesis_accounts(accounts));
        store
    }

    fn endorse(store: &MultiVersionStore, op: &SmallbankOp) -> Transaction {
        SnapshotEndorser.simulate(store, TxnId(1), |ctx| SmallbankContract.run(ctx, op))
    }

    #[test]
    fn genesis_creates_two_keys_per_account() {
        let store = seeded_store(5);
        assert_eq!(store.key_count(), 10);
        assert_eq!(
            store.latest_value(&checking_key(3)).unwrap().as_i64(),
            Some(1_000)
        );
    }

    #[test]
    fn send_payment_moves_money_between_checking_accounts() {
        let store = seeded_store(3);
        let txn = endorse(
            &store,
            &SmallbankOp::SendPayment {
                from: 0,
                to: 1,
                amount: 250,
            },
        );
        assert_eq!(txn.read_set.len(), 2);
        assert_eq!(
            txn.write_set.value_of(&checking_key(0)).unwrap().as_i64(),
            Some(750)
        );
        assert_eq!(
            txn.write_set.value_of(&checking_key(1)).unwrap().as_i64(),
            Some(1_250)
        );
    }

    #[test]
    fn amalgamate_zeroes_the_source_and_credits_the_target() {
        let store = seeded_store(3);
        let txn = endorse(&store, &SmallbankOp::Amalgamate { from: 2, to: 0 });
        assert_eq!(
            txn.write_set.value_of(&savings_key(2)).unwrap().as_i64(),
            Some(0)
        );
        assert_eq!(
            txn.write_set.value_of(&checking_key(2)).unwrap().as_i64(),
            Some(0)
        );
        assert_eq!(
            txn.write_set.value_of(&checking_key(0)).unwrap().as_i64(),
            Some(3_000)
        );
        assert_eq!(SmallbankOp::Amalgamate { from: 2, to: 0 }.read_count(), 3);
    }

    #[test]
    fn query_account_is_read_only() {
        let store = seeded_store(2);
        let op = SmallbankOp::QueryAccount { account: 1 };
        let txn = endorse(&store, &op);
        assert!(txn.write_set.is_empty());
        assert_eq!(txn.read_set.len(), 2);
    }

    #[test]
    fn create_account_is_write_only() {
        let store = seeded_store(1);
        let op = SmallbankOp::CreateAccount {
            account: 99,
            checking: 10,
            savings: 20,
        };
        let txn = endorse(&store, &op);
        assert!(txn.read_set.is_empty());
        assert_eq!(txn.write_set.len(), 2);
        assert_eq!(op.read_count(), 0);
    }

    #[test]
    fn modified_rw_reads_and_writes_the_requested_accounts() {
        let store = seeded_store(10);
        let op = SmallbankOp::ModifiedRw {
            reads: vec![1, 2, 3, 4],
            writes: vec![5, 6, 7, 8],
        };
        let txn = endorse(&store, &op);
        assert_eq!(txn.read_set.len(), 4);
        assert_eq!(txn.write_set.len(), 4);
        assert_eq!(op.read_count(), 4);
        // The derived value is the mean of the read balances (all 1,000 at genesis).
        assert_eq!(
            txn.write_set.value_of(&checking_key(5)).unwrap().as_i64(),
            Some(1_000)
        );
    }

    #[test]
    fn single_account_updates_touch_exactly_one_key() {
        let store = seeded_store(4);
        for op in [
            SmallbankOp::DepositChecking {
                account: 1,
                amount: 5,
            },
            SmallbankOp::WriteCheck {
                account: 1,
                amount: 5,
            },
            SmallbankOp::TransactSavings {
                account: 1,
                amount: 5,
            },
        ] {
            let txn = endorse(&store, &op);
            assert_eq!(txn.read_set.len(), 1, "{op:?}");
            assert_eq!(txn.write_set.len(), 1, "{op:?}");
            assert_eq!(op.read_count(), 1);
        }
    }
}
