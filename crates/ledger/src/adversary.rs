//! Adversarial leader behaviour and the hash-commitment mitigation (Section 3.5).
//!
//! The paper's liveness discussion observes that the consensus leader proposes the tentative
//! transaction order. A malicious leader that can *see transaction contents* before the order
//! is fixed can front-run: upon spotting an undesirable transaction `TxnT` that reads and
//! writes some record against block `N`, it fabricates `TxnT'` touching the same record
//! against the same snapshot and places it just ahead. `TxnT'` passes the reorderability test;
//! `TxnT` then closes an unreorderable cycle (`TxnT'` depends on `TxnT` with c-rw and `TxnT`
//! on `TxnT'` with anti-rw) and every honest orderer aborts it.
//!
//! The mitigation is to hide transaction contents until the order is established: clients
//! submit only a *commitment* — SHA-256 over a client-chosen 32-byte nonce and the
//! transaction's codec encoding — and disclose the transaction and nonce after sequencing.
//! The nonce is what makes the commitment hiding: a leader that guesses the transaction
//! exactly still cannot confirm the guess without it. This module models both the attack and
//! the defence so the example and the integration tests can demonstrate each.

use crate::codec::txn_payload;
use crate::sha256::{sha256, Digest};
use eov_common::rwset::Key;
use eov_common::txn::Transaction;

/// What a client actually hands to the (possibly malicious) leader.
#[derive(Clone, Debug)]
pub enum ClientSubmission {
    /// The full transaction is visible to the leader before ordering (vanilla behaviour).
    Plain(Transaction),
    /// Only a commitment is visible; the transaction is revealed after the order is fixed.
    /// The leader cannot inspect read/write sets at proposal time.
    Committed {
        /// `commitment_of(nonce, sealed)`, the only field the leader sees.
        commitment: Digest,
        /// The client's secret nonce, disclosed with the transaction after ordering.
        nonce: [u8; 32],
        /// The transaction, carried along for post-ordering reveal. A real deployment would
        /// deliver this and the nonce separately; the tuple keeps the simulation
        /// single-process.
        sealed: Transaction,
    },
}

impl ClientSubmission {
    /// Builds a commitment-style submission for `txn` under the client's secret `nonce`.
    pub fn committed(txn: Transaction, nonce: [u8; 32]) -> Self {
        ClientSubmission::Committed {
            commitment: commitment_of(&nonce, &txn),
            nonce,
            sealed: txn,
        }
    }

    /// The transaction as revealed *after* ordering. Recomputes the commitment from the nonce
    /// and the revealed contents (a client that mutates its transaction post-commitment is
    /// caught here).
    pub fn reveal(self) -> Result<Transaction, CommitmentMismatch> {
        match self {
            ClientSubmission::Plain(txn) => Ok(txn),
            ClientSubmission::Committed {
                commitment,
                nonce,
                sealed,
            } => {
                if commitment_of(&nonce, &sealed) == commitment {
                    Ok(sealed)
                } else {
                    Err(CommitmentMismatch { commitment })
                }
            }
        }
    }

    /// The transaction contents, if the leader is allowed to see them at proposal time.
    pub(crate) fn visible_to_leader(&self) -> Option<&Transaction> {
        match self {
            ClientSubmission::Plain(txn) => Some(txn),
            ClientSubmission::Committed { .. } => None,
        }
    }
}

/// Error returned when a revealed transaction does not match its earlier commitment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitmentMismatch {
    /// The original commitment value.
    pub(crate) commitment: Digest,
}

/// The commitment to `txn` under `nonce`: SHA-256 over the nonce followed by the
/// transaction's codec encoding (`txn_payload`, the bytes a block record stores).
pub fn commitment_of(nonce: &[u8; 32], txn: &Transaction) -> Digest {
    sha256(&[nonce.as_slice(), &txn_payload(txn)].concat())
}

/// A leader policy decides the proposed order of a batch of submissions.
pub trait LeaderPolicy {
    /// Reorders (and possibly augments) the submissions it received.
    fn propose_order(&mut self, submissions: Vec<ClientSubmission>) -> Vec<ClientSubmission>;
}

/// An honest leader proposes exactly the arrival order.
#[derive(Clone, Copy, Debug, Default)]
pub struct HonestLeader;

impl LeaderPolicy for HonestLeader {
    fn propose_order(&mut self, submissions: Vec<ClientSubmission>) -> Vec<ClientSubmission> {
        submissions
    }
}

/// A front-running leader that targets transactions touching `target_key`: whenever it can see
/// such a transaction, it fabricates a conflicting transaction (via `fabricate`) and places it
/// immediately ahead of the victim.
pub struct FrontRunningLeader<F>
where
    F: FnMut(&Transaction) -> Transaction,
{
    /// The record the adversary wants to contend on.
    pub(crate) target_key: Key,
    /// Factory producing the front-running transaction from the observed victim.
    pub(crate) fabricate: F,
    /// How many victims were front-run (diagnostics for tests).
    pub attacks_launched: usize,
}

impl<F> FrontRunningLeader<F>
where
    F: FnMut(&Transaction) -> Transaction,
{
    /// Creates a front-running leader targeting `target_key`.
    pub fn new(target_key: Key, fabricate: F) -> Self {
        FrontRunningLeader {
            target_key,
            fabricate,
            attacks_launched: 0,
        }
    }
}

impl<F> LeaderPolicy for FrontRunningLeader<F>
where
    F: FnMut(&Transaction) -> Transaction,
{
    fn propose_order(&mut self, submissions: Vec<ClientSubmission>) -> Vec<ClientSubmission> {
        let mut proposed = Vec::with_capacity(submissions.len());
        for sub in submissions {
            let is_victim = sub
                .visible_to_leader()
                .map(|txn| {
                    txn.read_set.contains(&self.target_key)
                        && txn.write_set.contains(&self.target_key)
                })
                .unwrap_or(false);
            if is_victim {
                let victim = sub.visible_to_leader().expect("checked above");
                let attack = (self.fabricate)(victim);
                self.attacks_launched += 1;
                proposed.push(ClientSubmission::Plain(attack));
            }
            proposed.push(sub);
        }
        proposed
    }
}

/// A long-fork / equivocation schedule (the classic safety attack a reordering orderer must
/// not mask): the leader presents every replica the same prefix, then *equivocates*, feeding
/// one partition of replicas a different suffix order (or different suffix contents) than the
/// other. Honest replicas are deterministic, so within a partition they still agree — the
/// attack only becomes visible when chains are compared *across* partitions, which is exactly
/// what [`audit_fork`] does.
pub struct EquivocatingLeader {
    /// Number of leading submissions proposed identically to both partitions.
    pub(crate) fork_after: usize,
    /// Whether the leader has actually equivocated yet (diagnostics for tests: a stream
    /// shorter than the prefix never forks).
    pub equivocated: bool,
}

impl EquivocatingLeader {
    /// Creates a leader that equivocates after `fork_after` submissions.
    pub fn new(fork_after: usize) -> Self {
        EquivocatingLeader {
            fork_after,
            equivocated: false,
        }
    }

    /// Proposes the batch twice: partition A receives the submissions in arrival order;
    /// partition B receives the shared prefix followed by the remaining suffix in *reversed*
    /// order — a minimal long-fork schedule (both partitions see every transaction, but after
    /// the fork point their total orders, and hence their reordering decisions and block
    /// hashes, may diverge).
    pub fn propose_fork(
        &mut self,
        submissions: Vec<ClientSubmission>,
    ) -> (Vec<ClientSubmission>, Vec<ClientSubmission>) {
        let branch_a = submissions.clone();
        let mut branch_b = submissions;
        // A suffix of at least two is required for the reversal to actually diverge; a
        // one-element suffix reverses to itself and equivocates nothing.
        if branch_b.len() > self.fork_after.saturating_add(1) {
            branch_b[self.fork_after..].reverse();
            self.equivocated = true;
        }
        (branch_a, branch_b)
    }
}

/// Outcome of auditing two replicas' chains for a long fork.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForkVerdict {
    /// One chain's per-height commitments are a prefix of the other's: the replicas agree on
    /// everything both have sealed (one may simply lag).
    Converged {
        /// Heights both chains have sealed (and agree on).
        common_height: usize,
    },
    /// The chains disagree on a sealed height: evidence of leader equivocation. Safety
    /// demands this is *detected*, never silently reconciled.
    Forked {
        /// First height (1-based) whose commitments differ.
        first_divergent_height: usize,
    },
}

impl ForkVerdict {
    /// Whether the audit found a fork.
    pub fn is_forked(&self) -> bool {
        matches!(self, ForkVerdict::Forked { .. })
    }
}

/// Audits two replicas' chains — given as per-height block commitments (block hashes in a
/// real deployment) — for a long fork. Comparing hashes height by height is the detection
/// half of the "converge or detect" obligation: honest replicas fed the same total order
/// produce identical chains (`tests/replication_determinism.rs`), so any sealed-height
/// mismatch is cryptographic evidence of equivocation.
pub fn audit_fork<T: PartialEq>(a: &[T], b: &[T]) -> ForkVerdict {
    let common = a.len().min(b.len());
    for height in 0..common {
        if a[height] != b[height] {
            return ForkVerdict::Forked {
                first_divergent_height: height + 1,
            };
        }
    }
    ForkVerdict::Converged {
        common_height: common,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eov_common::rwset::Value;
    use eov_common::version::SeqNo;

    /// The victim client's secret nonce.
    const NONCE: [u8; 32] = [0x5a; 32];

    fn victim_txn(id: u64) -> Transaction {
        Transaction::from_parts(
            id,
            3,
            [(Key::new("asset"), SeqNo::new(3, 1))],
            [(Key::new("asset"), Value::from_i64(42))],
        )
    }

    #[test]
    fn honest_leader_preserves_order() {
        let mut leader = HonestLeader;
        let subs = vec![
            ClientSubmission::Plain(victim_txn(1)),
            ClientSubmission::Plain(victim_txn(2)),
        ];
        let out = leader.propose_order(subs);
        let ids: Vec<u64> = out.into_iter().map(|s| s.reveal().unwrap().id.0).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn front_runner_injects_ahead_of_visible_victims() {
        let mut leader = FrontRunningLeader::new(Key::new("asset"), |victim: &Transaction| {
            let mut attack = victim.clone();
            attack.id = eov_common::txn::TxnId(victim.id.0 + 1_000_000);
            attack
        });
        let out = leader.propose_order(vec![
            ClientSubmission::Plain(victim_txn(7)),
            ClientSubmission::Plain(Transaction::from_parts(8, 3, [], [])),
        ]);
        let ids: Vec<u64> = out.into_iter().map(|s| s.reveal().unwrap().id.0).collect();
        assert_eq!(ids, vec![1_000_007, 7, 8]);
        assert_eq!(leader.attacks_launched, 1);
    }

    #[test]
    fn commitments_blind_the_front_runner() {
        let mut leader =
            FrontRunningLeader::new(Key::new("asset"), |victim: &Transaction| victim.clone());
        let out = leader.propose_order(vec![ClientSubmission::committed(victim_txn(7), NONCE)]);
        assert_eq!(out.len(), 1, "no attack transaction was injected");
        assert_eq!(leader.attacks_launched, 0);
        assert_eq!(out.into_iter().next().unwrap().reveal().unwrap().id.0, 7);
    }

    #[test]
    fn tampered_reveal_is_detected() {
        let txn = victim_txn(9);
        let sub = ClientSubmission::Committed {
            commitment: commitment_of(&NONCE, &txn),
            nonce: NONCE,
            sealed: {
                let mut mutated = txn;
                mutated
                    .write_set
                    .record(Key::new("asset"), Value::from_i64(-1));
                mutated
            },
        };
        assert!(sub.reveal().is_err());
    }

    #[test]
    fn equivocating_leader_shares_the_prefix_and_forks_the_suffix() {
        let mut leader = EquivocatingLeader::new(2);
        let subs: Vec<ClientSubmission> = (1..=5)
            .map(|id| ClientSubmission::Plain(victim_txn(id)))
            .collect();
        let (a, b) = leader.propose_fork(subs);
        assert!(leader.equivocated);
        let ids = |branch: Vec<ClientSubmission>| -> Vec<u64> {
            branch
                .into_iter()
                .map(|s| s.reveal().unwrap().id.0)
                .collect()
        };
        assert_eq!(ids(a), vec![1, 2, 3, 4, 5]);
        assert_eq!(ids(b), vec![1, 2, 5, 4, 3], "suffix order equivocated");

        // A stream that never reaches the fork point cannot equivocate.
        let mut honest_range = EquivocatingLeader::new(10);
        let (a, b) = honest_range.propose_fork(
            (1..=3)
                .map(|id| ClientSubmission::Plain(victim_txn(id)))
                .collect(),
        );
        assert!(!honest_range.equivocated);
        assert_eq!(ids(a), ids(b));
    }

    #[test]
    fn audit_fork_distinguishes_lag_from_divergence() {
        // Identical chains converge.
        assert_eq!(
            audit_fork(&[1u64, 2, 3], &[1, 2, 3]),
            ForkVerdict::Converged { common_height: 3 }
        );
        // A strict prefix is lag, not a fork.
        assert_eq!(
            audit_fork(&[1u64, 2, 3], &[1, 2]),
            ForkVerdict::Converged { common_height: 2 }
        );
        // A sealed-height mismatch is a fork at the first divergent height, even if later
        // entries happen to collide again.
        let verdict = audit_fork(&[1u64, 2, 3, 9], &[1, 7, 3, 9]);
        assert_eq!(
            verdict,
            ForkVerdict::Forked {
                first_divergent_height: 2
            }
        );
        assert!(verdict.is_forked());
        // Empty chains trivially converge.
        assert_eq!(
            audit_fork::<u64>(&[], &[]),
            ForkVerdict::Converged { common_height: 0 }
        );
    }

    #[test]
    fn a_guessed_transaction_does_not_open_the_commitment_without_its_nonce() {
        let ClientSubmission::Committed { commitment, .. } =
            ClientSubmission::committed(victim_txn(7), NONCE)
        else {
            unreachable!("committed() builds a commitment")
        };
        // The leader guesses the victim bit for bit, but not the nonce.
        let guess = victim_txn(7);
        assert_ne!(sha256(&txn_payload(&guess)), commitment);
        assert_ne!(commitment_of(&[0; 32], &guess), commitment);
        let mut wrong_nonce = NONCE;
        wrong_nonce[31] ^= 1;
        assert_ne!(commitment_of(&wrong_nonce, &guess), commitment);
        // Binding: the disclosed nonce opens the commitment to exactly this transaction.
        assert_eq!(commitment_of(&NONCE, &guess), commitment);
    }

    #[test]
    fn commitment_is_sensitive_to_every_component() {
        let base = victim_txn(1);
        let c0 = commitment_of(&NONCE, &base);

        let mut different_nonce = NONCE;
        different_nonce[0] ^= 1;
        assert_ne!(c0, commitment_of(&different_nonce, &base));

        let mut different_id = base.clone();
        different_id.id = eov_common::txn::TxnId(2);
        assert_ne!(c0, commitment_of(&NONCE, &different_id));

        let mut different_write = base.clone();
        different_write
            .write_set
            .record(Key::new("asset"), Value::from_i64(43));
        assert_ne!(c0, commitment_of(&NONCE, &different_write));

        let mut different_snapshot = base;
        different_snapshot.snapshot_block = 4;
        assert_ne!(c0, commitment_of(&NONCE, &different_snapshot));

        // Shifting the key/value boundary keeps the concatenated bytes but not the
        // length-prefixed encoding.
        let write = |key: &str, value: &str| {
            Transaction::from_parts(1, 3, [], [(Key::new(key), Value::from(value))])
        };
        assert_ne!(
            commitment_of(&NONCE, &write("ab", "c")),
            commitment_of(&NONCE, &write("a", "bc"))
        );
    }
}
