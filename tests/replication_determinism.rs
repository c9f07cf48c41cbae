//! Replication and determinism: the paper's safety argument (Section 3.5) requires every
//! honest orderer, fed the same consensus stream, to perform the same reordering and deliver
//! identical blocks. These tests replay one proposed order through independent `SimpleChain`
//! replicas and compare their block hashes, and exercise the hash-commitment mitigation.

use fabricsharp::ledger::adversary::{
    audit_fork, commitment_of, ClientSubmission, EquivocatingLeader, ForkVerdict,
    FrontRunningLeader, LeaderPolicy,
};
use fabricsharp::ledger::Ledger;
use fabricsharp::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a stream of moderately contended transactions over 6 keys.
fn transaction_stream(count: usize, seed: u64) -> Vec<Transaction> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let read_key = Key::new(format!("k{}", rng.gen_range(0..6)));
            let write_key = Key::new(format!("k{}", rng.gen_range(0..6)));
            Transaction::from_parts(
                i as u64 + 1,
                0,
                [(read_key, SeqNo::new(0, 1))],
                [(write_key, Value::from_i64(i as i64))],
            )
        })
        .collect()
}

#[test]
fn simulator_runs_are_reproducible_for_identical_configurations() {
    let mut config =
        SimulationConfig::new(SystemKind::FabricSharp, WorkloadKind::ModifiedSmallbank);
    config.duration_s = 2.0;
    config.params.num_accounts = 500;
    config.params.request_rate_tps = 300;
    let a = Simulator::run(&config);
    let b = Simulator::run(&config);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.in_ledger, b.in_ledger);
    assert_eq!(a.blocks, b.blocks);
    assert_eq!(a.aborted(), b.aborted());
}

/// Replays one proposed total order through an independent FabricSharp node, sealing a block
/// every `block_size` deliveries, and returns the resulting hash chain — the artefact replicas
/// exchange to audit for forks.
fn replay_branch(branch: &[ClientSubmission], block_size: usize) -> Ledger {
    let mut chain = SimpleChain::new(SystemKind::FabricSharp);
    for (i, submission) in branch.iter().enumerate() {
        let txn = submission
            .clone()
            .reveal()
            .expect("plain submissions always reveal");
        let _ = chain.arrive(txn);
        if (i + 1) % block_size == 0 {
            chain.seal_block();
        }
    }
    chain.seal_block();
    chain.into_parts().0
}

fn block_hashes(ledger: &Ledger) -> Vec<fabricsharp::ledger::Digest> {
    ledger.iter().map(|b| b.hash()).collect()
}

/// The long-fork obligation (ROADMAP open item): under an equivocating leader, replicas
/// either converge to one ledger or *detect* the fork by comparing sealed block hashes —
/// silent divergence is the one forbidden outcome. Replicas inside one partition (same
/// proposed order) must still agree bit for bit, the shared prefix must match across
/// partitions, and the audit must localise the first divergent height.
#[test]
fn long_fork_equivocation_converges_within_partitions_and_is_detected_across() {
    let submissions: Vec<ClientSubmission> = transaction_stream(120, 11)
        .into_iter()
        .map(ClientSubmission::Plain)
        .collect();

    // The leader equivocates after 40 submissions; blocks seal every 30 deliveries, so block
    // 1 precedes the fork point on both branches and block 2 is the first that can diverge.
    let mut leader = EquivocatingLeader::new(40);
    let (branch_a, branch_b) = leader.propose_fork(submissions);
    assert!(leader.equivocated);

    let partition_a_1 = replay_branch(&branch_a, 30);
    let partition_a_2 = replay_branch(&branch_a, 30);
    let partition_b = replay_branch(&branch_b, 30);

    // Within a partition: full convergence (the Section 3.5 agreement property).
    assert_eq!(partition_a_1.tip_hash(), partition_a_2.tip_hash());
    assert_eq!(
        audit_fork(&block_hashes(&partition_a_1), &block_hashes(&partition_a_2)),
        ForkVerdict::Converged {
            common_height: partition_a_1.height() as usize
        }
    );

    // Across partitions: the fork is detected, never silently reconciled, and is localised
    // to the first post-fork block — the shared prefix still matches.
    let verdict = audit_fork(&block_hashes(&partition_a_1), &block_hashes(&partition_b));
    assert_eq!(
        verdict,
        ForkVerdict::Forked {
            first_divergent_height: 2
        },
        "equivocation after the first sealed block must surface at height 2"
    );
    assert_eq!(
        partition_a_1.block(1).unwrap().hash(),
        partition_b.block(1).unwrap().hash(),
        "the pre-fork prefix is common to both partitions"
    );
    // Both branches remain internally valid chains — the attack is only visible by
    // cross-partition comparison, which is why the audit must exist.
    assert!(partition_a_1.verify_integrity().is_ok());
    assert!(partition_b.verify_integrity().is_ok());
}

/// A leader whose "fork point" lies beyond the stream never equivocates: every replica sees
/// the same order and the audit reports convergence — the no-false-positive half of the
/// detection obligation.
#[test]
fn honest_schedules_converge_with_no_fork_report() {
    let submissions: Vec<ClientSubmission> = transaction_stream(90, 12)
        .into_iter()
        .map(ClientSubmission::Plain)
        .collect();
    let mut leader = EquivocatingLeader::new(usize::MAX);
    let (branch_a, branch_b) = leader.propose_fork(submissions);
    assert!(!leader.equivocated);

    let replica_a = replay_branch(&branch_a, 25);
    let replica_b = replay_branch(&branch_b, 25);
    let verdict = audit_fork(&block_hashes(&replica_a), &block_hashes(&replica_b));
    assert!(!verdict.is_forked());
    assert_eq!(replica_a.tip_hash(), replica_b.tip_hash());
    assert!(replica_a.height() > 0);

    // A lagging replica (same order, fewer sealed blocks) is lag, not a fork.
    let lagging = replay_branch(&branch_a[..50], 25);
    assert_eq!(
        audit_fork(&block_hashes(&replica_a), &block_hashes(&lagging)),
        ForkVerdict::Converged {
            common_height: lagging.height() as usize
        }
    );
}

#[test]
fn front_running_leader_aborts_the_victim_but_commitments_defeat_it() {
    let victim = Transaction::from_parts(
        7,
        0,
        [(Key::new("asset"), SeqNo::new(0, 1))],
        [(Key::new("asset"), Value::from_i64(1))],
    );

    // Plaintext submission: the fabricated conflicting transaction is sequenced first and the
    // victim closes an unreorderable cycle, so FabricSharp aborts it.
    let mut attacker = FrontRunningLeader::new(Key::new("asset"), |v: &Transaction| {
        let mut attack = v.clone();
        attack.id = TxnId(1_000_000 + v.id.0);
        attack
    });
    let order = attacker.propose_order(vec![ClientSubmission::Plain(victim.clone())]);
    let mut cc = FabricSharpCC::with_defaults();
    let mut decisions = Vec::new();
    for submission in order {
        let txn = submission
            .reveal()
            .expect("plaintext submissions always reveal");
        decisions.push((txn.id.0, cc.on_arrival(txn).is_accept()));
    }
    assert_eq!(decisions.len(), 2);
    assert!(decisions[0].1, "the front-running transaction is accepted");
    assert!(!decisions[1].1, "the victim is aborted by the attack");

    // Commitment submission: the leader sees only the hash, injects nothing, and the victim
    // commits. A post-ordering mutation of the sealed contents is detected.
    let mut blinded = FrontRunningLeader::new(Key::new("asset"), |v: &Transaction| v.clone());
    let nonce = [0x5a; 32];
    let order = blinded.propose_order(vec![ClientSubmission::committed(victim.clone(), nonce)]);
    assert_eq!(order.len(), 1);
    assert_eq!(blinded.attacks_launched, 0);
    let mut cc = FabricSharpCC::with_defaults();
    let revealed = order.into_iter().next().unwrap().reveal().unwrap();
    assert!(cc.on_arrival(revealed).is_accept());

    let mut tampered = victim.clone();
    tampered
        .write_set
        .record(Key::new("asset"), Value::from_i64(999));
    let bad = ClientSubmission::Committed {
        commitment: commitment_of(&nonce, &victim),
        nonce,
        sealed: tampered,
    };
    assert!(
        bad.reveal().is_err(),
        "a mutated reveal must not match its commitment"
    );
}
