//! The Section 3.5 security scenario: a malicious consensus leader front-runs a victim
//! transaction so that the (public, deterministic) reordering algorithm aborts it — and the
//! hash-commitment mitigation that blinds the leader.
//!
//! Run with:
//! ```text
//! cargo run --example adversarial_orderer
//! ```

use fabricsharp::ledger::adversary::{
    ClientSubmission, FrontRunningLeader, HonestLeader, LeaderPolicy,
};
use fabricsharp::prelude::*;

/// Builds the victim transaction: reads and writes the contended record against block N.
fn victim_txn(id: u64) -> Transaction {
    Transaction::from_parts(
        id,
        0,
        [(Key::new("asset"), SeqNo::new(0, 1))],
        [(Key::new("asset"), Value::from_i64(42))],
    )
}

/// Runs a batch of submissions through a leader policy and then through FabricSharp's
/// reorderability test, reporting which transactions survive.
fn run_scenario(label: &str, leader: &mut dyn LeaderPolicy, submissions: Vec<ClientSubmission>) {
    println!("== {label} ==");
    let proposed = leader.propose_order(submissions);
    let mut cc = FabricSharpCC::with_defaults();
    for submission in proposed {
        let txn = match submission.reveal() {
            Ok(txn) => txn,
            Err(_) => {
                println!("  a revealed transaction did not match its commitment — discarded");
                continue;
            }
        };
        let id = txn.id.0;
        let decision = cc.on_arrival(txn);
        println!(
            "  Txn{id}: {}",
            if decision.is_accept() {
                "accepted for the next block"
            } else {
                "ABORTED before ordering"
            }
        );
    }
    let block = cc.cut_block();
    let ids: Vec<u64> = block.iter().map(|t| t.id.0).collect();
    println!("  block contents: {ids:?}\n");
}

fn main() {
    println!("Victim Txn7 reads and writes the record `asset` against the snapshot of block 0.\n");

    // Baseline: an honest leader, plaintext submissions — the victim commits.
    run_scenario(
        "honest leader, plaintext submission",
        &mut HonestLeader,
        vec![ClientSubmission::Plain(victim_txn(7))],
    );

    // Attack: the leader can see the victim's read/write sets, fabricates a conflicting
    // transaction touching the same record against the same snapshot, and places it ahead.
    // The front-runner passes the reorderability test; the victim then closes an unreorderable
    // cycle (c-rw one way, anti-rw the other) and every honest orderer aborts it.
    let mut attacker = FrontRunningLeader::new(Key::new("asset"), |victim: &Transaction| {
        let mut attack = victim.clone();
        attack.id = TxnId(victim.id.0 + 1_000_000);
        attack
    });
    run_scenario(
        "malicious leader, plaintext submission (front-running succeeds)",
        &mut attacker,
        vec![ClientSubmission::Plain(victim_txn(7))],
    );
    println!(
        "  attacks launched by the leader: {}\n",
        attacker.attacks_launched
    );

    // Mitigation: the client submits only a hash commitment over a secret nonce and the
    // transaction; the leader cannot inspect the read/write sets before the order is fixed,
    // and cannot confirm a guessed transaction without the nonce, so it has nothing to
    // front-run. The contents and nonce are revealed (and checked against the commitment)
    // only after sequencing. A real client draws the nonce at random.
    let nonce = [0x5a; 32];
    let mut blinded_attacker =
        FrontRunningLeader::new(Key::new("asset"), |victim: &Transaction| victim.clone());
    run_scenario(
        "malicious leader, hash-commitment submission (mitigated)",
        &mut blinded_attacker,
        vec![ClientSubmission::committed(victim_txn(7), nonce)],
    );
    println!(
        "  attacks launched by the leader: {}",
        blinded_attacker.attacks_launched
    );
}
