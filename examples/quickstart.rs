//! Quickstart: a miniature execute-order-validate blockchain running the FabricSharp
//! concurrency control end to end.
//!
//! Run with:
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The example seeds a handful of accounts, submits a few rounds of transfers (including a
//! deliberately conflicting pair), seals blocks, and prints what committed, what aborted and
//! why, and the final chain state — the same workflow the paper's Figure 2 walks through.

use fabricsharp::prelude::*;

fn main() {
    let mut chain = SimpleChain::new(SystemKind::FabricSharp);

    // Genesis: four accounts with 100 coins each.
    let accounts: Vec<Key> = ["alice", "bob", "carol", "dave"]
        .iter()
        .map(|name| Key::new(*name))
        .collect();
    chain.seed(accounts.iter().map(|k| (k.clone(), Value::from_i64(100))));
    println!("== Genesis ==");
    for key in &accounts {
        println!("  {key}: {}", chain.latest(key).unwrap().as_i64().unwrap());
    }

    // Round 1: two independent transfers — both commit.
    println!("\n== Block 1: two independent transfers ==");
    let transfers = [("alice", "bob", 25i64), ("carol", "dave", 10)];
    for (from, to, amount) in transfers {
        let from_key = Key::new(from);
        let to_key = Key::new(to);
        let txn = chain.execute(|ctx| {
            let f = ctx.read_balance(&from_key);
            let t = ctx.read_balance(&to_key);
            ctx.write(from_key.clone(), Value::from_i64(f - amount));
            ctx.write(to_key.clone(), Value::from_i64(t + amount));
        });
        let decision = chain.submit(txn);
        println!("  transfer {from} -> {to} ({amount}): {decision:?}");
    }
    let report = chain.seal_block();
    println!(
        "  sealed block {:?}: {} committed, {} aborted",
        report.block_number,
        report.committed.len(),
        report.aborted.len()
    );

    // Round 2: a write-skew pair — alice->bob based on carol's balance and carol->dave based on
    // alice's balance, plus an unrelated transfer. FabricSharp detects that the skewed pair can
    // never be serialized by reordering and drops the second transaction *before* it wastes a
    // block slot (Theorem 2); the rest of the block commits untouched.
    println!("\n== Block 2: write skew is rejected before ordering ==");
    let (alice, bob, carol, dave) = (
        Key::new("alice"),
        Key::new("bob"),
        Key::new("carol"),
        Key::new("dave"),
    );
    let skew1 = chain.execute(|ctx| {
        let c = ctx.read_balance(&carol);
        ctx.write(alice.clone(), Value::from_i64(c));
    });
    let skew2 = chain.execute(|ctx| {
        let a = ctx.read_balance(&alice);
        ctx.write(carol.clone(), Value::from_i64(a));
    });
    let honest = chain.execute(|ctx| {
        let b = ctx.read_balance(&bob);
        let d = ctx.read_balance(&dave);
        ctx.write(bob.clone(), Value::from_i64(b - 5));
        ctx.write(dave.clone(), Value::from_i64(d + 5));
    });
    for (label, txn) in [("skew-1", skew1), ("skew-2", skew2), ("transfer", honest)] {
        let decision = chain.submit(txn);
        println!("  {label}: {decision:?}");
    }
    let report = chain.seal_block();
    println!(
        "  sealed block {:?}: {} committed, {} aborted in validation, {} aborted early",
        report.block_number,
        report.committed.len(),
        report.aborted.len(),
        chain.early_aborted().len()
    );

    // Final state and ledger check.
    println!("\n== Final state ==");
    for key in &accounts {
        println!("  {key}: {}", chain.latest(key).unwrap().as_i64().unwrap());
    }
    println!(
        "\nledger: {} blocks, {} transactions in ledger, {} committed",
        chain.ledger().height(),
        chain.ledger().raw_txn_count(),
        chain.ledger().committed_txn_count()
    );
    println!(
        "hash chain integrity: {}",
        if chain.ledger().verify_integrity().is_ok() {
            "OK"
        } else {
            "BROKEN"
        }
    );
    println!(
        "committed history serializable: {}",
        is_serializable(&chain.committed_history())
    );
}
