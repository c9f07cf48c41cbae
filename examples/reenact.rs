//! Reenactment: durable ledger, crash, cold recovery, and time-travel queries.
//!
//! Run with:
//! ```text
//! cargo run --example reenact
//! ```
//!
//! The example plays the auditor's workflow end to end: a FabricSharp chain processes a few
//! blocks of transfers while every block is persisted to CRC-framed segment files; the
//! process "crashes" mid-append (simulated by chopping bytes off the tail segment); a cold
//! restart recovers from the newest checkpoint plus the intact segment suffix — truncating
//! the torn record instead of panicking — and the auditor then asks the recovered state
//! *what was alice's balance as of block h, and which transaction produced it?* Finally the
//! orderer's controller, which is never persisted, is rebuilt from the recovered ledger.

use fabricsharp::core::recovery::recover_from_ledger;
use fabricsharp::ledger::{provenance, recover_from_disk};
use fabricsharp::prelude::*;

fn main() {
    let dir = std::env::temp_dir().join(format!("eov-reenact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A live chain persisted to segment files. `persist_to` checkpoints the genesis state up
    // front: seeded balances exist in no block, so replay alone could never recreate them on a
    // cold start.
    let mut chain = SimpleChain::new(SystemKind::FabricSharp);
    let alice = Key::new("alice");
    let bob = Key::new("bob");
    chain.seed([
        (alice.clone(), Value::from_i64(100)),
        (bob.clone(), Value::from_i64(100)),
    ]);
    chain.persist_to(&dir).unwrap();

    // The directory is unique per process; the output leaves its name out, so two runs print
    // the same text.
    println!("== Running: 5 blocks of alice -> bob transfers, persisted to a fresh directory ==");
    for round in 1..=5i64 {
        let txn = chain.execute(|ctx| {
            let a = ctx.read_balance(&alice);
            let b = ctx.read_balance(&bob);
            ctx.write(alice.clone(), Value::from_i64(a - 10 * round));
            ctx.write(bob.clone(), Value::from_i64(b + 10 * round));
        });
        assert!(chain.submit(txn).is_accept());
        let txns = chain.cut();
        let height = chain.commit(txns).unwrap().block_number.unwrap();
        println!(
            "  block {height}: alice={}, bob={}",
            chain.latest(&alice).unwrap().as_i64().unwrap(),
            chain.latest(&bob).unwrap().as_i64().unwrap()
        );
    }
    drop(chain);

    // Crash: the machine dies mid-append, leaving a torn trailing record.
    let mut segments: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segments.sort();
    let tail = segments.last().unwrap();
    let len = std::fs::metadata(tail).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(tail).unwrap();
    file.set_len(len - 7).unwrap();
    println!("\n== Crash: tore {} down to {} bytes ==", len, len - 7);

    // Cold restart: checkpoint + segment replay; the torn record is truncated, not fatal.
    let recovered = recover_from_disk(&dir, CcConfig::default()).unwrap();
    println!(
        "recovered height {} from checkpoint {} + {} segment file(s); torn tail: {}",
        recovered.ledger.height(),
        recovered.checkpoint_height,
        recovered.open.segments,
        match &recovered.open.torn {
            Some(t) => format!("dropped {} byte(s)", t.dropped_bytes),
            None => "none".into(),
        }
    );
    let height = recovered.ledger.height();
    assert_eq!(height, 4, "block 5's record was torn and truncated away");

    // Time travel: alice's balance as of every recovered height, with provenance.
    println!("\n== Reenactment: alice's balance through history ==");
    for h in 0..=height {
        let p = provenance(recovered.ledger.ledger(), &recovered.store, &alice, h)
            .unwrap()
            .expect("alice always has a balance");
        match p.txn {
            Some(id) => println!(
                "  as of block {h}: {} (written by txn {} at slot ({}, {}))",
                p.value.as_i64().unwrap(),
                id.0,
                p.slot.block,
                p.slot.seq
            ),
            None => println!(
                "  as of block {h}: {} (genesis seed)",
                p.value.as_i64().unwrap()
            ),
        }
    }
    let history = recovered.store.history_range(&alice, 1, height).unwrap();
    println!(
        "history of alice over blocks 1..={height}: {:?}",
        history
            .iter()
            .map(|v| v.value.as_i64().unwrap())
            .collect::<Vec<_>>()
    );

    // The controller rebuilt from the recovered ledger (after checking its hash chain) resumes
    // exactly after the surviving prefix.
    let cc = recover_from_ledger(recovered.ledger.ledger(), CcConfig::default()).unwrap();
    println!(
        "\nrecovered controller resumes at block {}",
        cc.next_block()
    );
    println!("hash chain integrity after recovery: OK");

    std::fs::remove_dir_all(&dir).unwrap();
}
