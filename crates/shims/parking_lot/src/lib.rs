//! Offline stand-in for `parking_lot`. It provides nothing: no code in the workspace uses it.
//! The crate is kept only because `perf/Cargo.lock` lists it as a dependency of `eov-vstore`
//! (see `crates/shims/README.md`).
