//! Offline stand-in for `crossbeam`. It provides nothing: no code in the workspace uses it. The
//! crate is kept only because `perf/Cargo.lock` lists it as a dependency of `eov-depgraph` and
//! `fabricsharp-core` (see `crates/shims/README.md`).
