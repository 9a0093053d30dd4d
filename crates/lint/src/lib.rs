//! `mdrr-lint` — the workspace's own static-analysis pass.
//!
//! `cargo test` proves the code computes the right answers *today*;
//! rustc and clippy (configured in the workspace manifest, `clippy.toml`
//! and `#[deny]` attributes) keep panics out of the no-panic code, floats
//! out of the integer randomization kernels and ambient clocks out of
//! everything.  What they cannot see is a contract that spans functions
//! or files: a panic reached *through a call chain* from the snapshot
//! decoder, a raw record flowing toward a snapshot or a print, an
//! unordered `HashMap` reachable from a release, an allocation inside a
//! marked hot loop, or a drift between `docs/FORMAT.md` and the
//! constants in `crates/store/src/format.rs`.  This crate checks those
//! contracts mechanically and fails CI when they break (see
//! `docs/LINTS.md`).
//!
//! The design is deliberately dependency-free (the workspace builds
//! offline against vendored shims, so `syn` is not an option): a small
//! total lexer ([`lexer`]) that understands comments, strings, raw
//! strings, char literals and lifetimes well enough that rules only ever
//! see *significant* tokens; a directive layer ([`source`]) for
//! `// lint:region(…)` scoping and `// lint:allow(rule, reason = "…")`
//! suppressions (the reason is mandatory, and stale suppressions are
//! themselves findings); workspace discovery ([`workspace`]); a semantic
//! layer ([`sem`]) — item parser, symbol table, call graph — feeding the
//! interprocedural privacy-taint / panic-reachability / determinism
//! analyses; the rule set ([`rules`]); and the engine ([`engine`]) that
//! ties them together under rustc-style diagnostics ([`diag`]).
//!
//! Run it as CI does:
//!
//! ```text
//! cargo run -p mdrr-lint -- --deny-warnings
//! ```

#![forbid(unsafe_code)]

pub mod diag;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod sem;
pub mod source;
pub mod workspace;

pub use diag::{Diagnostic, Severity};
pub use engine::{run, run_filtered, run_timed, Outcome};
pub use sem::SemModel;
pub use workspace::Workspace;
