//! The compiler-enforced contracts (docs/LINTS.md) stay wired.
//!
//! `missing_docs`, `undocumented_unsafe_blocks` and
//! `allow_attributes_without_reason` are denied once, in
//! `[workspace.lints]` of the root `Cargo.toml`, and reach a crate only
//! through its `[lints] workspace = true`; the no-panic and integer-kernel
//! contracts live in `#[deny]` attributes.  Dropping either compiles
//! fine and silently drops the contract.  These tests fail instead.

use std::path::{Path, PathBuf};

fn read(rel: &str) -> String {
    let path: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Lines of `manifest` with comments and surrounding whitespace removed.
fn lines(manifest: &str) -> impl Iterator<Item = &str> {
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
}

/// The string entries of the `members = [ … ]` array in the `[workspace]`
/// table.
fn workspace_members(manifest: &str) -> Vec<String> {
    let mut table = "";
    let mut in_members = false;
    let mut members = Vec::new();
    for line in lines(manifest) {
        if line.starts_with('[') && !in_members {
            table = line;
            continue;
        }
        if table == "[workspace]" && line.replace(' ', "").starts_with("members=[") {
            in_members = true;
        }
        if in_members {
            members.extend(line.split('"').skip(1).step_by(2).map(str::to_string));
            if line.ends_with(']') {
                in_members = false;
            }
        }
    }
    members
}

/// Whether `manifest` has a `[lints]` table with `workspace = true`.
fn inherits_workspace_lints(manifest: &str) -> bool {
    let mut table = "";
    for line in lines(manifest) {
        if line.starts_with('[') {
            table = line;
        } else if table == "[lints]" && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// The root package and every workspace member outside `vendor/` opt in
/// to the workspace lint table.
#[test]
fn every_first_party_manifest_inherits_the_workspace_lints() {
    let members = workspace_members(&read("Cargo.toml"));
    assert!(
        members.iter().any(|m| m == "crates/core"),
        "could not parse the workspace members list: {members:?}"
    );

    let missing: Vec<String> = std::iter::once(".".to_string())
        .chain(members.into_iter().filter(|m| !m.starts_with("vendor/")))
        .filter(|dir| !inherits_workspace_lints(&read(&format!("{dir}/Cargo.toml"))))
        .collect();
    assert!(
        missing.is_empty(),
        "these manifests do not declare `[lints] workspace = true`: {missing:?}"
    );
}

/// The six files whose panic sites `mdrr-lint`'s panic-reachability
/// leaves to clippy deny the whole clippy panic set, and the four
/// randomization kernel functions deny float arithmetic.
#[test]
fn contract_attributes_stay_on_their_code() {
    for file in [
        "crates/store/src/lib.rs",
        "crates/serve/src/lib.rs",
        "crates/stream/src/checkpoint.rs",
        "crates/stream/src/collector.rs",
        "crates/stream/src/wire.rs",
        "crates/stream/src/client.rs",
    ] {
        let text = read(file);
        let start = text.find("#![deny(").map_or(0, |at| at + "#![deny(".len());
        let end = start + text[start..].find(")]").unwrap_or(0);
        let denied: Vec<&str> = text[start..end].split(',').map(str::trim).collect();
        for lint in [
            "clippy::unwrap_used",
            "clippy::expect_used",
            "clippy::panic",
            "clippy::unreachable",
            "clippy::todo",
            "clippy::unimplemented",
            "clippy::indexing_slicing",
        ] {
            assert!(
                denied.contains(&lint),
                "{file}: the inner `#![deny(…)]` lost `{lint}`"
            );
        }
    }

    let matrix = read("crates/core/src/matrix.rs");
    for kernel in [
        "fn uniform_redraw(",
        "fn sample_uniform_raw(",
        "fn randomize_strided_into(",
        "fn randomize_strided_tally(",
    ] {
        let at = matrix.find(kernel).expect("the kernel fn exists");
        let attrs = &matrix[matrix[..at].rfind("///").unwrap_or(0)..at];
        assert!(
            attrs.contains("#[deny(clippy::float_arithmetic)]"),
            "`{kernel}…)` lost `#[deny(clippy::float_arithmetic)]`"
        );
    }
}
