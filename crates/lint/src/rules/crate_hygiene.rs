//! **crate-hygiene** — every public error enum (a `pub enum` whose name
//! ends in `Error`) in a workspace crate's library code implements both
//! `Display` and `std::error::Error`, so callers can `?`-propagate and
//! `eprintln!("{e}")` any failure without matching on variants.  (The
//! documented-by-default half of crate hygiene is rustc's `missing_docs`,
//! denied in `[workspace.lints]`.)

use super::Rule;
use crate::diag::Diagnostic;
use crate::source::{FileKind, SourceFile};
use crate::workspace::Workspace;

/// See the module docs.
pub struct CrateHygiene;

impl Rule for CrateHygiene {
    fn id(&self) -> &'static str {
        "crate-hygiene"
    }

    fn description(&self) -> &'static str {
        "public error enums must impl Display + std::error::Error"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for krate in ws.crates.iter().filter(|c| !c.is_vendor) {
            // Collect public error enums and the trait impls present
            // anywhere in the crate's library code.
            let files: Vec<&SourceFile> = ws
                .crate_files(&krate.name)
                .filter(|f| f.kind == FileKind::LibSrc)
                .collect();
            let mut error_enums: Vec<(&SourceFile, usize)> = Vec::new();
            let mut impls: Vec<(String, String)> = Vec::new();
            for file in &files {
                for i in 0..file.sig.len() {
                    if file.sig_text(i) == "pub"
                        && file.sig_text(i + 1) == "enum"
                        && file.sig_text(i + 2).ends_with("Error")
                    {
                        error_enums.push((file, i + 2));
                    }
                    // `impl [std::[fmt::]]Trait for Name` — record the last
                    // path segment before `for` plus the target name.
                    if file.sig_text(i) == "for" && i >= 1 {
                        let trait_seg = file.sig_text(i - 1);
                        let target = file.sig_text(i + 1);
                        if !trait_seg.is_empty() && !target.is_empty() {
                            impls.push((trait_seg.to_string(), target.to_string()));
                        }
                    }
                }
            }
            for (file, ti) in error_enums {
                let name = file.sig_text(ti).to_string();
                let has = |trait_seg: &str| impls.iter().any(|(t, n)| t == trait_seg && *n == name);
                let mut missing = Vec::new();
                if !has("Display") {
                    missing.push("`Display`");
                }
                if !has("Error") {
                    missing.push("`std::error::Error`");
                }
                if missing.is_empty() {
                    continue;
                }
                let Some(tok) = file.sig_token(ti) else {
                    continue;
                };
                out.push(
                    file.diag_at(
                        self.id(),
                        tok,
                        format!(
                            "public error enum `{name}` does not implement {}",
                            missing.join(" or ")
                        ),
                    )
                    .with_help(
                        "impl Display (human-readable message per variant) and \
                         `impl std::error::Error` so the type composes with `?` and `Box<dyn Error>`",
                    ),
                );
            }
        }
    }
}
