//! Workspace file discovery.
//!
//! A small recursive walker (the dependency budget excludes `walkdir`)
//! that finds every Rust source file and every `Cargo.toml` under the
//! workspace root, skipping build output, VCS metadata and benchmark
//! artifacts. Paths are returned workspace-relative with `/` separators
//! and sorted, so lint output is deterministic.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into. `fixtures` holds the lint
/// crate's own deliberately-violating test corpus.
const SKIP_DIRS: [&str; 5] = ["target", ".git", "bench_results", "node_modules", "fixtures"];

/// The files a lint run operates on, as workspace-relative paths.
#[derive(Debug, Default)]
pub struct WorkspaceFiles {
    /// Every `.rs` file.
    pub rust_sources: Vec<String>,
    /// Every `Cargo.toml`.
    pub manifests: Vec<String>,
}

/// Walks `root` collecting Rust sources and manifests.
pub fn discover(root: &Path) -> io::Result<WorkspaceFiles> {
    let mut files = WorkspaceFiles::default();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !name.starts_with('.') && !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name == "Cargo.toml" {
                files.manifests.push(relative(root, &path));
            } else if name.ends_with(".rs") {
                files.rust_sources.push(relative(root, &path));
            }
        }
    }
    files.rust_sources.sort();
    files.manifests.sort();
    Ok(files)
}

/// Renders `path` relative to `root` with `/` separators.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> =
        rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
    parts.join("/")
}

/// Locates the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lint crate lives inside the workspace it lints: discovery from
    /// the real root must find this very file and skip `target/`.
    #[test]
    fn discovers_own_workspace() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("lint crate lives in a workspace");
        let files = discover(&root).expect("workspace is readable");
        assert!(files.rust_sources.iter().any(|p| p == "crates/lint/src/walk.rs"));
        assert!(files.manifests.iter().any(|p| p == "Cargo.toml"));
        assert!(files.manifests.iter().any(|p| p == "crates/lint/Cargo.toml"));
        assert!(files.rust_sources.iter().all(|p| !p.starts_with("target/")));
        let mut sorted = files.rust_sources.clone();
        sorted.sort();
        assert_eq!(sorted, files.rust_sources, "deterministic order");
    }
}
