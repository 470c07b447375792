//! Where experiment artifacts land: the run-time `results/` directory.

use std::ffi::OsString;
use std::path::{Path, PathBuf};

/// Directory that experiment artifacts (figure CSVs, bench reports, the
/// snapshot store) land in, resolved at run time:
///
/// 1. `MCDVFS_RESULTS`, when set;
/// 2. otherwise `results/` under the nearest ancestor of the current
///    directory (itself included) that is a workspace root holding one —
///    a directory with both a `Cargo.toml` and a `results/` directory;
/// 3. otherwise `./results`.
///
/// `cargo test`/`cargo bench` run with the *package* root as cwd while
/// `cargo run` keeps the caller's, so walking up finds the same workspace
/// `results/` from either. Resolving from the current directory rather
/// than the build path means a binary built in one checkout and run from
/// another writes into the checkout it runs in.
#[must_use]
pub fn results_dir() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    resolve(std::env::var_os("MCDVFS_RESULTS"), &cwd)
}

fn resolve(overridden: Option<OsString>, cwd: &Path) -> PathBuf {
    if let Some(dir) = overridden {
        return PathBuf::from(dir);
    }
    cwd.ancestors()
        .find(|dir| dir.join("Cargo.toml").is_file() && dir.join("results").is_dir())
        .map_or_else(|| PathBuf::from("results"), |root| root.join("results"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    #[test]
    fn walks_up_to_the_workspace_root_holding_results() {
        let root = std::env::temp_dir().join(format!("mcdvfs-results-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let package = root.join("crates").join("bench");
        fs::create_dir_all(&package).unwrap();
        fs::create_dir_all(root.join("results")).unwrap();
        fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
        // A package manifest without `results/` is not the root.
        fs::write(package.join("Cargo.toml"), "[package]\n").unwrap();

        assert_eq!(resolve(None, &package), root.join("results"));
        assert_eq!(resolve(None, &root), root.join("results"));
        assert_eq!(
            resolve(Some("elsewhere".into()), &package),
            PathBuf::from("elsewhere"),
            "the environment override wins"
        );
        fs::remove_file(root.join("Cargo.toml")).unwrap();
        assert_eq!(
            resolve(None, &package),
            PathBuf::from("results"),
            "no workspace root falls back to ./results"
        );
        fs::remove_dir_all(&root).unwrap();
    }
}
