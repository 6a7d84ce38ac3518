//! Builds the `osp` binary from the tree under test and refuses a
//! stale one.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

/// The `osp` executable the wire workloads drive.
pub struct OspBinary {
    /// Path of the executable.
    pub path: PathBuf,
    /// `git rev-parse HEAD` of the tree, when it is a git checkout.
    pub commit: String,
    /// FNV-1a digest of the sources the binary is built from.
    pub source_digest: String,
}

/// The repository root: the parent of this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Runs `cargo build --release` for `osp` in `root`, then checks that
/// the executable is newer than every source file Cargo's dep-info
/// lists for it.
pub fn build(root: &Path) -> Result<OspBinary, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "osp-cli",
            "--bin",
            "osp",
        ])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building osp failed ({status})"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let path = target.join("release").join("osp");
    let built = mtime(&path)?;
    let now = SystemTime::now();
    let mut digest = Fnv::default();
    for file in dep_info(&target.join("release").join("osp.d"))? {
        // A source stamped in the future (clock skew) cannot be ordered
        // against the build, and Cargo rebuilds it on every run anyway.
        let modified = mtime(&file)?;
        if modified > built && modified <= now {
            return Err(format!(
                "{} is older than {}; refusing a stale binary",
                path.display(),
                file.display()
            ));
        }
        digest.write(
            file.strip_prefix(root)
                .unwrap_or(&file)
                .as_os_str()
                .as_encoded_bytes(),
        );
        digest.write(
            &std::fs::read(&file).map_err(|e| format!("cannot read {}: {e}", file.display()))?,
        );
    }
    let commit = Some(root)
        .filter(|root| root.join(".git").exists())
        .and_then(|root| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .current_dir(root)
                .output()
                .ok()
        })
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string());
    Ok(OspBinary {
        path,
        commit,
        source_digest: format!("{:016x}", digest.0),
    })
}

fn mtime(path: &Path) -> Result<SystemTime, String> {
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))
}

/// The source files Cargo's dep-info file `path` lists for its target
/// (`target: src1 src2 ...`, spaces inside a path escaped as `\ `).
fn dep_info(path: &Path) -> Result<Vec<PathBuf>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let line = text.lines().next().unwrap_or_default().replace("\\ ", "\0");
    let (_, deps) = line
        .split_once(": ")
        .ok_or_else(|| format!("malformed dep-info {}", path.display()))?;
    let mut files: Vec<PathBuf> = deps
        .split_whitespace()
        .map(|dep| PathBuf::from(dep.replace('\0', " ")))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{} lists no sources", path.display()));
    }
    Ok(files)
}

/// 64-bit FNV-1a, for digests that must repeat across runs and hosts.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}
