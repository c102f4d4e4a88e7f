//! What the workloads share: the generated configurations, the output
//! digests the checks compare, the deployment metrics of a found model,
//! and the scratch directories a run writes under.

use hgnas_core::{LatencyMode, SearchConfig, SearchedModel, TaskConfig};
use hgnas_device::{DeviceKind, DeviceProfile};
use hgnas_ops::{lower_edgeconv, Architecture, DgcnnConfig};
use hgnas_predictor::PredictorConfig;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Workload size: `Full` is what the benchmark measures; `Tiny` exists for
/// the benchmark's own tests and shrinks every workload to seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured configuration.
    Full,
    /// Reduced sizes for tests of the benchmark itself.
    Tiny,
}

/// The devices every served request searches over.
pub const REQUEST_DEVICES: [DeviceKind; 2] = [DeviceKind::Rtx3080, DeviceKind::JetsonTx2];

/// The paper-path target device.
pub const PAPER_DEVICE: DeviceKind = DeviceKind::JetsonTx2;

/// Worker threads the host offers; the kernel/eval thread budget and the
/// cap on client threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The reduced search configuration of the daemon bench: seconds per
/// search, predictor mode, two shards' worth of work in well under a
/// second.
pub fn tiny_search(device: DeviceKind) -> SearchConfig {
    let mut cfg = SearchConfig::fast(device);
    cfg.ea_stage1.iterations = 1;
    cfg.ea_stage1.population = 3;
    cfg.ea_stage2.iterations = 3;
    cfg.ea_stage2.population = 6;
    cfg.epochs_stage1 = 1;
    cfg.epochs_stage2 = 2;
    cfg.predictor = PredictorConfig {
        train_samples: 40,
        val_samples: 15,
        epochs: 4,
        lr: 3e-3,
        gcn_dims: vec![16, 16],
        mlp_hidden: vec![12],
        seed: 1,
        global_node: true,
        batch: 2,
    };
    cfg.eval_clouds = 15;
    cfg.latency_mode = LatencyMode::Predictor;
    cfg
}

/// The paper-path search: a small classification task on the Jetson TX2
/// in predictor mode, with the host's whole thread budget.
pub fn paper_config(size: Size, seed: u64) -> (TaskConfig, SearchConfig) {
    let (task, mut cfg) = match size {
        Size::Full => (TaskConfig::small(seed), SearchConfig::fast(PAPER_DEVICE)),
        Size::Tiny => (TaskConfig::tiny(seed), tiny_search(PAPER_DEVICE)),
    };
    cfg.latency_mode = LatencyMode::Predictor;
    cfg.eval_threads = nproc();
    (task, cfg)
}

/// One served request: the tiny config with every seed the search reads
/// (dataset, search, predictor) set to `seed`, so requests with distinct
/// seeds share no prefix, predictor or checkpoint.
pub fn request_config(seed: u64) -> (TaskConfig, SearchConfig) {
    let mut cfg = tiny_search(REQUEST_DEVICES[0]);
    cfg.seed = seed;
    cfg.predictor.seed = seed;
    (TaskConfig::tiny(seed), cfg)
}

/// SplitMix64 finaliser: derives independent per-request seeds from the
/// workload seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of request `index` in `tenant`'s stream under `workload_seed`
/// (kept to 32 bits so it reads well in logs).
pub fn request_seed(workload_seed: u64, tenant: usize, index: usize) -> u64 {
    mix(mix(workload_seed) ^ mix(((tenant as u64) << 32) | index as u64)) & 0xFFFF_FFFF
}

/// Digest of a found model: FNV-1a over its genome and the bits of its
/// score, latency and accuracy. Equal digests mean bit-identical results.
pub fn model_digest(m: &SearchedModel) -> u64 {
    let mut bytes = format!("{:?}", m.genome).into_bytes();
    for v in [m.score, m.latency_ms, m.supernet_accuracy] {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A found model deployed the way the paper's Table II does it: the
/// architecture re-lowered at 1024 points with k = 20 on the target
/// profile, against DGCNN at the same setting.
#[derive(Debug, Clone, Copy)]
pub struct Deploy {
    /// DGCNN latency over the found model's latency.
    pub speedup_x: f64,
    /// Peak-memory reduction against DGCNN, percent.
    pub mem_reduction_pct: f64,
}

/// Deploys `arch` on `profile` (see [`Deploy`]).
pub fn deploy(arch: &Architecture, profile: &DeviceProfile) -> Deploy {
    let dgcnn = profile.execute(&lower_edgeconv(&DgcnnConfig::paper(40), 1024));
    let mut found = arch.clone();
    found.k = 20;
    let r = profile.execute(&found.lower(1024, &[128]));
    Deploy {
        speedup_x: dgcnn.latency_ms / r.latency_ms,
        mem_reduction_pct: (1.0 - r.peak_mem_mb / dgcnn.peak_mem_mb) * 100.0,
    }
}

/// The directory a run writes records, spans and artifact stores under,
/// relative to the directory the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// A fresh artifact-store directory, removed again on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// A new, empty directory under [`out_dir`].
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()
            .join("stores")
            .join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_seeds_are_distinct_and_reproducible() {
        let seeds: std::collections::BTreeSet<u64> = (0..2)
            .flat_map(|t| (0..200).map(move |i| request_seed(7, t, i)))
            .collect();
        assert_eq!(seeds.len(), 400);
        assert_eq!(request_seed(7, 1, 3), request_seed(7, 1, 3));
        assert_ne!(request_seed(7, 1, 3), request_seed(8, 1, 3));
    }
}
