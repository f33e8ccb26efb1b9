//! The benchmark's workloads: generated from a seed, written to Bookshelf
//! files, and read back by every measured run.

use eplace_benchgen::BenchmarkConfig;
use eplace_netlist::Design;
use std::io;
use std::path::{Path, PathBuf};

/// One generated workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ISPD-2005-like: 16 000 std cells, fixed macros and pads, ρt = 1,
    /// 256×256 density grid. Spectral, density, WA and Nesterov work
    /// dominate.
    Ispd05_16k,
    /// MMS-like: 8 000 std cells and 32 movable macros, ρt = 1. The only
    /// workload that runs mLG, the filler phase and cGP.
    Mms8k,
    /// PEKO-like: 8 000 uniform cells around a certified optimal placement.
    /// Short mGP, long detail placement; the absolute quality reference.
    Peko8k,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Ispd05_16k, Workload::Mms8k, Workload::Peko8k];

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ispd05_16k => "ispd05-16k",
            Workload::Mms8k => "mms-8k",
            Workload::Peko8k => "peko-8k",
        }
    }

    /// Stem of the Bookshelf files (`<stem>.aux`, `<stem>.nodes`, …).
    pub fn stem(self) -> &'static str {
        match self {
            Workload::Ispd05_16k => "ispd05_16k",
            Workload::Mms8k => "mms_8k",
            Workload::Peko8k => "peko_8k",
        }
    }

    /// Generates the workload's design from `seed`, with its certified
    /// optimal HPWL where the generator knows one (`peko-8k` only); the
    /// same seed gives the same design.
    pub fn generate(self, seed: u64) -> (Design, Option<f64>) {
        match self {
            Workload::Ispd05_16k => {
                let d = BenchmarkConfig::ispd05_like(self.stem(), seed)
                    .scale(16_000)
                    .generate();
                (d, None)
            }
            Workload::Mms8k => {
                let d = BenchmarkConfig::mms_like(self.stem(), seed, 1.0, 32)
                    .scale(8_000)
                    .generate();
                (d, None)
            }
            Workload::Peko8k => {
                let (d, opt) = BenchmarkConfig::peko_like(self.stem(), seed)
                    .scale(8_000)
                    .generate_known_optimum();
                (d, Some(opt.hpwl))
            }
        }
    }

    pub fn aux_path(self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.aux", self.stem()))
    }

    fn optimum_path(self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.opt", self.stem()))
    }

    /// Writes the Bookshelf files, and the optimal HPWL next to them when
    /// there is one.
    pub fn write(self, design: &Design, optimum: Option<f64>, dir: &Path) -> io::Result<()> {
        eplace_bookshelf::write_aux(design, dir, self.stem())?;
        match optimum {
            Some(hpwl) => std::fs::write(self.optimum_path(dir), format!("{hpwl:?}\n")),
            None => Ok(()),
        }
    }

    /// The optimal HPWL [`Workload::write`] stored; required on `peko-8k`,
    /// `None` on the other workloads.
    pub fn read_optimum(self, dir: &Path) -> Result<Option<f64>, String> {
        if self != Workload::Peko8k {
            return Ok(None);
        }
        let path = self.optimum_path(dir);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        text.trim()
            .parse()
            .ok()
            .filter(|h: &f64| h.is_finite() && *h > 0.0)
            .map(Some)
            .ok_or_else(|| format!("{}: bad optimal HPWL", path.display()))
    }

    /// Total size of the workload's Bookshelf files.
    pub fn bytes(self, dir: &Path) -> io::Result<u64> {
        let mut total = 0;
        for ext in ["aux", "nodes", "nets", "wts", "pl", "scl"] {
            total += std::fs::metadata(dir.join(format!("{}.{ext}", self.stem())))?.len();
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
