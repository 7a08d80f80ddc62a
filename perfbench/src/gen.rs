//! The seeded generator: every source text, grid, machine model and
//! request order the benchmark feeds the compiler comes from here, drawn
//! from the `--seed` argument and nothing else.
//!
//! Batch workloads and the serve hot set perturb one program's size
//! within a narrow band, so every seed runs slightly different programs
//! while the amount of work (and the modelled time) stays within a few
//! percent of the nominal sizes. Novel serve jobs draw their program,
//! size, grid and machine at random: they stand for the programs users
//! submit once.

use f90d_bench::workloads as w;
use f90d_machine::MachineSpec;

/// A SplitMix64 stream (Steele, Lea & Flood, OOPSLA 2014).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `lane`.
    pub fn new(seed: u64, lane: u64) -> Self {
        Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ghost-exchange stencils on native kernels.
    Stencil,
    /// PARTI gather/scatter through the inspector and the bytecode loop.
    Irregular,
    /// Hundreds of ranks with per-link contention pricing.
    Scale,
    /// The in-process daemon under a closed loop of two clients.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Stencil,
        Workload::Irregular,
        Workload::Scale,
        Workload::Serve,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stencil => "stencil",
            Workload::Irregular => "irregular",
            Workload::Scale => "scale",
            Workload::Serve => "serve",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One compile-and-run job: what the compiler and the machine receive.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Short label for logs and the trace.
    pub label: String,
    /// Fortran 90D source text.
    pub source: String,
    /// Processor grid.
    pub grid: Vec<i64>,
    /// Machine model name (`f90d-serve` names for the serve workload).
    pub machine: &'static str,
    /// Per-link contention pricing on.
    pub contention: bool,
    /// Phase-level comm planning on.
    pub comm_plan: bool,
}

impl Job {
    fn new(label: String, source: String, grid: &[i64], machine: &'static str) -> Job {
        Job {
            label,
            source,
            grid: grid.to_vec(),
            machine,
            contention: false,
            comm_plan: false,
        }
    }

    /// The machine cost model.
    pub fn spec(&self) -> MachineSpec {
        match self.machine {
            "ipsc860" => MachineSpec::ipsc860(),
            "ncube2" => MachineSpec::ncube2(),
            "ideal" => MachineSpec::ideal(),
            "fattree-4x4" => MachineSpec::fat_tree(4, 4).expect("256-leaf fat tree"),
            "torus-32x32" => MachineSpec::torus(&[32, 32]).expect("32x32 torus"),
            other => unreachable!("generator never names machine {other}"),
        }
    }
}

/// `irregular(n)` indexes through `MOD(I*7, N)` and `MOD(I*11, N)`:
/// both are permutations only when `n` shares no factor with 7 or 11,
/// and a FORALL may not assign one element twice.
fn irregular_size(rng: &mut Rng, lo: i64, hi: i64) -> i64 {
    loop {
        let n = rng.range(lo, hi);
        if n % 7 != 0 && n % 11 != 0 {
            return n;
        }
    }
}

/// The distinct programs of a batch workload, the frequent one first
/// (see `bench::BATCH_CYCLE`). The seed perturbs one size slightly: the
/// frequent program's, except on `scale`, whose torus jacobi costs the
/// same modelled time at every nearby size.
pub fn batch_jobs(wl: Workload, seed: u64) -> Vec<Job> {
    let mut r = Rng::new(seed, 1);
    match wl {
        Workload::Stencil => {
            let m = 2048 + 4 * r.range(-2, 2);
            let mut msten = Job::new(
                format!("multi_stencil({m},20)"),
                w::multi_stencil(m, 20),
                &[4],
                "ipsc860",
            );
            msten.comm_plan = true;
            let jacobi = Job::new(
                "jacobi(256,20)".into(),
                w::jacobi(256, 20),
                &[2, 2],
                "ipsc860",
            );
            vec![msten, jacobi]
        }
        Workload::Irregular => {
            let nx = 1024 + 2 * r.range(-2, 2);
            vec![
                Job::new(
                    format!("fft_butterfly({nx},8)"),
                    w::fft_butterfly(nx, 8),
                    &[4],
                    "ipsc860",
                ),
                Job::new(
                    "irregular(8192)".into(),
                    w::irregular(8192),
                    &[4],
                    "ipsc860",
                ),
            ]
        }
        Workload::Scale => {
            let n = 64 - r.range(0, 1);
            let mut jacobi = Job::new(
                "jacobi(64,1)".into(),
                w::jacobi(64, 1),
                &[32, 32],
                "torus-32x32",
            );
            let mut gauss = Job::new(
                format!("gaussian({n})"),
                w::gaussian(n),
                &[256],
                "fattree-4x4",
            );
            jacobi.contention = true;
            gauss.contention = true;
            vec![jacobi, gauss]
        }
        Workload::Serve => serve_hot_set(seed),
    }
}

/// The serve workload's repeated jobs: tiny sizes of every
/// `workloads.rs` program on both paper machines, each answered in about
/// the same time, well under a novel job's. The seed perturbs one size;
/// the novel jobs carry the rest of the seed's variation.
pub fn serve_hot_set(seed: u64) -> Vec<Job> {
    let v = 32 + 2 * Rng::new(seed, 2).range(-2, 2);
    vec![
        Job::new("jacobi(16,2)".into(), w::jacobi(16, 2), &[2, 2], "ipsc860"),
        Job::new("gaussian(12)".into(), w::gaussian(12), &[4], "ipsc860"),
        Job::new("gaussian(16)".into(), w::gaussian(16), &[2], "ncube2"),
        Job::new("irregular(16)".into(), w::irregular(16), &[4], "ipsc860"),
        Job::new(
            "fft_butterfly(64,2)".into(),
            w::fft_butterfly(64, 2),
            &[4],
            "ncube2",
        ),
        Job::new(
            "multi_stencil(32,2)".into(),
            w::multi_stencil(32, 2),
            &[4],
            "ncube2",
        ),
        Job::new(format!("vcycle({v},2)"), w::vcycle(v, 2), &[4], "ipsc860"),
    ]
}

/// Novel serve job `k` of client `client`: a program, size, grid and
/// machine drawn at random. Sizes stay small, so compiling is a large
/// share of the request, which takes two to three times a hot one. The trailing comment names the request, so no
/// two novel jobs share a source text and every one pays the whole
/// compile path.
pub fn novel_job(rng: &mut Rng, client: usize, k: usize) -> Job {
    const MACHINES: [&str; 3] = ["ipsc860", "ncube2", "ideal"];
    const GRIDS_1D: [&[i64]; 3] = [&[2], &[4], &[8]];
    const GRIDS_2D: [&[i64]; 3] = [&[2, 2], &[4, 2], &[2, 4]];
    let machine = MACHINES[rng.range(0, 2) as usize];
    let g1 = GRIDS_1D[rng.range(0, 2) as usize];
    let g2 = GRIDS_2D[rng.range(0, 2) as usize];
    let (label, source, grid) = match rng.range(0, 5) {
        0 => {
            let (n, it) = (rng.range(24, 32), rng.range(2, 3));
            (format!("jacobi({n},{it})"), w::jacobi(n, it), g2)
        }
        1 => {
            let n = rng.range(20, 28);
            (format!("gaussian({n})"), w::gaussian(n), g1)
        }
        2 => {
            let n = irregular_size(rng, 48, 96);
            (format!("irregular({n})"), w::irregular(n), g1)
        }
        3 => {
            let nx = 128 << rng.range(0, 1);
            (
                format!("fft_butterfly({nx},2)"),
                w::fft_butterfly(nx, 2),
                g1,
            )
        }
        4 => {
            let (n, it) = (rng.range(96, 160), rng.range(2, 3));
            (
                format!("multi_stencil({n},{it})"),
                w::multi_stencil(n, it),
                g1,
            )
        }
        _ => {
            let n = rng.range(64, 128);
            (format!("vcycle({n},2)"), w::vcycle(n, 2), g1)
        }
    };
    let source = format!("{source}! novel request {client}-{k}\n");
    Job::new(label, source, grid, machine)
}

/// Request `k` of a serve client is novel when this holds: exactly one
/// request in four pays the compile path.
pub fn is_novel(k: usize) -> bool {
    k % 4 == 3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        for wl in Workload::ALL {
            assert_eq!(batch_jobs(wl, 7), batch_jobs(wl, 7), "{}", wl.name());
        }
        let draw = |seed| {
            let mut r = Rng::new(seed, 3);
            (0..64).map(|k| novel_job(&mut r, 0, k)).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
        for wl in Workload::ALL {
            let differ = (0..16).any(|s| batch_jobs(wl, s) != batch_jobs(wl, 0));
            assert!(differ, "the seed must reach {}'s sources", wl.name());
        }
    }

    #[test]
    fn generated_irregular_sizes_are_permutation_safe() {
        let mut r = Rng::new(5, 0);
        for _ in 0..1000 {
            let n = irregular_size(&mut r, 48, 96);
            assert!(n % 7 != 0 && n % 11 != 0);
        }
    }
}
