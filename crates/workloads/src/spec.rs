//! Benchmark specifications and the [`SyntheticKernel`] adapter that turns
//! them into `latte-gpusim` kernels.

use crate::access::{AccessPattern, PreparedPattern, ZipfSamplers};
use crate::values::{mix64, LineGenerator, REGION_SHIFT};
use latte_cache::LineAddr;
use latte_compress::CacheLine;
use latte_gpusim::{Kernel, Op, OpStream};
use std::sync::Arc;

/// Cache-sensitivity category (Table III): a workload is C-Sens if a 4×
/// larger data cache speeds it up by more than 20%.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Cache sensitive.
    CSens,
    /// Cache insensitive.
    CInSens,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Category::CSens => "C-Sens",
            Category::CInSens => "C-InSens",
        })
    }
}

/// One execution phase of a kernel: a batch of loads with a given access
/// pattern, compute density and warp participation. Phases end with a
/// block-wide barrier so inactive warps rejoin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    /// Access pattern of the phase's loads.
    pub pattern: AccessPattern,
    /// Loads each *active* warp issues in the phase.
    pub loads_per_warp: u32,
    /// Compute cycles between consecutive loads (latency-tolerance knob:
    /// more compute = more work to overlap with memory).
    pub compute_per_load: u32,
    /// Address region the loads target (selects the value profile).
    pub region: u8,
    /// Percentage (1–100) of warps that participate; the rest wait at the
    /// phase barrier (warp-parallelism knob: fewer active warps = less
    /// latency tolerance).
    pub active_warp_percent: u8,
    /// Percentage (0–100) of accesses that are stores instead of loads.
    pub store_percent: u8,
    /// Intra-warp memory-level parallelism: loads are issued in batches of
    /// `mlp` independent accesses, and the warp blocks only at the end of
    /// each batch. 1 = fully dependent (pointer-chase-like); 4–8 =
    /// array-sweep code with unrolled independent loads.
    pub mlp: u8,
}

impl PhaseSpec {
    /// A simple all-warps load phase.
    #[must_use]
    pub fn loads(pattern: AccessPattern, loads_per_warp: u32, compute_per_load: u32) -> PhaseSpec {
        PhaseSpec {
            pattern,
            loads_per_warp,
            compute_per_load,
            region: 0,
            active_warp_percent: 100,
            store_percent: 0,
            mlp: 1,
        }
    }

    /// Returns a copy targeting `region`.
    #[must_use]
    pub fn in_region(mut self, region: u8) -> PhaseSpec {
        self.region = region;
        self
    }

    /// Returns a copy with only `percent` of warps active.
    #[must_use]
    pub fn with_active(mut self, percent: u8) -> PhaseSpec {
        self.active_warp_percent = percent.clamp(1, 100);
        self
    }

    /// Returns a copy with `percent` stores.
    #[must_use]
    pub fn with_stores(mut self, percent: u8) -> PhaseSpec {
        self.store_percent = percent.min(100);
        self
    }

    /// Returns a copy with intra-warp memory-level parallelism `mlp`.
    #[must_use]
    pub fn with_mlp(mut self, mlp: u8) -> PhaseSpec {
        self.mlp = mlp.max(1);
        self
    }

    /// Folds every field into a simulation fingerprint.
    pub fn write_fingerprint(&self, fp: &mut latte_gpusim::Fingerprinter) {
        self.pattern.write_fingerprint(fp);
        fp.write_u32(self.loads_per_warp);
        fp.write_u32(self.compute_per_load);
        fp.write_u64(u64::from(self.region));
        fp.write_u64(u64::from(self.active_warp_percent));
        fp.write_u64(u64::from(self.store_percent));
        fp.write_u64(u64::from(self.mlp));
    }
}

/// One kernel: warps and a phase script (identical across SMs; data is
/// SM-disjoint).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Kernel name (for Kernel-OPT reports).
    pub name: String,
    /// Warps launched per SM.
    pub warps_per_sm: usize,
    /// The phase script each warp runs.
    pub phases: Vec<PhaseSpec>,
}

/// A complete benchmark: kernels plus the data-value model.
#[derive(Debug, Clone)]
pub struct BenchmarkSpec {
    /// Short name used in the paper's figures (e.g. "SS").
    pub abbr: &'static str,
    /// Full benchmark name.
    pub name: &'static str,
    /// Table III sensitivity category.
    pub category: Category,
    /// The kernels, run in order.
    pub kernels: Vec<KernelSpec>,
    /// The value model behind every address.
    pub generator: LineGenerator,
    /// Workload seed.
    pub seed: u64,
}

impl BenchmarkSpec {
    /// Instantiates the simulator kernels for this benchmark. Each
    /// kernel prepares its phases' access patterns here, once, for every
    /// SM and warp that will run it; Zipf phases with equal universe and
    /// exponent share one sampler table across all kernels.
    #[must_use]
    pub fn build_kernels(&self) -> Vec<SyntheticKernel> {
        let mut samplers = ZipfSamplers::default();
        self.kernels
            .iter()
            .map(|k| SyntheticKernel {
                plan: k
                    .phases
                    .iter()
                    .enumerate()
                    .map(|(idx, &spec)| PhasePlan {
                        spec,
                        pattern: PreparedPattern::new(
                            spec.pattern,
                            phase_seed(self.seed, idx),
                            &mut samplers,
                        ),
                    })
                    .collect(),
                spec: k.clone(),
                generator: self.generator.clone(),
                seed: self.seed,
            })
            .collect()
    }

    /// Folds the complete benchmark definition — names, category, every
    /// kernel's phase script, the value model and the seed — into a
    /// simulation fingerprint. Two specs with equal fingerprints run
    /// identical simulations, which is what lets the bench harness
    /// memoize results even for specs modified away from the registry
    /// versions (sensitivity sweeps and the like).
    pub fn write_fingerprint(&self, fp: &mut latte_gpusim::Fingerprinter) {
        fp.write_str(self.abbr);
        fp.write_str(self.name);
        fp.write_u64(match self.category {
            Category::CSens => 0,
            Category::CInSens => 1,
        });
        fp.write_usize(self.kernels.len());
        for kernel in &self.kernels {
            fp.write_str(&kernel.name);
            fp.write_usize(kernel.warps_per_sm);
            fp.write_usize(kernel.phases.len());
            for phase in &kernel.phases {
                phase.write_fingerprint(fp);
            }
        }
        self.generator.write_fingerprint(fp);
        fp.write_u64(self.seed);
    }

    /// Total loads per SM across all kernels (for run-length estimates).
    #[must_use]
    pub fn approx_loads_per_sm(&self) -> u64 {
        self.kernels
            .iter()
            .map(|k| {
                k.phases
                    .iter()
                    .map(|p| {
                        u64::from(p.loads_per_warp)
                            * (k.warps_per_sm as u64 * u64::from(p.active_warp_percent) / 100)
                    })
                    .sum::<u64>()
            })
            .sum()
    }
}

/// The seed a phase's access pattern draws from: the workload seed with
/// the phase index folded into the top bits. It is the same for every SM
/// and warp, which is what lets a kernel prepare each phase once.
fn phase_seed(seed: u64, phase_idx: usize) -> u64 {
    seed ^ (phase_idx as u64) << 48
}

/// One phase of a built kernel: its spec and its prepared pattern.
#[derive(Debug, Clone)]
struct PhasePlan {
    spec: PhaseSpec,
    pattern: PreparedPattern,
}

/// A [`Kernel`] generated from a [`KernelSpec`] + value model.
#[derive(Debug, Clone)]
pub struct SyntheticKernel {
    spec: KernelSpec,
    /// `spec.phases`, prepared; shared by every warp's [`PhaseStream`].
    plan: Arc<[PhasePlan]>,
    generator: LineGenerator,
    seed: u64,
}

impl SyntheticKernel {
    /// The underlying kernel spec.
    #[must_use]
    pub fn spec(&self) -> &KernelSpec {
        &self.spec
    }
}

impl Kernel for SyntheticKernel {
    fn name(&self) -> &str {
        &self.spec.name
    }

    fn warps_on_sm(&self, _sm: usize) -> usize {
        self.spec.warps_per_sm
    }

    fn warp_program(&self, sm: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(PhaseStream {
            plan: Arc::clone(&self.plan),
            warps: self.spec.warps_per_sm as u64,
            sm: sm as u64,
            warp: warp as u64,
            seed: self.seed,
            phase_idx: 0,
            load_idx: 0,
            pending_compute: false,
            barrier_emitted: false,
        })
    }

    fn line_data(&self, addr: LineAddr) -> CacheLine {
        self.generator.line(addr)
    }
}

/// Walks a phase script, emitting ops lazily.
struct PhaseStream {
    plan: Arc<[PhasePlan]>,
    warps: u64,
    sm: u64,
    warp: u64,
    seed: u64,
    phase_idx: usize,
    load_idx: u64,
    pending_compute: bool,
    barrier_emitted: bool,
}

impl PhaseStream {
    fn active_in(&self, p: &PhaseSpec) -> bool {
        self.warp * 100 < u64::from(p.active_warp_percent) * self.warps
    }

    fn memory_op(&self, phase: &PhasePlan, i: u64) -> Op {
        let p = &phase.spec;
        let offset = phase.pattern.line_offset(i, self.warp, self.warps);
        let line = (self.sm << 32) | (u64::from(p.region) << REGION_SHIFT) | (offset & 0xff_ffff);
        let addr = line * CacheLine::SIZE_BYTES as u64;
        let is_store = p.store_percent > 0
            && mix64(self.seed ^ line ^ i.rotate_left(23)) % 100 < u64::from(p.store_percent);
        if is_store {
            // Stores target one 32-byte sector of the line; the sector
            // choice and payload are pure functions of (seed, line, i) so
            // replays — and the differential oracle — see identical
            // bytes. The sector offset stays inside the line (addr/128
            // is unchanged), so write-through timing is unaffected.
            let (sector, data) = store_payload(self.seed, line, i);
            Op::Store {
                addr: addr + sector as u64 * 32,
                data,
            }
        } else {
            Op::Load { addr }
        }
    }
}

/// The deterministic sector index and 32-byte payload of the `i`-th
/// memory op on `line` when that op is a store. Public so tests can
/// reconstruct the architecturally expected bytes of any workload store
/// without replaying the op stream.
#[must_use]
pub fn store_payload(seed: u64, line: u64, i: u64) -> (usize, [u8; 32]) {
    let sector = (mix64(seed ^ line.rotate_left(17) ^ i) % 4) as usize;
    let mut data = [0u8; 32];
    for (j, chunk) in data.chunks_exact_mut(8).enumerate() {
        let word = mix64(seed ^ line ^ (i << 8) ^ ((sector as u64) << 2) ^ j as u64);
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    (sector, data)
}

impl OpStream for PhaseStream {
    fn next_op(&mut self) -> Op {
        loop {
            let Some(phase) = self.plan.get(self.phase_idx) else {
                return Op::Exit;
            };
            let p = &phase.spec;
            let loads_done = !self.active_in(p) || self.load_idx >= u64::from(p.loads_per_warp);
            if loads_done {
                // Phase epilogue: one barrier, then advance.
                if !self.barrier_emitted {
                    self.barrier_emitted = true;
                    return Op::Barrier;
                }
                self.phase_idx += 1;
                self.load_idx = 0;
                self.pending_compute = false;
                self.barrier_emitted = false;
                continue;
            }
            if self.pending_compute && p.compute_per_load > 0 {
                self.pending_compute = false;
                // One compute op per batch, preserving the compute:load
                // ratio regardless of the MLP factor.
                return Op::Compute {
                    cycles: p.compute_per_load * u32::from(p.mlp.max(1)),
                };
            }
            let op = self.memory_op(phase, self.load_idx);
            self.load_idx += 1;
            // Loads within an MLP batch are independent: all but the last
            // of each batch issue asynchronously, and the batch's compute
            // follows the blocking join.
            let mlp = u64::from(p.mlp.max(1));
            let batch_end =
                self.load_idx.is_multiple_of(mlp) || self.load_idx >= u64::from(p.loads_per_warp);
            if !batch_end {
                if let Op::Load { addr } = op {
                    return Op::LoadAsync { addr };
                }
                return op; // stores never block anyway
            }
            self.pending_compute = true;
            return op;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::{RegionSpec, ValueProfile};

    fn bench() -> BenchmarkSpec {
        BenchmarkSpec {
            abbr: "TST",
            name: "test benchmark",
            category: Category::CSens,
            kernels: vec![KernelSpec {
                name: "k0".into(),
                warps_per_sm: 4,
                phases: vec![
                    PhaseSpec::loads(AccessPattern::Stream, 3, 2),
                    PhaseSpec::loads(
                        AccessPattern::UniformReuse {
                            working_set_lines: 8,
                        },
                        2,
                        0,
                    )
                    .in_region(1)
                    .with_active(50),
                ],
            }],
            generator: LineGenerator::new(
                vec![
                    RegionSpec {
                        profile: ValueProfile::SmallInts { max: 10 },
                        zero_percent: 0,
                    },
                    RegionSpec {
                        profile: ValueProfile::Pointers,
                        zero_percent: 0,
                    },
                ],
                7,
            ),
            seed: 7,
        }
    }

    #[test]
    fn phase_stream_walks_phases_with_barriers() {
        let b = bench();
        let kernels = b.build_kernels();
        let mut s = kernels[0].warp_program(0, 0);
        let mut ops = Vec::new();
        loop {
            let op = s.next_op();
            ops.push(op);
            if op == Op::Exit {
                break;
            }
        }
        // Phase 0: load, compute, load, compute, load, compute(pending...)
        // then barrier; phase 1 (warp 0 active at 50%): 2 loads; barrier;
        // exit.
        let barriers = ops.iter().filter(|o| matches!(o, Op::Barrier)).count();
        assert_eq!(barriers, 2);
        let loads = ops.iter().filter(|o| matches!(o, Op::Load { .. })).count();
        assert_eq!(loads, 5);
    }

    #[test]
    fn inactive_warps_skip_to_barrier() {
        let b = bench();
        let kernels = b.build_kernels();
        // Warp 3 of 4 is inactive in phase 1 (50%).
        let mut s = kernels[0].warp_program(0, 3);
        let mut loads = 0;
        loop {
            match s.next_op() {
                Op::Exit => break,
                Op::Load { .. } => loads += 1,
                _ => {}
            }
        }
        assert_eq!(loads, 3, "only phase 0 loads");
    }

    #[test]
    fn regions_map_to_address_bits() {
        let b = bench();
        let kernels = b.build_kernels();
        let mut s = kernels[0].warp_program(2, 0);
        let mut region_seen = [false; 2];
        loop {
            match s.next_op() {
                Op::Exit => break,
                Op::Load { addr } => {
                    let line = addr / 128;
                    assert_eq!(line >> 32, 2, "SM id in high bits");
                    let region = ((line >> REGION_SHIFT) & 0xff) as usize;
                    region_seen[region.min(1)] = true;
                }
                _ => {}
            }
        }
        assert!(region_seen[0] && region_seen[1]);
    }

    #[test]
    fn store_percent_generates_stores() {
        let spec = KernelSpec {
            name: "w".into(),
            warps_per_sm: 1,
            phases: vec![PhaseSpec::loads(AccessPattern::Stream, 200, 0).with_stores(50)],
        };
        let b = BenchmarkSpec {
            kernels: vec![spec],
            ..bench()
        };
        let kernels = b.build_kernels();
        let mut s = kernels[0].warp_program(0, 0);
        let mut stores = 0;
        loop {
            match s.next_op() {
                Op::Exit => break,
                Op::Store { .. } => stores += 1,
                _ => {}
            }
        }
        assert!((60..140).contains(&stores), "got {stores}");
    }

    #[test]
    fn approx_loads_accounts_activity() {
        let b = bench();
        // Phase 0: 4 warps x 3 loads = 12; phase 1: 2 warps x 2 = 4.
        assert_eq!(b.approx_loads_per_sm(), 16);
    }

    #[test]
    fn kernel_is_replayable() {
        let b = bench();
        let kernels = b.build_kernels();
        let collect = || {
            let mut s = kernels[0].warp_program(1, 2);
            let mut v = Vec::new();
            loop {
                let op = s.next_op();
                v.push(op);
                if op == Op::Exit {
                    break;
                }
            }
            v
        };
        assert_eq!(collect(), collect());
    }
}
