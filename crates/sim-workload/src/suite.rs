//! The 90-trace workload suite (paper Table 4).
//!
//! The paper evaluates 90 traces from 58 workloads across five categories
//! (Client 22, Enterprise 14, FSPEC17 29, ISPEC17 11, Server 14). Each trace
//! here is a [`WorkloadSpec`]: a seeded kernel mix whose category-specific
//! weights were tuned so the measured global-stable load fractions and
//! addressing-mode/inter-occurrence distributions match Fig. 3's shape.

use crate::kernels::{emit_kernel, KernelCtx, KernelKind, ARG_SLOT_DISP, MAIN_FRAME};
use crate::program::{Program, ProgramBuilder, STACK_TOP};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sim_isa::{AluOp, ArchReg};

/// Workload category, as in the paper's Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    Client,
    Enterprise,
    Fspec17,
    Ispec17,
    Server,
}

impl Category {
    /// All categories, in the paper's presentation order.
    pub const ALL: [Category; 5] = [
        Category::Client,
        Category::Enterprise,
        Category::Fspec17,
        Category::Ispec17,
        Category::Server,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Category::Client => "Client",
            Category::Enterprise => "Enterprise",
            Category::Fspec17 => "FSPEC17",
            Category::Ispec17 => "ISPEC17",
            Category::Server => "Server",
        }
    }

    /// Kernel mix weights (calls per main-loop iteration) for this category.
    fn weights(self) -> Vec<(KernelKind, u32)> {
        use KernelKind::*;
        match self {
            Category::Client => vec![
                (GlobalConst, 3),
                (CallHeavy, 3),
                (Branchy, 2),
                (InlinedArgs, 2),
                (HashProbe, 1),
                (Stream, 1),
                (Churn, 1),
            ],
            Category::Enterprise => vec![
                (HashProbe, 3),
                (CallHeavy, 2),
                (InlinedArgs, 2),
                (GlobalConst, 2),
                (Churn, 1),
                (PtrChase, 1),
            ],
            Category::Fspec17 => vec![(Matrix, 4), (Stream, 4), (InlinedArgs, 1), (GlobalConst, 1)],
            Category::Ispec17 => vec![
                (Branchy, 2),
                (PtrChase, 2),
                (HashProbe, 2),
                (InlinedArgs, 2),
                (GlobalConst, 1),
                (Stream, 1),
                (Churn, 1),
            ],
            Category::Server => vec![
                (CallHeavy, 4),
                (GlobalConst, 3),
                (HashProbe, 2),
                (InlinedArgs, 2),
                (Churn, 1),
            ],
        }
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Specification of one workload trace.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Trace name (mirrors the paper's workload names where it lists them).
    pub name: String,
    /// Workload category.
    pub category: Category,
    /// Generation seed; two specs with the same seed build identical programs.
    pub seed: u64,
    /// Kernel mix: calls per main-loop iteration.
    pub weights: Vec<(KernelKind, u32)>,
    /// Generate for the 32-register APX study (Appendix B).
    pub apx: bool,
}

impl WorkloadSpec {
    /// Creates a spec with the category's default mix, jittered by `seed`.
    pub fn new(name: impl Into<String>, category: Category, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ C0N_STABLE_SALT());
        let mut weights = category.weights();
        // Per-trace personality: nudge two kernel weights.
        for _ in 0..2 {
            let i = rng.gen_range(0..weights.len());
            let bump = rng.gen_range(0..=1);
            weights[i].1 = (weights[i].1 + bump).max(1);
        }
        WorkloadSpec {
            name: name.into(),
            category,
            seed,
            weights,
            apx: false,
        }
    }

    /// Returns a copy targeting APX (32-register) code generation.
    pub fn with_apx(mut self, apx: bool) -> Self {
        self.apx = apx;
        self
    }

    /// Appends the stable on-disk key encoding of this spec to `out`: the
    /// trace name (length-prefixed), category, generation seed, the full
    /// kernel-mix weights, and the APX flag — everything [`build`]
    /// (WorkloadSpec::build) is a deterministic function of, plus the name
    /// (which labels the persisted outcome). Part of the result-store key
    /// format: explicit little-endian bytes, stable across processes and
    /// builds, with kernel kinds encoded by their [`KernelKind::ALL`]
    /// position rather than compiler-assigned discriminants. Exhaustive
    /// destructuring: adding a spec field breaks this at compile time.
    pub fn stable_key_encode(&self, out: &mut Vec<u8>) {
        let WorkloadSpec {
            name,
            category,
            seed,
            weights,
            apx,
        } = self;
        out.extend_from_slice(&(name.len() as u64).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        let cat = Category::ALL
            .iter()
            .position(|c| c == category)
            .expect("known category") as u8;
        out.push(cat);
        out.extend_from_slice(&seed.to_le_bytes());
        out.extend_from_slice(&(weights.len() as u64).to_le_bytes());
        for (kind, weight) in weights {
            let k = KernelKind::ALL
                .iter()
                .position(|x| x == kind)
                .expect("known kernel kind") as u8;
            out.push(k);
            out.extend_from_slice(&weight.to_le_bytes());
        }
        out.push(u8::from(*apx));
    }

    /// [`WorkloadSpec::build`] wrapped in an [`Arc`](std::sync::Arc), for
    /// harnesses that share one program across many simulations (the sweep
    /// session caches these so each trace is assembled exactly once per
    /// process, not once per (figure × config)).
    pub fn build_arc(&self) -> std::sync::Arc<Program> {
        std::sync::Arc::new(self.build())
    }

    /// Builds the program for this spec. Deterministic in `seed`.
    pub fn build(&self) -> Program {
        let mut b = ProgramBuilder::new(self.name.clone()).with_apx(self.apx);
        let mut rng = SmallRng::seed_from_u64(self.seed);

        // Emit the kernel functions and assemble the call schedule.
        let mut schedule = Vec::new();
        for &(kind, weight) in &self.weights {
            // Larger weights get extra static instances for PC diversity.
            let instances = 1 + (weight > 2) as u32;
            let mut labels = Vec::new();
            for _ in 0..instances {
                let mut ctx = KernelCtx {
                    b: &mut b,
                    rng: &mut rng,
                };
                labels.push(emit_kernel(kind, &mut ctx));
            }
            for c in 0..weight {
                schedule.push(labels[(c as usize) % labels.len()]);
            }
        }
        schedule.shuffle(&mut rng);

        // Main: establish the frame, arg slots come from the memory image
        // (trace-snapshot semantics: they were written before the trace).
        b.set_entry();
        b.alui(AluOp::Sub, ArchReg::RSP, ArchReg::RSP, MAIN_FRAME);
        b.mov(ArchReg::RBP, ArchReg::RSP);
        let rbp = STACK_TOP - MAIN_FRAME as u64;
        b.init_u64(rbp + ARG_SLOT_DISP as u64, 0x0101);
        b.init_u64(rbp + ARG_SLOT_DISP as u64 + 8, 0x0202);
        b.init_u64(rbp + ARG_SLOT_DISP as u64 + 16, 0x0303);

        let top = b.bind_new_label();
        for (i, &f) in schedule.iter().enumerate() {
            b.call(f);
            if i % 3 == 0 {
                // Light glue code between kernel calls.
                b.alui(AluOp::Add, ArchReg::R15, ArchReg::R15, 1);
                b.alui(AluOp::Xor, ArchReg::RAX, ArchReg::RAX, 0x3)
            } else {
                b.nop()
            };
        }
        b.jmp(top);
        b.build()
    }
}

// A whimsical constant so spec jitter differs from program-build randomness.
#[allow(non_snake_case)]
#[inline]
fn C0N_STABLE_SALT() -> u64 {
    0x5eed_5a17
}

/// Builds the full 90-trace suite (Table 4 shape: 22/14/29/11/14 traces).
pub fn suite() -> Vec<WorkloadSpec> {
    let mut out = Vec::with_capacity(90);
    let mut seed = 0x1000u64;
    let mut push = |out: &mut Vec<WorkloadSpec>, name: String, cat: Category| {
        seed += 0x9e37;
        out.push(WorkloadSpec::new(name, cat, seed));
    };

    // Client: 16 workloads, 22 traces.
    const CLIENT: [&str; 16] = [
        "sysmark-chrome",
        "sysmark-office",
        "jetstream2-richards",
        "jetstream2-richards_wasm",
        "jetstream2-gbemu",
        "dacapo-h2",
        "dacapo-fop",
        "dacapo-luindex",
        "tabletmark-web",
        "tabletmark-photo",
        "speedometer-vue",
        "speedometer-react",
        "webxprt-photo",
        "crxprt-doc",
        "pcmark-writing",
        "pcmark-edit",
    ];
    for (i, name) in CLIENT.iter().enumerate() {
        push(&mut out, format!("{name}.t1"), Category::Client);
        if i < 6 {
            push(&mut out, format!("{name}.t2"), Category::Client);
        }
    }

    // Enterprise: 9 workloads, 14 traces.
    const ENTERPRISE: [&str; 9] = [
        "specjbb2015",
        "specjenterprise",
        "lammps-lj",
        "lammps-rhodo",
        "sap-sd",
        "oracle-oltp",
        "exchange-mail",
        "tpcc-like",
        "tpch-q6",
    ];
    for (i, name) in ENTERPRISE.iter().enumerate() {
        push(&mut out, format!("{name}.t1"), Category::Enterprise);
        if i < 5 {
            push(&mut out, format!("{name}.t2"), Category::Enterprise);
        }
    }

    // FSPEC17: 13 workloads, 29 traces.
    const FSPEC: [&str; 13] = [
        "503.bwaves_r",
        "507.cactuBSSN_r",
        "508.namd_r",
        "510.parest_r",
        "511.povray_r",
        "519.lbm_r",
        "521.wrf_r",
        "526.blender_r",
        "527.cam4_r",
        "538.imagick_r",
        "544.nab_r",
        "549.fotonik3d_r",
        "554.roms_r",
    ];
    for (i, name) in FSPEC.iter().enumerate() {
        push(&mut out, format!("{name}.t1"), Category::Fspec17);
        push(&mut out, format!("{name}.t2"), Category::Fspec17);
        if i < 3 {
            push(&mut out, format!("{name}.t3"), Category::Fspec17);
        }
    }

    // ISPEC17: 10 workloads, 11 traces.
    const ISPEC: [&str; 10] = [
        "500.perlbench_r",
        "502.gcc_r",
        "505.mcf_r",
        "520.omnetpp_r",
        "523.xalancbmk_r",
        "525.x264_r",
        "531.deepsjeng_r",
        "541.leela_r",
        "548.exchange2_r",
        "557.xz_r",
    ];
    for (i, name) in ISPEC.iter().enumerate() {
        push(&mut out, format!("{name}.t1"), Category::Ispec17);
        if i == 7 {
            // leela gets a second trace — it is the paper's flagship example.
            push(&mut out, format!("{name}.t2"), Category::Ispec17);
        }
    }

    // Server: 10 workloads, 14 traces.
    const SERVER: [&str; 10] = [
        "hadoop_kmeans",
        "hadoop_sort",
        "linpack",
        "snort",
        "bigbench-q1",
        "bigbench-q7",
        "nginx-static",
        "redis-get",
        "memcached-mc",
        "mysql-oltp",
    ];
    for (i, name) in SERVER.iter().enumerate() {
        push(&mut out, format!("{name}.t1"), Category::Server);
        if i < 4 {
            push(&mut out, format!("{name}.t2"), Category::Server);
        }
    }

    debug_assert_eq!(out.len(), 90);
    out
}

/// A deliberately memory-bound trace: streaming, matrix, pointer-chase, and
/// hash-probe kernels dominate, so nearly every cycle touches the cache
/// hierarchy. Used by the `bench/memory` harness and the memory-stress rows
/// of the scheduling trace-oracle matrix; two specs with the same seed
/// build identical programs.
pub fn memory_stress(seed: u64) -> WorkloadSpec {
    use KernelKind::*;
    WorkloadSpec {
        name: format!("memstress.{seed:#x}"),
        category: Category::Fspec17,
        seed,
        weights: vec![
            (Stream, 4),
            (Matrix, 3),
            (PtrChase, 3),
            (HashProbe, 2),
            (Churn, 2),
        ],
        apx: false,
    }
}

/// A small, category-balanced subset of the suite (for tests and quick runs).
pub fn suite_subset(n: usize) -> Vec<WorkloadSpec> {
    let full = suite();
    let mut out = Vec::with_capacity(n);
    // Round-robin over categories for balance.
    let mut by_cat: Vec<Vec<WorkloadSpec>> = Category::ALL
        .iter()
        .map(|c| full.iter().filter(|w| w.category == *c).cloned().collect())
        .collect();
    let mut i = 0;
    while out.len() < n {
        let cat = &mut by_cat[i % Category::ALL.len()];
        if !cat.is_empty() {
            out.push(cat.remove(0));
        }
        i += 1;
        if i > 1000 {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Machine;

    #[test]
    fn suite_has_90_traces_with_paper_category_counts() {
        let s = suite();
        assert_eq!(s.len(), 90);
        let count = |c: Category| s.iter().filter(|w| w.category == c).count();
        assert_eq!(count(Category::Client), 22);
        assert_eq!(count(Category::Enterprise), 14);
        assert_eq!(count(Category::Fspec17), 29);
        assert_eq!(count(Category::Ispec17), 11);
        assert_eq!(count(Category::Server), 14);
    }

    #[test]
    fn trace_names_are_unique() {
        let s = suite();
        let mut names: Vec<&str> = s.iter().map(|w| w.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 90);
    }

    #[test]
    fn stable_keys_are_deterministic_and_distinct() {
        let enc = |s: &WorkloadSpec| {
            let mut v = Vec::new();
            s.stable_key_encode(&mut v);
            v
        };
        let s = suite();
        assert_eq!(enc(&s[0]), enc(&s[0].clone()));
        let mut keys: Vec<Vec<u8>> = s.iter().map(enc).collect();
        keys.push(enc(&s[0].clone().with_apx(true)));
        let total = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), total, "workload key collision");
    }

    #[test]
    fn builds_are_deterministic() {
        let spec = &suite()[0];
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.insts().len(), b.insts().len());
        assert_eq!(a.insts(), b.insts());
        assert!(
            a.image().pages().eq(b.image().pages()),
            "initial memory images differ"
        );
        assert!(
            a.image().page_count() > 0,
            "the suite's programs carry data"
        );
    }

    #[test]
    fn every_trace_executes_100k_instructions() {
        // Smoke test over a category-balanced subset (full suite is covered
        // by integration tests in release mode).
        for spec in suite_subset(10) {
            let p = spec.build();
            let mut m = Machine::new(&p);
            let mut loads = 0u64;
            for _ in 0..100_000 {
                let rec = m.step();
                if p.inst(rec.sidx).is_load() {
                    loads += 1;
                }
            }
            let frac = loads as f64 / 100_000.0;
            assert!(
                (0.05..0.60).contains(&frac),
                "{}: implausible load fraction {frac:.3}",
                spec.name
            );
        }
    }

    #[test]
    fn apx_mode_reduces_dynamic_loads() {
        let spec = suite()
            .into_iter()
            .find(|w| w.category == Category::Server)
            .unwrap();
        let count_loads = |apx: bool| {
            let p = spec.clone().with_apx(apx).build();
            let mut m = Machine::new(&p);
            let mut loads = 0u64;
            for _ in 0..200_000 {
                let rec = m.step();
                if p.inst(rec.sidx).is_load() {
                    loads += 1;
                }
            }
            loads
        };
        let base = count_loads(false);
        let apx = count_loads(true);
        assert!(
            apx < base,
            "APX should reduce dynamic loads: base={base} apx={apx}"
        );
    }
}
