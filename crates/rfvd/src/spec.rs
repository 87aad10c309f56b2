//! Workload specs: the deterministic, server-side mapping from a
//! submitted spec string to a [`rfv_isa::prelude::Kernel`].
//!
//! Two forms are accepted:
//!
//! * a Table 1 suite name (`"VectorAdd"`, `"Gaussian"`, ...), checked
//!   against [`rfv_workloads::TABLE1`] at parse time (nothing is built)
//!   and resolved through [`rfv_workloads::suite::by_name`];
//! * a synthetic-kernel expression `synth:key=val,key=val,...`
//!   mapping onto [`rfv_workloads::SynthParams`] plus the
//!   `chain_repeats` knob of [`rfv_workloads::synth_repeated`]:
//!
//! | key       | meaning                              | range        |
//! |-----------|--------------------------------------|--------------|
//! | `regs`    | registers per thread                 | 6..=63       |
//! | `trips`   | loop trip count (0 = straight line)  | 0..=100000   |
//! | `div`     | divergent loop trip count            | 0/1          |
//! | `diamond` | if/else diamond in the body          | 0/1          |
//! | `mem`     | global loads per iteration           | 0..=3        |
//! | `ctas`    | grid CTAs                            | 1..=65536    |
//! | `tpc`     | threads per CTA                      | 1..=1024     |
//! | `conc`    | concurrent CTAs per SM               | 1..=64       |
//! | `rep`     | straight-line chain repeats          | 1..=4096     |
//!
//! Validation is exhaustive *before* any kernel is built, so a parsed
//! [`JobSpec`] can be turned into a kernel infallibly — the generator
//! asserts can never fire on daemon input. That is what keeps
//! satellite guarantee "malformed jobs yield typed errors, never a
//! worker panic" airtight at the workload layer.

use rfv_isa::prelude::Kernel;
use rfv_workloads::{paper_geometry, suite, synth_repeated, SynthParams};

/// A validated workload spec. Building the kernel cannot fail.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JobSpec {
    /// One of the sixteen Table 1 suite workloads, by name.
    Suite(String),
    /// A synthetic kernel.
    Synth {
        /// Generator shape (validated to the generator's domain).
        params: SynthParams,
        /// Straight-line chain repetitions (validated positive).
        chain_repeats: u32,
    },
}

impl JobSpec {
    /// Parses and validates a spec string.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found.
    pub fn parse(spec: &str) -> Result<JobSpec, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err("empty workload spec".into());
        }
        if let Some(body) = spec.strip_prefix("synth:") {
            return parse_synth(body);
        }
        if paper_geometry(spec).is_some() {
            return Ok(JobSpec::Suite(spec.to_string()));
        }
        Err(format!(
            "unknown workload {spec:?} (expected a Table 1 name or `synth:key=val,...`)"
        ))
    }

    /// A stable cache identity for the kernel this spec builds:
    /// FNV-1a over the spec's canonical form plus the compile flavor.
    /// Sound because the spec → kernel mapping is deterministic — two
    /// equal specs always generate identical kernels — and it costs
    /// nanoseconds, so a cache hit never pays to build (or walk) the
    /// kernel at all.
    pub fn cache_key(&self, release_flags: bool) -> u64 {
        let canon = match self {
            JobSpec::Suite(name) => format!("suite:{name}|flags{}", u8::from(release_flags)),
            JobSpec::Synth {
                params: p,
                chain_repeats,
            } => format!(
                "synth:regs={},trips={},div={},diamond={},mem={},ctas={},tpc={},conc={},rep={}|flags{}",
                p.regs,
                p.loop_trips,
                u8::from(p.divergent_loop),
                u8::from(p.diamond),
                p.mem_ops,
                p.ctas,
                p.threads_per_cta,
                p.conc_ctas,
                chain_repeats,
                u8::from(release_flags),
            ),
        };
        rfv_trace::wire::fnv1a(canon.as_bytes())
    }

    /// Builds the kernel this spec describes. Infallible by
    /// construction: [`JobSpec::parse`] validated every parameter.
    pub fn build_kernel(&self) -> Kernel {
        match self {
            JobSpec::Suite(name) => suite::by_name(name).expect("validated suite name").kernel,
            JobSpec::Synth {
                params,
                chain_repeats,
            } => synth_repeated(*params, *chain_repeats),
        }
    }
}

fn parse_synth(body: &str) -> Result<JobSpec, String> {
    let mut p = SynthParams::default();
    let mut rep: u32 = 1;
    for kv in body.split(',').filter(|s| !s.trim().is_empty()) {
        let (key, val) = kv
            .split_once('=')
            .ok_or_else(|| format!("synth field {kv:?} is not key=val"))?;
        let key = key.trim();
        let val = val.trim();
        let num = |hi: u64| -> Result<u64, String> {
            let n: u64 = val
                .parse()
                .map_err(|_| format!("synth {key}={val:?} is not a number"))?;
            if n > hi {
                return Err(format!("synth {key}={n} exceeds {hi}"));
            }
            Ok(n)
        };
        match key {
            "regs" => {
                let n = num(63)?;
                if n < 6 {
                    return Err(format!("synth regs={n} below the generator minimum of 6"));
                }
                p.regs = n as u8;
            }
            "trips" => p.loop_trips = num(100_000)? as u32,
            "div" => p.divergent_loop = parse_flag(key, val)?,
            "diamond" => p.diamond = parse_flag(key, val)?,
            "mem" => p.mem_ops = num(3)? as u8,
            "ctas" => p.ctas = positive(key, num(65_536)?)? as u32,
            "tpc" => p.threads_per_cta = positive(key, num(1024)?)? as u32,
            "conc" => p.conc_ctas = positive(key, num(64)?)? as u32,
            "rep" => rep = positive(key, num(4096)?)? as u32,
            _ => return Err(format!("unknown synth key {key:?}")),
        }
    }
    Ok(JobSpec::Synth {
        params: p,
        chain_repeats: rep,
    })
}

fn parse_flag(key: &str, val: &str) -> Result<bool, String> {
    match val {
        "0" | "false" => Ok(false),
        "1" | "true" => Ok(true),
        _ => Err(format!("synth {key}={val:?} is not 0/1")),
    }
}

fn positive(key: &str, n: u64) -> Result<u64, String> {
    if n == 0 {
        return Err(format!("synth {key} must be positive"));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_names_resolve() {
        for name in ["VectorAdd", "Gaussian", "LUD", "BlackScholes"] {
            let spec = JobSpec::parse(name).unwrap();
            assert_eq!(spec, JobSpec::Suite(name.into()));
            let k = spec.build_kernel();
            assert!(k.num_machine_instrs() > 0);
        }
    }

    #[test]
    fn synth_defaults_and_overrides() {
        let spec = JobSpec::parse("synth:regs=24,trips=5,rep=16,diamond=1").unwrap();
        match &spec {
            JobSpec::Synth {
                params,
                chain_repeats,
            } => {
                assert_eq!(params.regs, 24);
                assert_eq!(params.loop_trips, 5);
                assert!(params.diamond);
                assert_eq!(*chain_repeats, 16);
            }
            other => panic!("unexpected {other:?}"),
        }
        let k = spec.build_kernel();
        assert_eq!(k.num_regs(), 24);
    }

    #[test]
    fn bare_synth_is_the_default_shape() {
        let spec = JobSpec::parse("synth:").unwrap();
        assert_eq!(
            spec,
            JobSpec::Synth {
                params: SynthParams::default(),
                chain_repeats: 1
            }
        );
    }

    #[test]
    fn generator_domain_enforced_before_building() {
        for bad in [
            "synth:regs=5",
            "synth:regs=64",
            "synth:mem=4",
            "synth:rep=0",
            "synth:tpc=0",
            "synth:tpc=2048",
            "synth:ctas=0",
            "synth:conc=0",
            "synth:regs=abc",
            "synth:nope=1",
            "synth:regs",
            "NotAWorkload",
            "",
            "   ",
        ] {
            assert!(JobSpec::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn every_accepted_spec_builds_without_panicking() {
        for spec in [
            "synth:regs=6",
            "synth:regs=63,trips=0,rep=64",
            "synth:tpc=1,ctas=1,conc=1",
            "synth:tpc=1024,conc=64,mem=3,div=1,diamond=1",
        ] {
            let s = JobSpec::parse(spec).unwrap();
            let k = s.build_kernel();
            assert!(k.num_machine_instrs() > 0, "{spec}");
        }
    }
}
