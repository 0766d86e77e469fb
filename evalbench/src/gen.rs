//! Seeded input generation. Everything the program under test receives is
//! derived from the workload seed here, so one seed gives one input.

use chronos_json::{obj, Value};

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_c4f0_9e37_79b9)
    }

    /// An independent stream for one purpose of one seed.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut base = Rng::new(seed);
        Rng(base.next_u64() ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `base` scaled by a factor uniform in `[1 - spread, 1 + spread]`.
    pub fn jitter(&mut self, base: f64, spread: f64) -> f64 {
        base * (1.0 - spread + 2.0 * spread * self.unit())
    }
}

/// The demo-sweep plan: engine x threads x YCSB mix, with job sizes fixed
/// so that every seed asks the SuE for the same amount of work.
#[derive(Debug, Clone, PartialEq)]
pub struct DemoSweep {
    pub threads: Vec<i64>,
    pub mixes: Vec<&'static str>,
    pub record_count: i64,
    pub operation_count: i64,
    /// Seed of minidoc's key and value generators.
    pub data_seed: i64,
}

impl DemoSweep {
    pub fn generate(seed: u64) -> DemoSweep {
        let mut rng = Rng::stream(seed, 1);
        DemoSweep {
            threads: vec![1, 2],
            mixes: vec!["a", "b", "c"],
            record_count: 3_000,
            operation_count: 40_000,
            data_seed: (rng.next_u64() >> 1) as i64,
        }
    }
}

/// A YCSB-shaped measurement document for one point of the demo system,
/// as the minidoc client would report it. Shape follows the parameters;
/// the figures are seeded noise around a plausible model.
pub fn ycsb_result(rng: &mut Rng, parameters: &Value) -> Value {
    let engine = parameters.get("engine").and_then(Value::as_str).unwrap_or("wiredtiger");
    let threads = parameters.get("threads").and_then(Value::as_f64).unwrap_or(1.0);
    let mix = parameters.get("workload").and_then(Value::as_str).unwrap_or("a");
    let engine_factor = if engine == "mmapv1" { 0.7 } else { 1.0 };
    let read_share: f64 = match mix {
        "a" => 0.5,
        "b" | "d" => 0.95,
        "c" => 1.0,
        "e" => 0.05,
        _ => 0.5,
    };
    let total_ops: f64 = 10_000.0;
    let throughput = rng.jitter(40_000.0 * engine_factor * threads.sqrt(), 0.1);
    let reads = (total_ops * read_share).round();
    let updates = total_ops - reads;
    let latency = |rng: &mut Rng, base: f64| {
        let p50 = rng.jitter(base, 0.2);
        obj! { "p50" => p50.round(), "p99" => (p50 * rng.jitter(4.0, 0.25)).round() }
    };
    let read_latency = latency(rng, 20.0 / engine_factor);
    let update_latency = latency(rng, 45.0 / engine_factor);
    obj! {
        "wall_millis" => (total_ops / throughput * 1e3).round(),
        "throughput_ops_per_sec" => throughput,
        "total_ops" => total_ops,
        "total_errors" => 0,
        "operations" => obj! {
            "read" => obj! { "count" => reads, "latency_micros" => read_latency },
            "update" => obj! { "count" => updates, "latency_micros" => update_latency },
        },
        "engine_stats" => obj! {
            "stored_bytes" => rng.jitter(1.1e6 / engine_factor, 0.05).round(),
        },
    }
}

/// Log text a job ships once, shaped like the agent runtime's own lines.
pub fn agent_log(rng: &mut Rng, client: &str, parameters: &Value) -> String {
    let mut log = format!("agent: starting {client} (attempt 1) with parameters {parameters}\n");
    for phase in ["set_up", "warm_up", "execute"] {
        log.push_str(&format!("agent: phase {phase}\n"));
    }
    log.push_str(&format!("{client}: run token {:016x}\n", rng.next_u64()));
    log
}

/// The dashboard's read classes, in the order of the mix table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReadClass {
    Detail,
    Jobs,
    Summary,
    Chart,
    Stats,
    Regressions,
}

impl ReadClass {
    pub const ALL: [ReadClass; 6] = [
        ReadClass::Detail,
        ReadClass::Jobs,
        ReadClass::Summary,
        ReadClass::Chart,
        ReadClass::Stats,
        ReadClass::Regressions,
    ];

    /// Share of the read mix, in percent.
    fn weight(self) -> u64 {
        match self {
            ReadClass::Detail => 25,
            ReadClass::Jobs => 15,
            ReadClass::Summary => 20,
            ReadClass::Chart => 20,
            ReadClass::Stats => 10,
            ReadClass::Regressions => 10,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ReadClass::Detail => "detail",
            ReadClass::Jobs => "jobs",
            ReadClass::Summary => "summary",
            ReadClass::Chart => "chart",
            ReadClass::Stats => "stats",
            ReadClass::Regressions => "regressions",
        }
    }
}

/// One planned dashboard read: its class, the seeded evaluation it targets
/// and, for charts, the chart index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedRead {
    pub class: ReadClass,
    pub evaluation: usize,
    pub chart: usize,
}

/// An endless seeded read mix over `evaluations` finished evaluations with
/// `charts` charts each.
pub struct ReadMix {
    rng: Rng,
    evaluations: u64,
    charts: u64,
}

impl ReadMix {
    pub fn new(seed: u64, evaluations: usize, charts: usize) -> ReadMix {
        ReadMix {
            rng: Rng::stream(seed, 2),
            evaluations: evaluations as u64,
            charts: charts as u64,
        }
    }
}

impl Iterator for ReadMix {
    type Item = PlannedRead;

    fn next(&mut self) -> Option<PlannedRead> {
        let mut pick = self.rng.below(100);
        let mut class = ReadClass::Detail;
        for c in ReadClass::ALL {
            if pick < c.weight() {
                class = c;
                break;
            }
            pick -= c.weight();
        }
        Some(PlannedRead {
            class,
            evaluation: self.rng.below(self.evaluations) as usize,
            chart: self.rng.below(self.charts) as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(engine: &str, threads: i64, mix: &str) -> Value {
        obj! { "engine" => engine, "threads" => threads, "workload" => mix }
    }

    #[test]
    fn same_seed_gives_the_same_sweep() {
        assert_eq!(DemoSweep::generate(7), DemoSweep::generate(7));
        assert_ne!(DemoSweep::generate(7).data_seed, DemoSweep::generate(8).data_seed);
        // Job sizes do not depend on the seed.
        assert_eq!(DemoSweep::generate(7).operation_count, DemoSweep::generate(8).operation_count);
    }

    #[test]
    fn same_seed_gives_identical_synthetic_results() {
        let p = point("mmapv1", 2, "b");
        let a = ycsb_result(&mut Rng::stream(11, 3), &p);
        let b = ycsb_result(&mut Rng::stream(11, 3), &p);
        assert_eq!(a.to_string(), b.to_string());
        let c = ycsb_result(&mut Rng::stream(12, 3), &p);
        assert_ne!(a.to_string(), c.to_string());
        assert!(a.get("engine_stats").and_then(|s| s.get("stored_bytes")).is_some());
    }

    #[test]
    fn same_seed_gives_the_same_read_mix() {
        let a: Vec<_> = ReadMix::new(5, 8, 3).take(500).collect();
        let b: Vec<_> = ReadMix::new(5, 8, 3).take(500).collect();
        assert_eq!(a, b);
        for class in ReadClass::ALL {
            assert!(a.iter().any(|r| r.class == class), "{class:?} never drawn");
        }
        assert!(a.iter().all(|r| r.evaluation < 8 && r.chart < 3));
    }

    #[test]
    fn logs_are_seeded() {
        let p = point("wiredtiger", 1, "a");
        assert_eq!(
            agent_log(&mut Rng::new(3), "null", &p),
            agent_log(&mut Rng::new(3), "null", &p)
        );
    }
}
