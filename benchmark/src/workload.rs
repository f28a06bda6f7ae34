//! The four workloads and the seeded request streams they send.
//!
//! Everything the daemon receives is generated here from
//! `(seed, workload, phase)`, and the same triple always yields the same
//! frames. Each phase of a run draws from its own stream, so how far a
//! closed-loop phase got never shifts the frames of the next phase. Unique
//! requests take their penalty rate from a counter that is disjoint across
//! the phases of a run, so no two of them share a fingerprint.

use uptime_broker::SolutionRequest;
use uptime_catalog::ComponentKind;
use uptime_optimizer::Archetype;

/// Unique-request counter values reserved for each phase of a run.
const UNIQUE_PER_PHASE: u64 = 10_000_000;

/// The hot pool's SLA targets (percent), all at a $100/h penalty.
const POOL_SLA_PERCENT: [f64; 8] = [95.0, 96.0, 97.0, 97.5, 98.0, 98.5, 99.0, 99.5];

/// Soft monthly cost cap of every frontier request (dollars).
const FRONTIER_COST_CAP: f64 = 2000.0;

/// One traffic mix. Rates sit well below what the daemon answers
/// closed-loop on a 2-vCPU host, so open-loop latency is service time,
/// not queueing at saturation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 98% hot-pool repeats, 2% unique serial requests: the serve layers
    /// (scan, decode, fingerprint, cache hit, envelope, transport) do the
    /// work and the optimizer almost none.
    Hot,
    /// Unique `recommend` requests, 60% serial and 40% spread over the six
    /// archetypes: broker dispatch, search, and rendering of 3.6–400 KB
    /// answers do the work; the cache never hits.
    Cold,
    /// Unique SLO `frontier` requests, 40% serial and 60% archetype: the
    /// Pareto search and SLO parsing.
    Frontier,
    /// Hot-pool reads with 1% `sync` frames under `--state-dir`: ingest,
    /// journal append, and cache refill after every epoch bump.
    Churn,
}

impl Workload {
    /// Every workload, in the order `run` and `trace` visit them.
    pub const ALL: [Workload; 4] = [
        Workload::Hot,
        Workload::Cold,
        Workload::Frontier,
        Workload::Churn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::Cold => "cold",
            Workload::Frontier => "frontier",
            Workload::Churn => "churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered load of the open-loop phases, in requests per second: well
    /// below what a 2-vCPU host answers, so a stall drains in a few ms.
    pub fn rate_rps(self) -> f64 {
        match self {
            Workload::Hot | Workload::Churn => 2_500.0,
            Workload::Cold => 200.0,
            Workload::Frontier => 2_000.0,
        }
    }

    /// Frames in flight per connection in the closed-loop phases.
    pub fn depth(self) -> usize {
        match self {
            Workload::Hot | Workload::Churn => 16,
            Workload::Cold | Workload::Frontier => 4,
        }
    }

    /// Whether the daemon runs with `--state-dir`.
    pub fn durable(self) -> bool {
        self == Workload::Churn
    }
}

/// What a request asks for; decides how its answer is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One of the eight hot-pool `recommend` requests (its pool index).
    Pool(usize),
    /// A unique serial `recommend`.
    Serial,
    /// A unique `recommend` over an archetype topology.
    Archetype,
    /// A unique SLO `frontier` request.
    Frontier,
    /// A telemetry `sync` (one absorb per observed component).
    Sync,
}

impl Kind {
    pub fn endpoint(self) -> &'static str {
        match self {
            Kind::Pool(_) | Kind::Serial | Kind::Archetype => "recommend",
            Kind::Frontier => "frontier",
            Kind::Sync => "sync",
        }
    }

    /// Unique requests always miss the cache.
    pub fn unique(self) -> bool {
        matches!(self, Kind::Serial | Kind::Archetype | Kind::Frontier)
    }
}

/// One generated request, rendered as the wire frame the daemon reads.
#[derive(Debug, Clone)]
pub struct Request {
    pub kind: Kind,
    /// The whole frame line, newline included.
    pub frame: String,
    body_start: usize,
}

impl Request {
    fn new(id: u64, kind: Kind, body: &str) -> Request {
        let head = format!(
            "{{\"v\":1,\"id\":{id},\"endpoint\":\"{}\",\"body\":",
            kind.endpoint()
        );
        let body_start = head.len();
        let mut frame = head;
        frame.push_str(body);
        frame.push_str("}\n");
        Request {
            kind,
            frame,
            body_start,
        }
    }

    /// The request body's JSON text.
    pub fn body(&self) -> &str {
        &self.frame[self.body_start..self.frame.len() - 2]
    }
}

/// splitmix64, the repository's seeded generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed for one `(seed, workload, phase)` triple.
pub fn phase_seed(seed: u64, workload: Workload, phase: u64) -> u64 {
    let mut state = seed ^ (workload as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f);
    state ^= splitmix64(&mut state) ^ phase.wrapping_mul(0xe703_7ed1_a0b4_28db);
    splitmix64(&mut state)
}

/// The eight hot-pool bodies, in pool order.
pub fn pool_bodies() -> Vec<String> {
    POOL_SLA_PERCENT
        .iter()
        .map(|&percent| {
            let request = SolutionRequest::builder()
                .tiers(ComponentKind::paper_tiers())
                .sla_percent(percent)
                .expect("pool SLA in range")
                .penalty_per_hour(100.0)
                .expect("positive rate")
                .build()
                .expect("valid pool request");
            serde_json::to_string(&request).expect("request serializes")
        })
        .collect()
}

/// The request stream of one phase of one run.
///
/// Mix shares are exact rather than drawn: position `n` of the stream
/// (shifted by a seeded offset) decides the request's kind, so every seed
/// sends the same amount of each kind of work and the seed varies only
/// request contents and arrival times.
pub struct Stream {
    workload: Workload,
    rng: u64,
    position: u64,
    unique: u64,
    archetype_turn: usize,
    pool: Vec<String>,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, phase: u64) -> Stream {
        let mut rng = phase_seed(seed, workload, phase);
        Stream {
            workload,
            position: splitmix64(&mut rng) % 100,
            rng,
            unique: phase * UNIQUE_PER_PHASE,
            archetype_turn: 0,
            pool: pool_bodies(),
        }
    }

    fn below(&mut self, n: usize) -> usize {
        (splitmix64(&mut self.rng) % n as u64) as usize
    }

    /// A penalty rate no other unique request of the run uses. The half
    /// cent keeps it off the pool's whole-dollar rate.
    fn unique_rate(&mut self) -> f64 {
        let k = self.unique;
        self.unique += 1;
        1.0005 + k as f64 * 0.001
    }

    /// The archetypes in turn, so each gets an even share.
    fn next_archetype(&mut self) -> &'static str {
        let all = Archetype::all();
        let archetype = all[self.archetype_turn % all.len()];
        self.archetype_turn += 1;
        archetype.name()
    }

    fn recommend_body(&mut self, topology: Option<&str>) -> String {
        let percent = 90.0 + (splitmix64(&mut self.rng) % 999_000) as f64 / 100_000.0;
        let mut builder = SolutionRequest::builder()
            .tiers(ComponentKind::paper_tiers())
            .sla_percent(percent)
            .expect("SLA in range")
            .penalty_per_hour(self.unique_rate())
            .expect("positive rate");
        if let Some(name) = topology {
            builder = builder.topology(name);
        }
        let request = builder.build().expect("valid request");
        serde_json::to_string(&request).expect("request serializes")
    }

    fn frontier_body(&mut self, topology: Option<&str>) -> String {
        let floor = 90.0 + (splitmix64(&mut self.rng) % 900_000) as f64 / 100_000.0;
        let mut body = serde_json::json!({
            "tiers": ["Compute", "Storage", "NetworkGateway"],
            "penalty": { "PerHour": { "rate": self.unique_rate() } },
            "slo": { "objectives": [
                { "metric": "uptime", "threshold": floor, "mode": "hard" },
                { "metric": "cost", "threshold": FRONTIER_COST_CAP, "mode": "soft", "weight": 1.0 }
            ] },
        });
        if let (Some(name), serde::Value::Object(map)) = (topology, &mut body) {
            map.insert("topology".to_owned(), serde_json::json!(name));
        }
        serde_json::to_string(&body).expect("body serializes")
    }

    /// The next request, framed with correlation id `id`.
    pub fn next_request(&mut self, id: u64) -> Request {
        let n = self.position;
        self.position += 1;
        // Two of every five positions: 40%.
        let two_in_five = matches!(n % 5, 0 | 2);
        let kind = match self.workload {
            Workload::Hot if n.is_multiple_of(50) => Kind::Serial,
            Workload::Cold if two_in_five => Kind::Archetype,
            Workload::Cold => Kind::Serial,
            Workload::Frontier => Kind::Frontier,
            Workload::Churn if n.is_multiple_of(100) => Kind::Sync,
            Workload::Hot | Workload::Churn => Kind::Pool(self.below(self.pool.len())),
        };
        let body = match kind {
            Kind::Pool(index) => self.pool[index].clone(),
            Kind::Serial => self.recommend_body(None),
            Kind::Archetype => {
                let topology = self.next_archetype();
                self.recommend_body(Some(topology))
            }
            Kind::Frontier => {
                let topology = (!two_in_five).then(|| self.next_archetype());
                self.frontier_body(topology)
            }
            Kind::Sync => format!("{{\"seed\":{}}}", splitmix64(&mut self.rng)),
        };
        Request::new(id, kind, &body)
    }
}

/// Intended send offsets (ns from the phase start) of a Poisson arrival
/// process at `rate_rps` over `seconds`.
pub fn poisson_schedule(rate_rps: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let mut rng = seed;
    let mut at = 0.0;
    let mut offsets = Vec::with_capacity((rate_rps * seconds * 1.1) as usize);
    loop {
        // Uniform in (0, 1], so the logarithm is finite.
        let u = ((splitmix64(&mut rng) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        at += -u.ln() / rate_rps;
        if at >= seconds {
            return offsets;
        }
        offsets.push((at * 1e9) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use uptime_broker::{canonical_fingerprint, frontier_fingerprint, FrontierRequest};

    fn frames(workload: Workload, seed: u64, phase: u64, n: u64) -> Vec<String> {
        let mut stream = Stream::new(workload, seed, phase);
        (0..n).map(|id| stream.next_request(id).frame).collect()
    }

    #[test]
    fn same_seed_gives_identical_frames() {
        for workload in Workload::ALL {
            assert_eq!(frames(workload, 7, 3, 500), frames(workload, 7, 3, 500));
            assert_ne!(frames(workload, 7, 3, 500), frames(workload, 8, 3, 500));
            assert_ne!(frames(workload, 7, 3, 500), frames(workload, 7, 4, 500));
        }
    }

    #[test]
    fn unique_requests_never_share_a_fingerprint() {
        let mut seen = HashSet::new();
        for workload in [Workload::Cold, Workload::Frontier] {
            for phase in 0..3 {
                let mut stream = Stream::new(workload, 11, phase);
                for id in 0..2_000 {
                    let request = stream.next_request(id);
                    let body: serde::Value =
                        serde_json::from_str(request.body()).expect("body parses");
                    let fingerprint = match request.kind {
                        Kind::Frontier => frontier_fingerprint(
                            &serde_json::from_value::<FrontierRequest>(&body).expect("parses"),
                        ),
                        _ => canonical_fingerprint(
                            "recommend",
                            &serde_json::from_value::<SolutionRequest>(&body).expect("parses"),
                        ),
                    };
                    assert!(
                        seen.insert(fingerprint),
                        "collision at {workload:?}/{phase}/{id}"
                    );
                }
            }
        }
    }

    #[test]
    fn mixes_have_exact_shares() {
        for seed in [5, 6] {
            let bodies = |workload| {
                let mut stream = Stream::new(workload, seed, 1);
                (0..10_000)
                    .map(|id| stream.next_request(id))
                    .collect::<Vec<_>>()
            };
            let count = |requests: &[Request], pred: fn(&Request) -> bool| {
                requests.iter().filter(|r| pred(r)).count()
            };
            let hot = bodies(Workload::Hot);
            assert_eq!(count(&hot, |r| r.kind == Kind::Serial), 200);
            let cold = bodies(Workload::Cold);
            assert_eq!(count(&cold, |r| r.kind == Kind::Archetype), 4_000);
            let global = |r: &Request| r.body().contains("\"topology\":\"global\"");
            assert_eq!(count(&cold, global), 666);
            let frontier = bodies(Workload::Frontier);
            assert_eq!(count(&frontier, |r| r.body().contains("topology")), 6_000);
            let churn = bodies(Workload::Churn);
            assert_eq!(count(&churn, |r| r.kind == Kind::Sync), 100);
        }
    }

    #[test]
    fn poisson_schedule_has_the_requested_mean_rate() {
        for (rate, seconds) in [(200.0, 50.0), (10_000.0, 2.0)] {
            let offsets = poisson_schedule(rate, seconds, 42);
            let measured = offsets.len() as f64 / seconds;
            assert!(
                (measured / rate - 1.0).abs() < 0.03,
                "rate {rate}: measured {measured}"
            );
            assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
            assert!(offsets.last().is_some_and(|&t| t < (seconds * 1e9) as u64));
        }
    }
}
