//! The request schedules: what is sent and when, derived from the seed
//! by the benchmark's own HMAC-DRBG so that a change to the product's
//! generators cannot move the traffic. The canonical bytes of every
//! schedule go into the workload's input digest.

use tsr_crypto::Sha256;

use crate::spec::{CANARY_US, MIX_PER_MILLE, PAGE_LIMIT};

const BLOCK: usize = 64;

fn hmac_sha256(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        k[..32].copy_from_slice(&Sha256::digest(key));
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut inner = Sha256::new();
    inner.update(&k.map(|b| b ^ 0x36));
    for p in parts {
        inner.update(p);
    }
    let mut outer = Sha256::new();
    outer.update(&k.map(|b| b ^ 0x5c));
    outer.update(&inner.finalize());
    outer.finalize()
}

/// HMAC-DRBG (SP 800-90A, SHA-256, no reseed) — the benchmark's only
/// source of randomness.
pub struct Drbg {
    k: [u8; 32],
    v: [u8; 32],
}

impl Drbg {
    /// A generator seeded with `seed`.
    pub fn new(seed: &[u8]) -> Self {
        let mut d = Drbg {
            k: [0; 32],
            v: [1; 32],
        };
        d.k = hmac_sha256(&d.k, &[&d.v, &[0], seed]);
        d.v = hmac_sha256(&d.k, &[&d.v]);
        d.k = hmac_sha256(&d.k, &[&d.v, &[1], seed]);
        d.v = hmac_sha256(&d.k, &[&d.v]);
        d
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.v = hmac_sha256(&self.k, &[&self.v]);
        u64::from_le_bytes(self.v[..8].try_into().expect("8 bytes"))
    }

    /// Uniform in `[0, n)` (`n > 0`); the modulo bias is below 2^-32 for
    /// every `n` the schedules use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in the open interval `(0, 1)`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// The kind of one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Kind {
    /// `GET …/index` with `If-None-Match`.
    IndexCond = 0,
    /// `GET …/index`.
    IndexGet = 1,
    /// `GET …/packages/{name}`.
    Package = 2,
    /// `GET …/packages?offset=&limit=`.
    Page = 3,
    /// `GET /v1/healthz`.
    Health = 4,
}

impl Kind {
    /// All kinds, in mix order.
    pub const ALL: [Kind; 5] = [
        Kind::IndexCond,
        Kind::IndexGet,
        Kind::Package,
        Kind::Page,
        Kind::Health,
    ];

    /// Short name used in spans and reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::IndexCond => "index_cond",
            Kind::IndexGet => "index",
            Kind::Package => "package",
            Kind::Page => "page",
            Kind::Health => "health",
        }
    }
}

/// One scheduled read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOp {
    /// Due instant, microseconds from the start of the phase (0 in a
    /// closed loop).
    pub due_us: u64,
    /// What to send.
    pub kind: Kind,
    /// Package pick or page offset, reduced modulo the number of served
    /// packages when the request is built.
    pub pick: u32,
}

fn draw(rng: &mut Drbg, due_us: u64) -> ReadOp {
    let roll = rng.below(1000) as u32;
    let mut acc = 0;
    let mut kind = Kind::Health;
    for (k, share) in Kind::ALL.iter().zip(MIX_PER_MILLE) {
        acc += share;
        if roll < acc {
            kind = *k;
            break;
        }
    }
    ReadOp {
        due_us,
        kind,
        pick: rng.below(1 << 31) as u32,
    }
}

/// A Poisson arrival schedule of the read mix at `rate` requests per
/// second, covering `seconds`.
pub fn open_loop(rng: &mut Drbg, rate: f64, seconds: f64) -> Vec<ReadOp> {
    let end_us = (seconds * 1e6) as u64;
    let mut ops = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -rng.unit().ln() / rate * 1e6;
        let due = t as u64;
        if due >= end_us {
            return ops;
        }
        ops.push(draw(rng, due));
    }
}

/// `ops` with one package-page read added [`CANARY_US`] after the due
/// instant of each of `events` events, `period` seconds apart. A page
/// read waits for the repository lock, and the mix alone sends one every
/// 50 ms on average: whether one falls into a 100 ms refresh, and when,
/// would be the seed's luck. The canary makes every event's stall a
/// measurement of the same thing.
pub fn with_canaries(
    mut ops: Vec<ReadOp>,
    rng: &mut Drbg,
    events: usize,
    period: f64,
) -> Vec<ReadOp> {
    for k in 0..events {
        ops.push(ReadOp {
            due_us: (k as f64 * period * 1e6) as u64 + CANARY_US,
            kind: Kind::Page,
            pick: rng.below(1 << 31) as u32,
        });
    }
    ops.sort_by_key(|op| op.due_us);
    ops
}

/// A sequence of `n` reads of the mix with no due instants, which a
/// closed loop walks cyclically.
pub fn closed_loop(rng: &mut Drbg, n: usize) -> Vec<ReadOp> {
    (0..n).map(|_| draw(rng, 0)).collect()
}

/// The canonical bytes of a schedule: 13 bytes per op.
pub fn canonical(ops: &[ReadOp], out: &mut Vec<u8>) {
    out.extend_from_slice(&(ops.len() as u64).to_le_bytes());
    for op in ops {
        out.extend_from_slice(&op.due_us.to_le_bytes());
        out.push(op.kind as u8);
        out.extend_from_slice(&op.pick.to_le_bytes());
    }
}

/// The request path of `op` for tenant `repo`, given the served names.
pub fn path(op: &ReadOp, repo: &str, names: &[String]) -> String {
    let n = names.len().max(1);
    match op.kind {
        Kind::IndexCond | Kind::IndexGet => format!("/v1/repositories/{repo}/index"),
        Kind::Package => format!(
            "/v1/repositories/{repo}/packages/{}",
            names[op.pick as usize % n]
        ),
        Kind::Page => format!(
            "/v1/repositories/{repo}/packages?offset={}&limit={PAGE_LIMIT}",
            op.pick as usize % n
        ),
        Kind::Health => "/v1/healthz".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_differs() {
        let bytes = |seed: &[u8]| {
            let mut rng = Drbg::new(seed);
            let mut out = Vec::new();
            canonical(&open_loop(&mut rng, 500.0, 2.0), &mut out);
            canonical(&closed_loop(&mut rng, 64), &mut out);
            out
        };
        assert_eq!(bytes(b"seed-1"), bytes(b"seed-1"));
        assert_ne!(bytes(b"seed-1"), bytes(b"seed-2"));
    }

    #[test]
    fn poisson_rate_is_within_three_percent_over_twenty_seconds() {
        let mut rng = Drbg::new(b"rate");
        let ops = open_loop(&mut rng, 1000.0, 20.0);
        let got = ops.len() as f64 / 20.0;
        assert!((got - 1000.0).abs() <= 30.0, "rate {got}");
        assert!(ops.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert!(ops.last().expect("non-empty").due_us < 20_000_000);
    }

    #[test]
    fn every_event_gets_a_canary_page_read_in_due_order() {
        let mut rng = Drbg::new(b"canaries");
        let plain = open_loop(&mut rng, 200.0, 2.0);
        let ops = with_canaries(plain.clone(), &mut rng, 4, 0.5);
        assert_eq!(ops.len(), plain.len() + 4);
        assert!(ops.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        for k in 0..4u64 {
            let due = k * 500_000 + CANARY_US;
            assert!(ops
                .iter()
                .any(|op| op.due_us == due && op.kind == Kind::Page));
        }
    }

    #[test]
    fn mix_matches_its_shares() {
        let mut rng = Drbg::new(b"mix");
        let ops = closed_loop(&mut rng, 20_000);
        for (kind, share) in Kind::ALL.iter().zip(MIX_PER_MILLE) {
            let got = ops.iter().filter(|o| o.kind == *kind).count() as f64 / 20.0;
            assert!((got - share as f64).abs() < 25.0, "{kind:?}: {got}");
        }
    }

    #[test]
    fn hmac_matches_rfc_4231_case_2() {
        let mac = hmac_sha256(b"Jefe", &[b"what do ya want ", b"for nothing?"]);
        assert_eq!(
            tsr_crypto::hex::to_hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }
}
